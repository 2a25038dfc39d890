package main

import "math/rand/v2"

// Every input a run feeds the arena — op streams, hold times, arrival
// schedules, batch sizes and rename seeds — is generated here from the
// workload seed before any timing starts. Each generator draws from its
// own PCG stream so adding one never shifts another's inputs.

// rng returns the seeded stream for one generator and worker.
func rng(seed uint64, stream, worker int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(stream)<<32|uint64(worker)))
}

const (
	streamChurn = iota + 1
	streamRamp
	streamBurst
	streamRename
)

// churnStream is one worker's closed-loop churn: op i releases the held
// name at index picks[i % len] mod live and acquires a replacement.
func churnStream(seed uint64, worker, n int) []uint32 {
	r := rng(seed, streamChurn, worker)
	picks := make([]uint32, n)
	for i := range picks {
		picks[i] = r.Uint32()
	}
	return picks
}

// rampOp is one op of the ramp stream.
type rampOp struct {
	acquire bool   // acquire (else release)
	k       uint8  // batch size; 0 means a single Acquire/Release
	pick    uint32 // random word choosing which held names a release returns
}

// rampStream is one worker's closed-loop ramp over one wave period of
// period ops: the target live count follows a triangle wave from lo up to
// hi and back, each op moves the live count toward the target (a coin
// flip when on it), and half of all ops are batches of 1-16 names. The
// live counts the stream implies are simulated here, so replaying it
// against an arena that grants every acquire reproduces them exactly.
func rampStream(seed uint64, worker, period, lo, hi, startLive int) []rampOp {
	r := rng(seed, streamRamp, worker)
	ops := make([]rampOp, period)
	live := startLive
	for i := range ops {
		phase := float64(i) / float64(period)
		tri := 2 * phase
		if tri > 1 {
			tri = 2 - tri
		}
		target := lo + int(tri*float64(hi-lo))
		up := live < target || (live == target && r.IntN(2) == 0)
		if live == 0 {
			up = true
		}
		op := rampOp{acquire: up, pick: r.Uint32()}
		n := 1
		if r.IntN(2) == 0 {
			n = 1 + r.IntN(16)
			op.k = uint8(n)
		}
		if up {
			live += n
		} else {
			if n > live {
				n = live
				op.k = uint8(n)
			}
			live -= n
		}
		ops[i] = op
	}
	return ops
}

// renameSeeds returns the seeds of successive one-shot renames.
func renameSeeds(seed uint64, n int) []uint64 {
	r := rng(seed, streamRename, 0)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}
