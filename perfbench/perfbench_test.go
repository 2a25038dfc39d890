package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestSameSeedSameInputs(t *testing.T) {
	rungs := []rateRung{{rate: 50_000, dur: 2e8}, {rate: 200_000, dur: 1e8}}
	gen := func(seed uint64) any {
		return []any{
			churnStream(seed, 1, 4096),
			rampStream(seed, 0, 1<<14, 32, 1843, 32),
			openSchedule(seed, 1, 2, 0, rungs[0], capacity/2),
			openSchedule(seed, 1, 2, 1, rungs[1], capacity/2),
			initialHolds(seed, 0, 100, 1e7),
			renameSeeds(seed, 8),
		}
	}
	if !reflect.DeepEqual(gen(7), gen(7)) {
		t.Fatal("seed 7 generated two different inputs")
	}
	a, b := gen(7).([]any), gen(8).([]any)
	for i := range a {
		if reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("input %d is the same for seeds 7 and 8", i)
		}
	}
}

func TestRampStreamFollowsTheWave(t *testing.T) {
	const period, lo, hi = 1 << 16, 32, 1843
	live, peak := lo, 0
	for _, op := range rampStream(3, 0, period, lo, hi, lo) {
		n := max(int(op.k), 1)
		if !op.acquire {
			n = -n
		}
		live += n
		if live < 0 {
			t.Fatal("stream releases more names than it holds")
		}
		peak = max(peak, live)
	}
	if peak < hi-16 || peak > hi+16 {
		t.Errorf("peak live %d, want about %d", peak, hi)
	}
	if live > lo+32 {
		t.Errorf("wave ends at %d live, want about %d", live, lo)
	}
}

func TestOneshotMaxStepsRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-size simulated renames")
	}
	seed := renameSeeds(7, 1)[0]
	var steps []int64
	for i := 0; i < 2; i++ {
		r, err := publicRename(oneshotConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, r.res.MaxSteps)
	}
	if steps[0] != steps[1] {
		t.Fatalf("max_steps %d then %d for one seed", steps[0], steps[1])
	}
}

// dupPort grants name 3 on every acquire: a planted duplicate.
type dupPort struct{ releaseErr error }

func (dupPort) Acquire() (int, error) { return 3, nil }
func (dupPort) AcquireN(k int) ([]int, error) {
	out := make([]int, k)
	for i := range out {
		out[i] = 3
	}
	return out, nil
}
func (d dupPort) Release(int) error      { return d.releaseErr }
func (d dupPort) ReleaseAll([]int) error { return d.releaseErr }

func TestOracleCatchesPlantedDuplicate(t *testing.T) {
	ws := newWorkers(2)
	o := newOracle(16)
	if _, _, err := fill([]port{dupPort{}, dupPort{}}, ws, o, 2); err == nil || !strings.Contains(err.Error(), "duplicate grant") {
		t.Fatalf("fill with a duplicating target: got %v, want a duplicate grant", err)
	}
	// The same through the closed loop: worker 0 holds 3, so worker 1's
	// replacement acquire is a duplicate.
	ws, o = newWorkers(2), newOracle(16)
	if !ws[0].granted(o, 3) || !ws[1].granted(o, 5) {
		t.Fatal("seeding the holders failed")
	}
	ports := []port{dupPort{}, dupPort{}}
	runClosed(ports, ws[1:], o, churnStep([][]uint32{{0}, {0}}), 4, 0)
	if err := o.failed(); err == nil || !strings.Contains(err.Error(), "duplicate grant") {
		t.Fatalf("closed loop with a duplicating target: got %v, want a duplicate grant", err)
	}
}

func TestOracleChecksBoundsAndReleases(t *testing.T) {
	o := newOracle(4)
	if o.grant(0, 4) || o.failed() == nil {
		t.Error("a name at NameBound was accepted")
	}
	o = newOracle(4)
	if o.free(1, 2) || o.failed() == nil {
		t.Error("a release of a name nobody holds was accepted")
	}
	ws, o := newWorkers(1), newOracle(16)
	ws[0].granted(o, 3)
	boom := errors.New("boom")
	if ws[0].release(dupPort{releaseErr: boom}, o, 0, 1, true) || !errors.Is(o.failed(), boom) {
		t.Errorf("an unexpected Release error was not reported: %v", o.failed())
	}
}

func TestHistQuantiles(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 100_000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := h.quantile(q), q*100_000
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%.2f = %.1f, want about %.0f", q, got, want)
		}
	}
	if f := h.fractionAtMost(50_000); math.Abs(f-0.5) > 0.01 {
		t.Errorf("fractionAtMost(50000) = %.3f, want about 0.5", f)
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func checkMetrics(t *testing.T, what string, out *outcome, want map[string]string, nonzero bool) {
	t.Helper()
	if out.err != nil {
		t.Fatalf("%s: %v", what, out.err)
	}
	for name, unit := range want {
		m, ok := out.metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s in %q, declared %q", what, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (nonzero && m.Value <= 0):
			t.Errorf("%s: metric %s = %v", what, name, m.Value)
		}
	}
	if len(out.metrics) != len(want) {
		t.Errorf("%s: %d metrics, %d declared", what, len(out.metrics), len(want))
	}
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	e2e, layers := declared(t)
	for name, w := range workloads {
		if name == "oneshot_sim" && testing.Short() {
			continue
		}
		t.Run(name, func(t *testing.T) {
			checkMetrics(t, "untraced", w.e2e(1, 1), e2e, !raceEnabled)
			checkMetrics(t, "traced", w.traced(1, 1), layers, false)
		})
	}
}
