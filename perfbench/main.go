// Command perfbench is the renaming stack's benchmark: one driver that runs
// a workload through the public API at GOMAXPROCS = nproc, checks every
// grant against a shadow owner table, and prints every end-to-end metric
// by name and unit — or, with -trace 1, replays the workload against a
// ladder of layer rungs and prints the per-layer metrics.
//
//	go run . -workload churn_tight -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Lines before it are a human-readable report. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run returns: its metrics, the acquire
// counts over the measured window, and the first correctness violation.
type outcome struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	err       error
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// workloads maps each workload to its untraced and traced runs.
var workloads = map[string]struct {
	e2e, traced func(seed uint64, secs float64) *outcome
}{
	"churn_tight":  {e2e: churnE2E, traced: churnTraced},
	"burst_cached": {e2e: burstE2E, traced: burstTraced},
	"ramp_elastic": {e2e: rampE2E, traced: rampTraced},
	"oneshot_sim":  {e2e: oneshotE2E, traced: oneshotTraced},
}

// nWorkers is the closed-loop worker count: two, or fewer when the
// machine has fewer CPUs.
func nWorkers() int { return min(2, runtime.GOMAXPROCS(0)) }

// report prints one line of the human-readable report.
func report(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }

func main() {
	name := flag.String("workload", "", "workload: churn_tight, burst_cached, ramp_elastic or oneshot_sim")
	seed := flag.Uint64("seed", 1, "workload seed: every generated input derives from it")
	secs := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced layer ladder and prints the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	printEnv(*name, *seed, *secs, *trace)
	run := w.e2e
	if *trace == 1 {
		run = w.traced
	}
	start := time.Now()
	out := run(*seed, *secs)
	report("wall %.3f s", time.Since(start).Seconds())
	if out.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, out.err)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.err == nil, max(out.attempted, 1), out.failed, out.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if out.err != nil {
		os.Exit(1)
	}
}

// printEnv records the environment a run measured.
func printEnv(name string, seed uint64, secs float64, trace int) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	report("env workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d closed_loop_workers=%d open_loop_workers=%d go=%s cpu=%q",
		name, seed, secs, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), nWorkers(), openWorkers, runtime.Version(), cpu)
}

// mean returns the mean of xs (0 for none).
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
