// Command renamebench regenerates the paper-reproduction experiments
// E1-E21 (see ALGORITHMS.md §6) and prints their report
// tables.
//
// Usage:
//
//	renamebench -list
//	renamebench -exp E2,E4 -trials 31 -seed 1
//	renamebench -exp all -full -csv out/
//
// -full widens every n-sweep to report scale (minutes of runtime);
// without it a quick sweep runs in seconds per experiment.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"shmrename/internal/harness"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiments and exit")
		exp     = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		trials  = flag.Int("trials", harness.DefaultTrials, "seeded trials per parameter point")
		seed    = flag.Uint64("seed", 1, "base seed")
		full    = flag.Bool("full", false, "full report-scale sweeps")
		csvDir  = flag.String("csv", "", "also write each table as CSV into this directory")
		bench1  = flag.String("bench1", "", "write the BENCH_1.json perf trajectory to this path and exit")
		bench1N = flag.Int("bench1-maxexp", 20, "largest log2(n) for -bench1 sweeps")
		bench1A = flag.String("bench1-against", "", "baseline BENCH_1.json to compare -bench1 results against; exits nonzero on steps/proc-max regression")
		bench2  = flag.String("bench2", "", "write the BENCH_2.json churn trajectory to this path and exit")
		bench2N = flag.Int("bench2-maxexp", 14, "largest log2(n) for -bench2 sweeps")
		bench2A = flag.String("bench2-against", "", "baseline BENCH_2.json to compare -bench2 results against; exits nonzero on steps/acquire regression")
		bench3  = flag.String("bench3", "", "write the BENCH_3.json native sharded-scalability sweep to this path and exit")
		bench3G = flag.Int("bench3-maxg", 64, "largest goroutine count for -bench3 sweeps (x4 from 4)")
		bench3A = flag.String("bench3-against", "", "baseline BENCH_3.json to compare -bench3 results against; exits nonzero on steps/acquire regression")
		bench4  = flag.String("bench4", "", "write the BENCH_4.json word-engine trajectory to this path and exit")
		bench4G = flag.Int("bench4-maxg", 64, "largest goroutine count for the -bench4 native sweep (x4 from 4)")
		bench5  = flag.String("bench5", "", "write the BENCH_5.json open-loop latency trajectory to this path and exit")
		bench5R = flag.Float64("bench5-rate", 200e3, "offered arrival rate (per second) for the -bench5 fixed-rate cells")
		bench5N = flag.Int("bench5-arrivals", 20000, "scheduled arrivals per -bench5 cell")
		bench5A = flag.String("bench5-against", "", "baseline BENCH_5.json to compare -bench5 results against; exits nonzero on p99 regression")
		bench6  = flag.String("bench6", "", "write the BENCH_6.json elastic diurnal trajectory to this path and exit")
		bench6C = flag.Int("bench6-cap", 4096, "arena capacity for the -bench6 diurnal sweep (power of two >= 1024)")
		bench6A = flag.String("bench6-against", "", "baseline BENCH_6.json to compare -bench6 results against; exits nonzero on steps/acquire or storm-p99 regression")
		recov   = flag.Bool("recovery-smoke", false, "run the native crash-recovery smoke (abandoned-lease reclaim on every backend + mmap reattach) and exit")
		chaosO  = flag.String("chaos", "", "run the E21 chaos matrix and write the accounting JSON to this path")
	)
	flag.Parse()

	if *recov {
		if err := runRecoverySmoke(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "renamebench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("recovery smoke passed")
		return
	}

	if *chaosO != "" {
		if err := runChaos(*chaosO, *seed, *trials); err != nil {
			fmt.Fprintf(os.Stderr, "renamebench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("chaos accounting written to %s\n", *chaosO)
		return
	}

	for _, b := range []struct {
		path *string
		what string
		run  func(path string) error
	}{
		{bench1, "bench1 trajectory", func(p string) error { return runBench1(p, *seed, *bench1N, *bench1A) }},
		{bench2, "bench2 churn trajectory", func(p string) error { return runBench2(p, *seed, *bench2N, *bench2A) }},
		{bench3, "bench3 native scalability sweep", func(p string) error { return runBench3(p, *seed, *bench3G, *bench3A) }},
		{bench4, "bench4 word-engine trajectory", func(p string) error { return runBench4(p, *seed, *bench4G) }},
		{bench5, "bench5 open-loop latency trajectory", func(p string) error { return runBench5(p, *seed, *bench5R, *bench5N, *bench5A) }},
		{bench6, "bench6 elastic diurnal trajectory", func(p string) error { return runBench6(p, *seed, *bench6C, *bench6A) }},
	} {
		if *b.path == "" {
			continue
		}
		if err := b.run(*b.path); err != nil {
			fmt.Fprintf(os.Stderr, "renamebench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s written to %s\n", b.what, *b.path)
		return
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	var selected []harness.Experiment
	if *exp == "all" {
		selected = harness.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			e, ok := harness.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "renamebench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	cfg := harness.Config{Trials: *trials, Seed: *seed, Full: *full}
	for _, e := range selected {
		start := time.Now()
		fmt.Printf("=== %s: %s\n", e.ID, e.Title)
		fmt.Printf("    claim: %s\n\n", e.Claim)
		tables := e.Run(cfg)
		for ti, tab := range tables {
			fmt.Println(tab.Render())
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					fmt.Fprintf(os.Stderr, "renamebench: %v\n", err)
					os.Exit(1)
				}
				name := fmt.Sprintf("%s_%d.csv", e.ID, ti)
				path := filepath.Join(*csvDir, name)
				if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "renamebench: %v\n", err)
					os.Exit(1)
				}
				fmt.Printf("(csv written to %s)\n\n", path)
			}
		}
		fmt.Printf("=== %s done in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
