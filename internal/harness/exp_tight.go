package harness

import (
	"fmt"

	"shmrename/internal/core"
	"shmrename/internal/metrics"
	"shmrename/internal/sched"
)

// expE2 validates Theorem 5: tight renaming in O(log n) steps w.h.p.
func expE2() Experiment {
	return Experiment{
		ID:    "E2",
		Title: "Theorem 5: tight renaming step complexity",
		Claim: "n processes -> n names; max steps = O(log n) w.h.p.",
		Run: func(cfg Config) []*metrics.Table {
			tab := metrics.NewTable("E2 tight renaming step complexity",
				"n", "log2 n", "rounds R", "steps p50", "steps p90",
				"steps max", "steps mean", "all named", "fallback frac")
			ns := cfg.sweep(pow2s(7, 12), pow2s(7, 16))
			var meanMax []float64
			for _, n := range ns {
				var fallback, total int64
				stats := make([]runStats, 0, cfg.trials())
				rounds := 0
				for t := 0; t < cfg.trials(); t++ {
					inst := core.NewTight(n, core.TightConfig{SelfClocked: true})
					rounds = inst.Geometry().Rounds()
					res := core.Simulate(inst, sched.Config{Seed: cfg.Seed + uint64(t), Fast: sched.FastFIFO})
					if err := sched.VerifyUnique(res, n); err != nil {
						panic(fmt.Sprintf("E2 trial %d: %v", t, err))
					}
					st := inst.Stats()
					fallback += st.Fallback
					total += int64(n)
					stats = append(stats, runStats{
						maxSteps: sched.MaxSteps(res),
						named:    sched.CountStatus(res, sched.Named),
					})
				}
				sum := metrics.Summarize(maxStepsOf(stats))
				meanMax = append(meanMax, sum.Mean)
				tab.AddRow(n, core.CeilLog2(n), rounds, sum.P50, sum.P90,
					sum.Max, sum.Mean, allNamed(stats, n),
					float64(fallback)/float64(total))
			}
			logFit := metrics.FitAgainst(ns, meanMax, metrics.ShapeLog)
			linFit := metrics.FitAgainst(ns, meanMax, metrics.ShapeLinear)
			fit := metrics.NewTable("E2 fit of mean max-steps", "shape", "fit")
			fit.AddRow("log2 n", fitRow(logFit, "log2 n"))
			fit.AddRow("n", fitRow(linFit, "n"))
			fit.Note = "Theorem 5 predicts the log2-n fit to dominate (R2 -> 1)"
			return []*metrics.Table{tab, fit}
		},
	}
}

// expE3 validates Theorem 5's space bound: O(n) extra TAS bits.
func expE3() Experiment {
	return Experiment{
		ID:    "E3",
		Title: "Theorem 5: auxiliary space",
		Claim: "the tau-register array uses O(n) extra space (~2n TAS bits)",
		Run: func(cfg Config) []*metrics.Table {
			tab := metrics.NewTable("E3 auxiliary space",
				"n", "devices", "width 2log n", "taux bits", "bits/n",
				"names", "util-reg bits", "rounds R")
			for _, n := range cfg.sweep(pow2s(7, 16), pow2s(7, 20)) {
				g := core.NewGeometry(n, 2, core.Corrected)
				// The counting device also carries 2 log n + 1 utility
				// registers of 2 log n bits each (§II.C), the "significant
				// hardware overhead of O(log n) additional registers".
				utilBits := g.NumDevices() * (g.Width + 1) * g.Width
				tab.AddRow(n, g.NumDevices(), g.Width, g.TotalBits(),
					float64(g.TotalBits())/float64(n), g.TotalNames(),
					utilBits, g.Rounds())
			}
			return []*metrics.Table{tab}
		},
	}
}

// expE12 contrasts the corrected geometry with the paper-literal cluster
// sizes, demonstrating the Definition 2 inconsistency (ALGORITHMS.md §3).
func expE12() Experiment {
	return Experiment{
		ID:    "E12",
		Title: "Geometry reconciliation: corrected vs paper-literal clusters",
		Claim: "literal c_i = n/(2c)^i clusters can name only ~n/(2(2c-1)) processes",
		Run: func(cfg Config) []*metrics.Table {
			tab := metrics.NewTable("E12 geometry comparison",
				"n", "geometry", "cluster capacity", "cluster wins frac",
				"fallback frac", "steps p50", "steps max", "all named")
			// The paper-literal geometry degrades to Θ(n) steps (that is
			// the finding), so its full sweep stays at 2^12 to keep the
			// simulated Θ(n²) total work tractable.
			for _, n := range cfg.sweep(pow2s(8, 11), pow2s(8, 12)) {
				for _, kind := range []core.GeometryKind{core.Corrected, core.PaperLiteral} {
					var clusterWins, fallbackWins int64
					var capFrac float64
					stats := make([]runStats, 0, cfg.trials())
					for t := 0; t < cfg.trials(); t++ {
						inst := core.NewTight(n, core.TightConfig{
							Geometry: kind, SelfClocked: true,
						})
						capFrac = float64(inst.Geometry().ClusterNames) / float64(n)
						res := core.Simulate(inst, sched.Config{Seed: cfg.Seed + uint64(t), Fast: sched.FastFIFO})
						if err := sched.VerifyUnique(res, n); err != nil {
							panic(fmt.Sprintf("E12 %v trial %d: %v", kind, t, err))
						}
						st := inst.Stats()
						clusterWins += st.ClusterTotal
						fallbackWins += st.Fallback
						stats = append(stats, runStats{
							maxSteps: sched.MaxSteps(res),
							named:    sched.CountStatus(res, sched.Named),
						})
					}
					total := float64(clusterWins + fallbackWins)
					sum := metrics.Summarize(maxStepsOf(stats))
					tab.AddRow(n, kind.String(), capFrac,
						float64(clusterWins)/total, float64(fallbackWins)/total,
						sum.P50, sum.Max, allNamed(stats, n))
				}
			}
			return []*metrics.Table{tab}
		},
	}
}
