package main

// The baseline gates behind every -benchN-against flag. Each bench file
// turns into gated cells; a fresh file's cells are checked against the
// baseline file's cells of the same metric and key with one rule, bounded
// per (bench, metric) by the gates table. PERF.md §"Baseline gates"
// mirrors the table.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// cell is one gated value of a bench file. The key names the
// configuration the value was measured at, including GOMAXPROCS for
// native cells, so a cell only ever compares with its own configuration.
type cell struct {
	metric string
	key    string
	value  float64
}

// benchFile is a bench JSON document with gated cells.
type benchFile interface {
	cells() []cell
}

// gate bounds one metric of one bench: a cell regresses iff
// cur > base*(1+tol) + slack.
type gate struct {
	bench  string
	metric string
	tol    float64
	slack  float64
}

// stepsTolerance is the allowed relative growth of steps/proc-max against
// a baseline trajectory before -bench1-against reports a regression. Steps
// are deterministic per seed, but the per-point mean is taken over however
// many iterations testing.Benchmark chooses, so a small slack absorbs the
// seed-set difference; a real regression (an extra probe round, a broken
// fallback) moves the metric far beyond it.
const stepsTolerance = 0.05

// bench2StepsTolerance is the allowed relative growth of steps/acquire
// against a baseline trajectory before -bench2-against reports a
// regression. Steps are deterministic per seed, but the per-point mean is
// taken over however many iterations testing.Benchmark chooses, so the
// slack absorbs the seed-set difference; the regression class this gate
// exists for — an extra probe round, a broken fallback, a word path
// accidentally wired into the canonical probe workload — moves the metric
// tens of percent.
const bench2StepsTolerance = 0.10

// bench3StepsTolerance and bench3StepsSlack bound the allowed growth of
// native steps/acquire against a baseline. Native step counts depend on
// how the scheduler interleaves the churn (core count, load), so the
// bounds are generous — near-full occupancy the absolute values are small,
// and the regression class this gate catches (a disabled fast path, an
// extra scan round) multiplies the metric rather than nudging it.
const (
	bench3StepsTolerance = 0.35
	bench3StepsSlack     = 1.0
)

// bench5P99Tolerance and bench5P99Slack bound the allowed growth of a p99
// cell against a baseline. Open-loop p99 folds in queueing and scheduler
// jitter, so the bounds are deliberately loose — the regression class this
// gate catches (a disabled fast path, an accidental lock on the acquire
// path) shifts p99 by an order of magnitude, not 50%.
const (
	bench5P99Tolerance = 2.0
	bench5P99Slack     = 200_000 // ns
)

// bench6StepsTolerance and bench6StepsSlack bound the allowed growth of a
// diurnal steps/acquire cell against a baseline. Native scheduling decides
// how much of each phase's demand actually overlaps, so occupancy — and
// with it the probe cost — wobbles more than the simulated BENCH_2 sweeps;
// the gate still catches the structural failure class (a lost floor hint,
// a ladder that stops draining) which multiplies steps rather than nudging
// them.
const (
	bench6StepsTolerance = 0.5
	bench6StepsSlack     = 2.0
)

// bench6StormTolerance and bench6StormSlack bound the storm p99, both
// in-run against the quiet run of the identical workload and against a
// baseline's storm p99. Forced resizes add revalidation bounces and drain
// scans, and wall-clock p99 folds in scheduler jitter, so the bound is
// loose — the failure class it catches is a resize that blocks acquires
// (lock-like stalls shift p99 by orders of magnitude).
const (
	bench6StormTolerance = 3.0
	bench6StormSlack     = 500_000 // ns
)

// gates is every baseline gate. Wall clock outside the p99 cells is never
// gated: CI machines vary.
var gates = []gate{
	{"bench1", "steps/proc-max", stepsTolerance, 0},
	{"bench2", "steps/acquire", bench2StepsTolerance, 0},
	{"bench3", "steps/acquire", bench3StepsTolerance, bench3StepsSlack},
	{"bench5", "p99", bench5P99Tolerance, bench5P99Slack},
	{"bench6", "steps/acquire", bench6StepsTolerance, bench6StepsSlack},
	{"bench6", "storm p99", bench6StormTolerance, bench6StormSlack},
}

// checkBaseline reads the baseline file at path and checks cur's gated
// cells against it under the bench's gates. A baseline cell of value zero
// is not comparable; comparing no cell at all is an error. It returns how
// many cells it compared.
func checkBaseline[F benchFile](bench string, cur F, path string) (int, error) {
	var base F
	if err := readJSON(path, &base); err != nil {
		return 0, fmt.Errorf("%s: baseline: %w", bench, err)
	}
	type id struct{ metric, key string }
	baseCells := base.cells()
	baseline := map[id]float64{}
	for _, c := range baseCells {
		if c.value != 0 {
			baseline[id{c.metric, c.key}] = c.value
		}
	}
	curCells := cur.cells()
	var regressions []string
	compared := 0
	for _, g := range gates {
		if g.bench != bench {
			continue
		}
		for _, c := range curCells {
			b, ok := baseline[id{c.metric, c.key}]
			if c.metric != g.metric || !ok {
				continue
			}
			compared++
			if c.value > b*(1+g.tol)+g.slack {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %s %.2f exceeds baseline %.2f beyond %.0f%%+%g",
					c.key, c.metric, c.value, b, g.tol*100, g.slack))
			}
			fmt.Fprintf(os.Stderr, "%s: %s: %s %.2f vs baseline %.2f\n", bench, c.key, c.metric, c.value, b)
		}
	}
	if compared == 0 {
		msg := fmt.Sprintf("%s: no overlapping cells between measurement and baseline %s", bench, path)
		if len(curCells) > 0 && len(baseCells) > 0 {
			msg += fmt.Sprintf(" (measured %q, baseline %q)", curCells[0].key, baseCells[0].key)
		}
		return 0, errors.New(msg)
	}
	if len(regressions) > 0 {
		msg := fmt.Sprintf("%s: regressed vs %s", bench, path)
		for _, r := range regressions {
			msg += "\n  " + r
		}
		return 0, errors.New(msg)
	}
	fmt.Fprintf(os.Stderr, "%s: %d cells within tolerance of baseline %s\n", bench, compared, path)
	return compared, nil
}

// readJSON decodes the JSON file at path into v.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return nil
}

// writeJSON writes v to path as indented JSON with a trailing newline.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// probeWritable creates the output file at path, so an unwritable path
// fails before a generator spends minutes measuring.
func probeWritable(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	return f.Close()
}
