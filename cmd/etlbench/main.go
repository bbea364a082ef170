// Command etlbench regenerates the paper's evaluation: Table 1 (quality of
// solution), Table 2 (visited states / improvement / execution time) and
// the §4.2 prose claims, over a synthetic reproduction of the 40-workflow
// suite. It also regenerates the Fig. 4 cost arithmetic on demand.
//
// Usage:
//
//	etlbench                 # full suite (40 workflows), both tables + claims
//	etlbench -counts 4,3,3   # a quicker suite
//	etlbench -fig4           # only the Fig. 4 cost cases
//	etlbench -verify         # also validate every optimized workflow on data
//	etlbench -expand FILE    # incremental-vs-full-clone expansion baseline
//	etlbench -engine FILE    # partition-parallel engine baseline (BENCH_engine.json)
//	etlbench -engine FILE -faults 42:0.05
//	                         # same baseline under deterministic chaos: faults
//	                         # injected into the parallel runs, retried, and
//	                         # still required bit-identical to materialized
//	etlbench -shared FILE    # shared-work suite scheduler baseline
//	                         # (BENCH_shared.json): shared-prefix suites run
//	                         # independently and as one RunSuite job, required
//	                         # bit-identical, savings and speedup recorded
//	etlbench -compare OLD NEW [-tolerance 0.2]
//	                         # perf-regression gate over two baseline reports
//	                         # (BENCH_expand.json / BENCH_engine.json schema):
//	                         # exits nonzero when NEW's throughput falls more
//	                         # than the tolerance below OLD, or when NEW lost
//	                         # bit-identity
//
// Flag vocabulary (shared across etlrun, etlopt and etlbench): -workers
// controls optimizer search parallelism, while -partitions controls engine
// data parallelism — the counts each recordset is split into by the
// partition-parallel engine (-engine, and Table 2's exec columns).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"etlopt/internal/analysis"
	"etlopt/internal/core"
	"etlopt/internal/cost"
	"etlopt/internal/dsl"
	"etlopt/internal/experiments"
	"etlopt/internal/generator"
	"etlopt/internal/obs"
	"etlopt/internal/stats"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "etlbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		counts    = flag.String("counts", "14,13,13", "workflows per category: small,medium,large")
		seed      = flag.Int64("seed", 20050405, "base random seed (ICDE 2005 started April 5)")
		esBudget  = flag.Int("esbudget", 60_000, "ES state budget per workflow")
		hsBudget  = flag.Int("hsbudget", 30_000, "HS state budget per workflow")
		workers   = flag.Int("workers", 0, "optimizer search parallelism (0 = all CPUs, 1 = sequential; same results either way)")
		partsFlag = flag.String("partitions", "", "engine data parallelism: comma-separated partition counts (e.g. 1,2,4,8); adds parallel exec columns to Table 2 and sets the -engine measurement points")
		dataRows  = flag.Int("datarows", 0, "records generated per source for -engine (0 = 8000)")
		engineOut = flag.String("engine", "", "run the partition-parallel engine baseline over the suite, write the JSON report here, and exit")
		sharedOut = flag.String("shared", "", "run the shared-work suite scheduler baseline (-counts suites per category of -suitesize shared-prefix workflows), write the JSON report here, and exit")
		suiteSize = flag.Int("suitesize", 3, "workflows per shared suite for -shared")
		faults    = flag.String("faults", "", "arm deterministic fault injection on -engine's parallel runs as seed:rate (e.g. 42:0.05); transient faults are retried and bit-identity is still required")
		verify    = flag.Bool("verify", false, "validate every optimized workflow on generated data")
		fig4      = flag.Bool("fig4", false, "print only the Fig. 4 cost cases")
		ablations = flag.Bool("ablations", false, "run the DESIGN.md ablation studies and exit")
		expand    = flag.String("expand", "", "run the incremental-vs-full-clone expansion baseline over the suite, write the JSON report here, and exit")
		lintOnly  = flag.Bool("lint", false, "run the design checks over the generated suite and exit (warnings exit nonzero)")
		quiet     = flag.Bool("quiet", false, "suppress per-workflow progress")
		metrics   = flag.String("metrics", "", "write a JSON metrics snapshot of the whole suite here (auditable with etlvet metrics)")
		debugAddr = flag.String("debug-addr", "", "serve a live status page, /metrics (Prometheus) and /metrics.json on this address during the run")
		journal   = flag.String("journal", "", "record a structured run journal of the whole suite here (JSONL flight recorder, auditable with etlvet obs)")
		traceOut  = flag.String("trace-out", "", "write the suite's span tree as Chrome/Perfetto trace-event JSON here")
		compare   = flag.String("compare", "", "regression gate: compare the OLD baseline report named here against the NEW report given as the positional argument")
		tolerance = flag.Float64("tolerance", 0.2, "allowed fractional throughput drop for -compare (0.2 = 20%)")
	)
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			return fmt.Errorf("-compare OLD needs exactly one positional argument: the NEW report (got %d)", flag.NArg())
		}
		return compareReports(*compare, flag.Arg(0), *tolerance)
	}
	if *fig4 {
		printFig4()
		return nil
	}
	if *ablations {
		return runAblations(*seed)
	}

	parts := strings.Split(*counts, ",")
	if len(parts) != 3 {
		return fmt.Errorf("-counts wants three comma-separated numbers, got %q", *counts)
	}
	countMap := map[generator.Category]int{}
	for i, cat := range []generator.Category{generator.Small, generator.Medium, generator.Large} {
		n, err := strconv.Atoi(strings.TrimSpace(parts[i]))
		if err != nil {
			return fmt.Errorf("-counts: %v", err)
		}
		countMap[cat] = n
	}

	partitions, err := parsePartitions(*partsFlag)
	if err != nil {
		return err
	}

	if *lintOnly {
		return lintSuite(countMap, *seed)
	}
	if *expand != "" {
		return runExpand(*expand, countMap, *seed, *hsBudget, !*quiet)
	}
	if *engineOut != "" {
		return runEngine(*engineOut, countMap, *seed, partitions, *dataRows, *faults, !*quiet)
	}
	if *sharedOut != "" {
		return runShared(*sharedOut, countMap, *seed, *suiteSize, *dataRows, *workers, !*quiet)
	}
	if *faults != "" {
		return fmt.Errorf("-faults only applies to the -engine baseline")
	}

	cfg := experiments.SuiteConfig{
		Seed:       *seed,
		Counts:     countMap,
		ESBudget:   *esBudget,
		HSBudget:   *hsBudget,
		Workers:    *workers,
		Partitions: partitions,
		Verify:     *verify,
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	if *metrics != "" || *debugAddr != "" || *traceOut != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	var jnl *obs.Journal
	if *journal != "" {
		jnl, err = obs.NewJournalFile(*journal, cfg.Metrics)
		if err != nil {
			return err
		}
		defer jnl.Close()
		cfg.Journal = jnl
	}
	if *debugAddr != "" {
		bound, stopSrv, err := obs.Serve(*debugAddr, cfg.Metrics)
		if err != nil {
			return err
		}
		defer stopSrv()
		fmt.Fprintf(os.Stderr, "debug server on http://%s (/, /metrics, /metrics.json)\n", bound)
	}
	results, err := experiments.RunSuite(context.Background(), cfg)
	if err != nil {
		return err
	}
	if *metrics != "" {
		if err := cfg.Metrics.Snapshot().WriteJSONFile(*metrics); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "metrics snapshot written to %s\n", *metrics)
	}
	if jnl != nil {
		if err := jnl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "etlbench: journal:", err)
		}
		fmt.Fprintf(os.Stderr, "run journal written to %s (%d events, %d dropped)\n",
			*journal, jnl.Written(), jnl.Dropped())
	}
	if *traceOut != "" {
		if err := cfg.Metrics.Snapshot().WriteTraceEventsFile(*traceOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace events written to %s (load in Perfetto or chrome://tracing)\n", *traceOut)
	}

	fmt.Println("Table 1: quality of solution (avg % of best-ES improvement)")
	fmt.Println(experiments.Table1(results))
	fmt.Println("Table 2: execution time, number of visited states and improvement wrt the initial state")
	fmt.Println(experiments.Table2(results))
	fmt.Println("§4.2 claims:")
	fmt.Println(experiments.Claims(results))
	return nil
}

// runExpand records the incremental-expansion baseline: the HS search over
// the whole suite in the shipped incremental mode and the full-clone
// baseline at Workers ∈ {1, 4}. Every scenario's four runs must agree
// bit-for-bit (best cost, best signature, visited/generated counts) — the
// determinism contract of DESIGN.md §7 — and the aggregate throughput of
// the two modes lands in the JSON report (BENCH_expand.json in CI).
func runExpand(path string, counts map[generator.Category]int, seed int64, hsBudget int, progress bool) error {
	cfg := experiments.SuiteConfig{Seed: seed, Counts: counts, HSBudget: hsBudget}
	if progress {
		cfg.Progress = os.Stderr
	}
	rep, err := experiments.ExpandBench(context.Background(), cfg)
	if err != nil {
		return err
	}
	rep.Summary(os.Stdout)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "expand baseline written to %s\n", path)
	return nil
}

// parsePartitions parses the -partitions flag ("" means unset).
func parsePartitions(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("-partitions wants comma-separated counts >= 1, got %q", s)
		}
		out = append(out, p)
	}
	return out, nil
}

// runEngine records the partition-parallel engine baseline: the full suite
// with scaled-up data executed materialized and at each partition count,
// every parallel run verified bit-identical, with the wall clocks landing
// in the JSON report (BENCH_engine.json in CI).
func runEngine(path string, counts map[generator.Category]int, seed int64, partitions []int, dataRows int, faultSpec string, progress bool) error {
	cfg := experiments.SuiteConfig{
		Seed: seed, Counts: counts, Partitions: partitions, DataRows: dataRows,
		FaultSpec: faultSpec,
	}
	if progress {
		cfg.Progress = os.Stderr
	}
	rep, err := experiments.EngineBench(context.Background(), cfg)
	if err != nil {
		return err
	}
	rep.Summary(os.Stdout)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "engine baseline written to %s\n", path)
	return nil
}

// runShared records the shared-work suite scheduler baseline: shared-prefix
// suites executed independently and as one RunSuite job, every member
// verified bit-identical between the two, with node/byte savings and the
// wall-clock speedup landing in the JSON report (BENCH_shared.json in CI).
func runShared(path string, counts map[generator.Category]int, seed int64, suiteSize, dataRows, workers int, progress bool) error {
	cfg := experiments.SharedConfig{
		Seed: seed, Counts: counts, SuiteSize: suiteSize,
		DataRows: dataRows, Workers: workers,
	}
	if progress {
		cfg.Progress = os.Stderr
	}
	rep, err := experiments.SharedBench(context.Background(), cfg)
	if err != nil {
		return err
	}
	rep.Summary(os.Stdout)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "shared-work baseline written to %s\n", path)
	return nil
}

// benchReport is the union of the BENCH_expand.json, BENCH_engine.json and
// BENCH_shared.json schemas, reduced to the fields the regression gate
// reads. Metrics absent from a report decode to zero and are skipped.
type benchReport struct {
	AllIdentical            *bool     `json:"all_identical"`
	IncrementalStatesPerSec float64   `json:"incremental_states_per_sec"`
	FullCloneStatesPerSec   float64   `json:"full_clone_states_per_sec"`
	MaterializedRowsPerSec  float64   `json:"materialized_rows_per_sec"`
	Partitions              []int     `json:"partitions"`
	ParallelRowsPerSec      []float64 `json:"parallel_rows_per_sec"`
	SharedRowsPerSec        float64   `json:"shared_rows_per_sec"`
	SharedSpeedup           float64   `json:"shared_speedup"`
	RecomputationSavedBytes float64   `json:"recomputation_saved_bytes"`
}

func readBenchReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports is the perf-regression gate: it reads two baseline
// reports sharing a schema (BENCH_expand.json or BENCH_engine.json),
// prints a per-metric comparison, and fails when any throughput metric
// that was nonzero in OLD drops more than the tolerance in NEW, or when
// NEW lost the bit-identity the baselines assert. Parallel throughput
// entries are matched by partition count, so the two reports may
// measure different partition sets.
func compareReports(oldPath, newPath string, tol float64) error {
	if tol < 0 || tol >= 1 {
		return fmt.Errorf("-tolerance wants a fraction in [0, 1), got %v", tol)
	}
	old, err := readBenchReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := readBenchReport(newPath)
	if err != nil {
		return err
	}

	type metric struct {
		name     string
		old, cur float64
	}
	ms := []metric{
		{"incremental_states_per_sec", old.IncrementalStatesPerSec, cur.IncrementalStatesPerSec},
		{"full_clone_states_per_sec", old.FullCloneStatesPerSec, cur.FullCloneStatesPerSec},
		{"materialized_rows_per_sec", old.MaterializedRowsPerSec, cur.MaterializedRowsPerSec},
		{"shared_rows_per_sec", old.SharedRowsPerSec, cur.SharedRowsPerSec},
		{"shared_speedup", old.SharedSpeedup, cur.SharedSpeedup},
		{"recomputation_saved_bytes", old.RecomputationSavedBytes, cur.RecomputationSavedBytes},
	}
	curParallel := map[int]float64{}
	for i, p := range cur.Partitions {
		if i < len(cur.ParallelRowsPerSec) {
			curParallel[p] = cur.ParallelRowsPerSec[i]
		}
	}
	for i, p := range old.Partitions {
		if i >= len(old.ParallelRowsPerSec) {
			break
		}
		if v, ok := curParallel[p]; ok {
			ms = append(ms, metric{fmt.Sprintf("parallel_rows_per_sec[p=%d]", p), old.ParallelRowsPerSec[i], v})
		}
	}

	var regressions []string
	t := stats.NewTable("metric", "old", "new", "change", "verdict")
	compared := 0
	for _, m := range ms {
		if m.old <= 0 {
			continue
		}
		compared++
		change := (m.cur - m.old) / m.old
		verdict := "ok"
		if m.cur < m.old*(1-tol) {
			verdict = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s fell %.1f%% (%.0f -> %.0f, tolerance %.0f%%)",
					m.name, -100*change, m.old, m.cur, 100*tol))
		}
		t.AddRow(m.name, fmt.Sprintf("%.0f", m.old), fmt.Sprintf("%.0f", m.cur),
			fmt.Sprintf("%+.1f%%", 100*change), verdict)
	}
	if compared == 0 {
		return fmt.Errorf("%s and %s share no nonzero throughput metrics — not the same report kind?", oldPath, newPath)
	}
	fmt.Print(t.String())
	if cur.AllIdentical != nil && !*cur.AllIdentical {
		regressions = append(regressions, "NEW report lost bit-identity (all_identical=false)")
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d regression(s):\n  %s", len(regressions), strings.Join(regressions, "\n  "))
	}
	fmt.Printf("no regressions: %d metric(s) within %.0f%% of %s\n", compared, 100*tol, oldPath)
	return nil
}

// lintSuite runs the workflow design checks over every generated suite
// workflow, sharing the same finding output and exit-code semantics as
// `etlopt -lint` and `etlrun -lint`: warnings exit nonzero, advice does
// not.
func lintSuite(counts map[generator.Category]int, seed int64) error {
	warnings := 0
	for _, cat := range []generator.Category{generator.Small, generator.Medium, generator.Large} {
		n := counts[cat]
		if n == 0 {
			continue
		}
		scenarios, err := generator.Suite(cat, n, seed+int64(cat)*104729)
		if err != nil {
			return err
		}
		for i, sc := range scenarios {
			fmt.Printf("%s #%02d:\n", cat, i+1)
			w, err := analysis.RunLint(os.Stdout, sc.Graph, dsl.NodeNames(sc.Graph))
			if err != nil {
				return fmt.Errorf("%s workflow %d: %w", cat, i+1, err)
			}
			warnings += w
		}
	}
	if warnings > 0 {
		return fmt.Errorf("%d warning(s)", warnings)
	}
	return nil
}

// printFig4 reproduces the Fig. 4 example: the cost of the original,
// distributed and factorized placements of a selection and surrogate-key
// assignment around a union, both with the paper's literal formulas
// (c1=56, c2=32, c3=24 at n=8) and under this library's cost model.
func printFig4() {
	const n = 8.0
	log2 := func(x float64) float64 {
		if x <= 1 {
			return 0
		}
		l := 0.0
		for v := x; v > 1; v /= 2 {
			l++
		}
		return l
	}
	fmt.Println("Fig. 4 paper arithmetic (n=8, σ sel 50%, cost(SK)=n·log2 n, cost(σ)=n):")
	fmt.Printf("  c1 = 2n·log2(n) + n            = %.0f (paper: 56)\n", 2*n*log2(n)+n)
	fmt.Printf("  c2 = 2(n + (n/2)·log2(n/2))    = %.0f (paper: 32)\n", 2*(n+(n/2)*log2(n/2)))
	fmt.Printf("  c3 = 2n + (n/2)·log2(n/2)      = %.0f (paper: 24)\n", 2*n+(n/2)*log2(n/2))

	fmt.Println("\nThis library's RowModel on the three Fig. 4 workflows:")
	t := stats.NewTable("case", "total cost")
	for _, c := range []struct {
		name string
		kind templates.Fig4Case
	}{
		{"original (SK per branch, σ once)", templates.Fig4Original},
		{"distributed (σ pushed into both branches)", templates.Fig4Distributed},
		{"factorized (one SK after the union)", templates.Fig4Factorized},
	} {
		g := templates.Fig4Workflow(c.kind, n)
		costing, err := cost.Evaluate(g, cost.RowModel{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig4:", err)
			return
		}
		t.AddRow(c.name, costing.Total)
	}
	fmt.Print(t.String())
	fmt.Println("Both rewrites price below the original, matching the figure's conclusion that DIS and FAC reduce state cost.")
}

// runAblations executes the DESIGN.md ablation studies (A1-A4) on fixed
// seeds and prints one table per study. BenchmarkAblation* provide the
// same measurements as testing.B benchmarks; this command trades
// statistical rigor for a readable one-shot report.
func runAblations(seed int64) error {
	fmt.Println("A1 — signature dedup (ES on Fig. 1, 5000-state budget)")
	t := stats.NewTable("variant", "generated", "distinct", "terminated", "improvement %")
	for _, v := range []struct {
		name    string
		disable bool
	}{{"with dedup", false}, {"without dedup", true}} {
		res, err := core.Exhaustive(context.Background(), templates.Fig1Workflow(), core.Options{
			MaxStates: 5000, IncrementalCost: true, DisableDedup: v.disable,
		})
		if err != nil {
			return err
		}
		t.AddRow(v.name, res.Generated, res.Visited, fmt.Sprint(res.Terminated),
			fmt.Sprintf("%.1f", res.Improvement()))
	}
	fmt.Println(t)

	sc, err := generator.Generate(generator.CategoryConfig(generator.Medium, seed))
	if err != nil {
		return err
	}

	fmt.Println("A2 — semi-incremental costing (HS, medium workflow, 4000-state budget)")
	t = stats.NewTable("variant", "time", "improvement %")
	for _, v := range []struct {
		name string
		inc  bool
	}{{"incremental", true}, {"full recomputation", false}} {
		start := time.Now()
		res, err := core.Heuristic(context.Background(), sc.Graph, core.Options{MaxStates: 4000, IncrementalCost: v.inc})
		if err != nil {
			return err
		}
		t.AddRow(v.name, time.Since(start).Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", res.Improvement()))
	}
	fmt.Println(t)

	fmt.Println("A3 — HS Phase I (medium workflow, 6000-state budget)")
	t = stats.NewTable("variant", "improvement %", "visited")
	for _, v := range []struct {
		name    string
		disable bool
	}{{"with Phase I", false}, {"without Phase I", true}} {
		res, err := core.Heuristic(context.Background(), sc.Graph, core.Options{
			MaxStates: 6000, IncrementalCost: true, DisablePhaseI: v.disable,
		})
		if err != nil {
			return err
		}
		t.AddRow(v.name, fmt.Sprintf("%.1f", res.Improvement()), res.Visited)
	}
	fmt.Println(t)

	fmt.Println("A4 — merge constraints (HS on Fig. 1; $2€ and A2E packaged)")
	g := templates.Fig1Workflow()
	var d2e, a2e workflow.NodeID
	for _, id := range g.Activities() {
		a := g.Node(id).Act
		if a.Sem.Op == workflow.OpFunc && a.Sem.DropArgs {
			d2e = id
		}
		if a.Sem.Op == workflow.OpFunc && a.InPlace() {
			a2e = id
		}
	}
	t = stats.NewTable("variant", "improvement %", "visited")
	for _, v := range []struct {
		name  string
		pairs [][2]workflow.NodeID
	}{
		{"unconstrained", nil},
		{"merge constrained", [][2]workflow.NodeID{{d2e, a2e}}},
	} {
		res, err := core.Heuristic(context.Background(), g, core.Options{IncrementalCost: true, MergeConstraints: v.pairs})
		if err != nil {
			return err
		}
		t.AddRow(v.name, fmt.Sprintf("%.1f", res.Improvement()), res.Visited)
	}
	fmt.Println(t)
	fmt.Println("(A5, engine modes, is retired: the engine has one node loop; see BenchmarkEngine.)")
	return nil
}
