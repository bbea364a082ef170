// Package experiments regenerates the paper's evaluation (§4.2): Table 1
// (quality of solution), Table 2 (visited states, improvement over the
// initial state, and execution time per algorithm and workflow category)
// and the section's prose claims. The workloads come from the generator's
// paper suite; every algorithm runs on the same scenarios, and optionally
// every optimized workflow is validated against the empirical equivalence
// oracle before being counted.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"etlopt/internal/core"
	"etlopt/internal/cost"
	"etlopt/internal/data"
	"etlopt/internal/engine"
	"etlopt/internal/equiv"
	"etlopt/internal/generator"
	"etlopt/internal/obs"
	"etlopt/internal/stats"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// AlgoRun reports one algorithm's performance on one workflow.
type AlgoRun struct {
	Visited     int
	Improvement float64 // % over the initial state
	Quality     float64 // % of the best ES improvement (Table 1)
	Seconds     float64
	Terminated  bool
	BestCost    float64
	InitialCost float64
}

// WorkflowResult reports all three algorithms on one workflow.
type WorkflowResult struct {
	Category    generator.Category
	Activities  int
	ES, HS, HSG AlgoRun
	// ExecSeconds is the wall clock of executing the initial workflow on
	// its generated data through the materialized engine (Table 2's
	// "exec s" column).
	ExecSeconds float64
	// ParExec maps a partition count to the wall clock of the same
	// execution through the partition-parallel engine (populated when
	// SuiteConfig.Partitions is set).
	ParExec map[int]float64
	// SelDrift is the scenario's cost-model drift: the mean absolute
	// difference between each activity's modeled selectivity and the
	// selectivity observed when the workflow ran on its generated data
	// (cost.MeanAbsSelDelta). High drift means the optimizer searched
	// under estimates that execution contradicts.
	SelDrift float64
	// Verified reports whether the HS and ES optimized workflows were
	// checked equivalent to the initial state on real data (when
	// SuiteConfig.Verify is set).
	Verified bool
}

// SuiteConfig parameterizes a full experimental run.
type SuiteConfig struct {
	// Seed drives workload generation.
	Seed int64
	// Counts is the number of workflows per category; nil means the
	// paper's 40-workflow split (14/13/13).
	Counts map[generator.Category]int
	// ESBudget caps ES's generated states per workflow (the stand-in for
	// the paper's 40-hour cap). 0 means 60 000.
	ESBudget int
	// HSBudget caps HS's generated states per workflow. 0 means 30 000.
	HSBudget int
	// GroupCap bounds HS's per-local-group exploration (0 = core default).
	GroupCap int
	// Workers sets every algorithm's search parallelism (0 = GOMAXPROCS,
	// 1 = sequential). Results are identical for every value.
	Workers int
	// Partitions, when non-empty, additionally executes each initial
	// workflow through the partition-parallel engine at every listed
	// count: RunSuite records the wall clocks in Table 2's exec columns,
	// and EngineBench measures these counts (nil = {1, 2, 4, 8} there).
	Partitions []int
	// DataRows overrides the generator's per-source record volume for
	// EngineBench (0 = 8000). RunSuite keeps the category default.
	DataRows int
	// FaultSpec, when non-empty, arms deterministic fault injection on
	// EngineBench's parallel runs as "seed:rate" (etlbench's -faults
	// flag). Each run gets a fresh plan from the same seed plus a retry
	// budget, so the bit-identity check demonstrates recovery
	// equivalence under chaos; the materialized reference stays clean.
	FaultSpec string
	// Verify additionally runs every optimized workflow against the
	// empirical equivalence oracle (slower; always on in tests).
	Verify bool
	// Metrics, when non-nil, collects the observability series of every
	// search and every execution in the suite (etlbench's -metrics flag).
	Metrics *obs.Registry
	// Journal, when non-nil, receives the flight-recorder event stream of
	// every search and every execution in the suite (etlbench's -journal
	// flag). The caller owns the journal and closes it after the suite.
	Journal *obs.Journal
	// Progress, when non-nil, receives one line per workflow.
	Progress io.Writer
}

func (c SuiteConfig) withDefaults() SuiteConfig {
	if c.Counts == nil {
		c.Counts = map[generator.Category]int{
			generator.Small:  14,
			generator.Medium: 13,
			generator.Large:  13,
		}
	}
	if c.ESBudget <= 0 {
		c.ESBudget = 60_000
	}
	if c.HSBudget <= 0 {
		c.HSBudget = 30_000
	}
	return c
}

// RunSuite executes the full experiment and returns per-workflow results
// grouped by category.
func RunSuite(ctx context.Context, cfg SuiteConfig) ([]WorkflowResult, error) {
	cfg = cfg.withDefaults()
	var out []WorkflowResult
	for _, cat := range []generator.Category{generator.Small, generator.Medium, generator.Large} {
		n := cfg.Counts[cat]
		if n == 0 {
			continue
		}
		scenarios, err := generator.Suite(cat, n, cfg.Seed+int64(cat)*104729)
		if err != nil {
			return nil, err
		}
		for i, sc := range scenarios {
			res, err := runOne(ctx, cat, sc, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s workflow %d: %w", cat, i, err)
			}
			out = append(out, res)
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress,
					"%-6s #%02d  acts=%3d  ES %6.1f%% (%6d st, %6.1fs, term=%-5v)  HS %6.1f%% (%6d st, %6.1fs)  HSG %6.1f%% (%5d st, %5.1fs)  drift=%.3f\n",
					cat, i+1, res.Activities,
					res.ES.Improvement, res.ES.Visited, res.ES.Seconds, res.ES.Terminated,
					res.HS.Improvement, res.HS.Visited, res.HS.Seconds,
					res.HSG.Improvement, res.HSG.Visited, res.HSG.Seconds,
					res.SelDrift)
			}
		}
	}
	return out, nil
}

func runOne(ctx context.Context, cat generator.Category, sc *templates.Scenario, cfg SuiteConfig) (WorkflowResult, error) {
	g := sc.Graph
	res := WorkflowResult{Category: cat, Activities: len(g.Activities())}

	esRes, err := core.Exhaustive(ctx, g, core.Options{
		MaxStates:       cfg.ESBudget,
		Workers:         cfg.Workers,
		IncrementalCost: true,
		Metrics:         cfg.Metrics,
		Journal:         cfg.Journal,
	})
	if err != nil {
		return res, fmt.Errorf("ES: %w", err)
	}
	hsRes, err := core.Heuristic(ctx, g, core.Options{
		MaxStates:       cfg.HSBudget,
		GroupCap:        cfg.GroupCap,
		Workers:         cfg.Workers,
		IncrementalCost: true,
		Metrics:         cfg.Metrics,
		Journal:         cfg.Journal,
	})
	if err != nil {
		return res, fmt.Errorf("HS: %w", err)
	}
	hsgRes, err := core.HSGreedy(ctx, g, core.Options{
		MaxStates:       cfg.HSBudget,
		Workers:         cfg.Workers,
		IncrementalCost: true,
		Metrics:         cfg.Metrics,
		Journal:         cfg.Journal,
	})
	if err != nil {
		return res, fmt.Errorf("HS-Greedy: %w", err)
	}

	// Execute the initial workflow on its generated data and compare each
	// activity's observed selectivity against the modeled value the search
	// just optimized under: Table 2's "sel drift" column. The run also
	// feeds the engine's observability series when cfg.Metrics is set.
	runRes, err := engine.New(sc.Bind(), engine.WithMetrics(cfg.Metrics),
		engine.WithJournal(cfg.Journal)).Run(ctx, g)
	if err != nil {
		return res, fmt.Errorf("executing initial workflow: %w", err)
	}
	res.ExecSeconds = runRes.Elapsed.Seconds()
	res.SelDrift = cost.MeanAbsSelDelta(cost.SelectivityDeltas(g, runRes.NodeRows))

	// Table 2's parallel exec columns: the same run through the
	// partition-parallel engine, held to bit-identical targets.
	if len(cfg.Partitions) > 0 {
		res.ParExec = make(map[int]float64, len(cfg.Partitions))
		for _, p := range cfg.Partitions {
			parRes, err := engine.New(sc.Bind(),
				engine.WithPartitions(p),
				engine.WithMetrics(cfg.Metrics), engine.WithJournal(cfg.Journal)).Run(ctx, g)
			if err != nil {
				return res, fmt.Errorf("executing initial workflow at P=%d: %w", p, err)
			}
			for _, name := range sortedTargetNames(runRes.Targets) {
				if diff := data.IdenticalDiff(runRes.Targets[name], parRes.Targets[name]); diff != "" {
					return res, fmt.Errorf("P=%d: target %s not bit-identical to materialized: %s",
						p, name, diff)
				}
			}
			res.ParExec[p] = parRes.Elapsed.Seconds()
		}
	}

	// Quality of solution (Table 1): improvement relative to the best the
	// (possibly stopped) ES achieved — "the values are compared to the
	// best of ES when it stopped". Algorithms may exceed 100 when they
	// beat a stopped ES.
	ref := esRes.Improvement()
	quality := func(imp float64) float64 {
		if ref <= 0 {
			if imp <= 0 {
				return 100
			}
			return 100 + imp
		}
		return 100 * imp / ref
	}

	res.ES = AlgoRun{
		Visited: esRes.Visited, Improvement: esRes.Improvement(), Quality: 100,
		Seconds: esRes.Elapsed.Seconds(), Terminated: esRes.Terminated,
		BestCost: esRes.BestCost, InitialCost: esRes.InitialCost,
	}
	res.HS = AlgoRun{
		Visited: hsRes.Visited, Improvement: hsRes.Improvement(), Quality: quality(hsRes.Improvement()),
		Seconds: hsRes.Elapsed.Seconds(), Terminated: true,
		BestCost: hsRes.BestCost, InitialCost: hsRes.InitialCost,
	}
	res.HSG = AlgoRun{
		Visited: hsgRes.Visited, Improvement: hsgRes.Improvement(), Quality: quality(hsgRes.Improvement()),
		Seconds: hsgRes.Elapsed.Seconds(), Terminated: true,
		BestCost: hsgRes.BestCost, InitialCost: hsgRes.InitialCost,
	}

	if cfg.Verify {
		for _, opt := range []struct {
			name string
			best *workflow.Graph
		}{{"ES", esRes.Best}, {"HS", hsRes.Best}, {"HS-Greedy", hsgRes.Best}} {
			ok, diff, err := equiv.VerifyEmpirical(g, opt.best, sc.Bind())
			if err != nil {
				return res, fmt.Errorf("verifying %s result: %w", opt.name, err)
			}
			if !ok {
				return res, fmt.Errorf("%s produced a non-equivalent workflow: %s", opt.name, diff)
			}
		}
		res.Verified = true
	}
	return res, nil
}

// categoryRows groups results by category preserving order.
func categoryRows(results []WorkflowResult) map[generator.Category][]WorkflowResult {
	m := map[generator.Category][]WorkflowResult{}
	for _, r := range results {
		m[r.Category] = append(m[r.Category], r)
	}
	return m
}

func mean(xs []float64) float64 { return stats.Summarize(xs).Mean }

// Table1 renders the quality-of-solution table (paper Table 1): for each
// category, the average quality of each algorithm's solution relative to
// the best ES result. A trailing asterisk marks categories where ES did
// not terminate, as in the paper.
func Table1(results []WorkflowResult) string {
	rows := categoryRows(results)
	t := stats.NewTable("workflow category", "ES quality %", "HS quality %", "HS-Greedy quality %")
	for _, cat := range []generator.Category{generator.Small, generator.Medium, generator.Large} {
		rs := rows[cat]
		if len(rs) == 0 {
			continue
		}
		var es, hs, hsg []float64
		star := ""
		for _, r := range rs {
			es = append(es, r.ES.Quality)
			hs = append(hs, r.HS.Quality)
			hsg = append(hsg, r.HSG.Quality)
			if !r.ES.Terminated {
				star = "*"
			}
		}
		esCell := fmt.Sprintf("%.0f", mean(es))
		if star == "*" {
			esCell = "-"
		}
		t.AddRow(cat.String(), esCell,
			fmt.Sprintf("%.0f%s", mean(hs), star),
			fmt.Sprintf("%.0f%s", mean(hsg), star))
	}
	return t.String() +
		"* compared to the best state ES had found when its budget expired (ES did not terminate)\n"
}

// Table2 renders the execution table (paper Table 2): per category and
// algorithm, the average number of visited states, improvement over the
// initial state and execution time, plus the wall clock of executing the
// initial workflow — one column for the materialized engine and, when the
// suite ran with SuiteConfig.Partitions, one per partition count.
func Table2(results []WorkflowResult) string {
	rows := categoryRows(results)
	pcols := partitionColumns(results)
	headers := []string{"category", "acts (avg)",
		"ES states", "ES impr %", "ES time s",
		"HS states", "HS impr %", "HS time s",
		"HSG states", "HSG impr %", "HSG time s",
		"sel drift", "exec s"}
	for _, p := range pcols {
		headers = append(headers, fmt.Sprintf("exec P=%d s", p))
	}
	align := make([]int, len(headers)-1)
	for i := range align {
		align[i] = i + 1
	}
	t := stats.NewTable(headers...).AlignRight(align...)
	for _, cat := range []generator.Category{generator.Small, generator.Medium, generator.Large} {
		rs := rows[cat]
		if len(rs) == 0 {
			continue
		}
		var acts, esS, esI, esT, hsS, hsI, hsT, hgS, hgI, hgT, drift, exec []float64
		parExec := make([][]float64, len(pcols))
		star := ""
		for _, r := range rs {
			acts = append(acts, float64(r.Activities))
			esS = append(esS, float64(r.ES.Visited))
			esI = append(esI, r.ES.Improvement)
			esT = append(esT, r.ES.Seconds)
			hsS = append(hsS, float64(r.HS.Visited))
			hsI = append(hsI, r.HS.Improvement)
			hsT = append(hsT, r.HS.Seconds)
			hgS = append(hgS, float64(r.HSG.Visited))
			hgI = append(hgI, r.HSG.Improvement)
			hgT = append(hgT, r.HSG.Seconds)
			drift = append(drift, r.SelDrift)
			exec = append(exec, r.ExecSeconds)
			for i, p := range pcols {
				if s, ok := r.ParExec[p]; ok {
					parExec[i] = append(parExec[i], s)
				}
			}
			if !r.ES.Terminated {
				star = "*"
			}
		}
		cells := []string{cat.String(), fmt.Sprintf("%.0f", mean(acts)),
			fmt.Sprintf("%.0f%s", mean(esS), star),
			fmt.Sprintf("%.0f%s", mean(esI), star),
			fmt.Sprintf("%.2f%s", mean(esT), star),
			fmt.Sprintf("%.0f", mean(hsS)),
			fmt.Sprintf("%.0f", mean(hsI)),
			fmt.Sprintf("%.2f", mean(hsT)),
			fmt.Sprintf("%.0f", mean(hgS)),
			fmt.Sprintf("%.0f", mean(hgI)),
			fmt.Sprintf("%.2f", mean(hgT)),
			fmt.Sprintf("%.3f", mean(drift)),
			fmt.Sprintf("%.3f", mean(exec))}
		for i := range pcols {
			if len(parExec[i]) == 0 {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, fmt.Sprintf("%.3f", mean(parExec[i])))
		}
		t.AddRow(toAnys(cells)...)
	}
	return t.String() +
		"* ES budget expired before the space closed; values reflect ES's status when it stopped\n" +
		"sel drift: mean |observed - modeled| selectivity when the initial workflow ran on its generated data\n" +
		"exec: wall clock of running the initial workflow on its generated data (materialized; P=n: parallel engine)\n"
}

// partitionColumns collects the partition counts any result was executed
// at, sorted, so Table 2's exec columns are stable.
func partitionColumns(results []WorkflowResult) []int {
	set := map[int]bool{}
	for _, r := range results {
		for p := range r.ParExec {
			set[p] = true
		}
	}
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

func toAnys(cells []string) []interface{} {
	out := make([]interface{}, len(cells))
	for i, c := range cells {
		out[i] = c
	}
	return out
}

// Claims renders the §4.2 prose claims with the measured values:
// HS-Greedy's speedup over HS on small workflows, HS's quality advantage
// on medium, and the improvement levels on large workflows.
func Claims(results []WorkflowResult) string {
	rows := categoryRows(results)
	var b []byte
	add := func(format string, args ...interface{}) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}

	if small := rows[generator.Small]; len(small) > 0 {
		var speedups, hsQ, hsgQ []float64
		for _, r := range small {
			if r.HS.Seconds > 0 {
				speedups = append(speedups, 100*(r.HS.Seconds-r.HSG.Seconds)/r.HS.Seconds)
			}
			hsQ = append(hsQ, r.HS.Quality)
			hsgQ = append(hsgQ, r.HSG.Quality)
		}
		s := stats.Summarize(speedups)
		add("small: HS quality %.0f%%, HS-Greedy quality %.0f%% (paper: 100 / 99);\n", mean(hsQ), mean(hsgQ))
		add("       HS-Greedy faster than HS by min %.0f%% / avg %.0f%% (paper: at least 86%%, avg 92%%)\n",
			s.Min, s.Mean)
	}
	if med := rows[generator.Medium]; len(med) > 0 {
		var gaps []float64
		for _, r := range med {
			gaps = append(gaps, r.HS.Improvement-r.HSG.Improvement)
		}
		s := stats.Summarize(gaps)
		add("medium: HS finds better solutions than HS-Greedy by %.0f-%.0f%% (avg %.0f) of initial cost (paper: 13-38%%)\n",
			s.Min, s.Max, s.Mean)
	}
	if large := rows[generator.Large]; len(large) > 0 {
		var hsI, hsgI []float64
		for _, r := range large {
			hsI = append(hsI, r.HS.Improvement)
			hsgI = append(hsgI, r.HSG.Improvement)
		}
		add("large: HS improvement avg %.0f%% (paper: over 70%%), HS-Greedy avg %.0f%% (paper: unstable, avg 47%%)\n",
			mean(hsI), mean(hsgI))
	}
	return string(b)
}
