// Command etlrun executes an ETL workflow definition against CSV record
// files: every source recordset, surrogate-key lookup and key set named by
// the workflow is bound to <data-dir>/<name>.csv, and target recordsets
// are written to <data-dir>/<name>.csv as well. Optionally the workflow is
// optimized before running, executed across P partitions, and
// checkpointed so an interrupted load resumes instead of restarting.
//
// Usage:
//
//	etlrun -in workflow.etl -data ./data [-optimize hs|greedy|es] [-workers N]
//	       [-partitions P] [-checkpoint ./stage] [-faults SEED:RATE] [-retries N] [-impact NODE]
//	       [-metrics snap.json] [-journal run.jsonl]
//	       [-trace-out trace-events.json] [-cpuprofile cpu.pprof]
//	       [-debug-addr localhost:6060] [-progress 1s]
//
// Passing several workflow files (positionally, or one via -in plus the
// rest positionally) switches to suite mode: the workflows execute as one
// job through the shared-work scheduler, which detects upstream closures
// the workflows have in common and computes each exactly once through a
// content-addressed intermediate-result cache. Each workflow binds its
// recordsets under <data-dir>/<workflow-basename>/ when that directory
// exists, and under <data-dir> directly otherwise:
//
//	etlrun -data ./data [-suite-workers N] [-shared-cache BYTES]
//	       [-shared-spill DIR] load1.etl load2.etl load3.etl
//
// Suite mode is execution-only: -optimize, -checkpoint, -impact, -lint,
// -explain and -calibrate apply to single-workflow runs.
//
// Flag vocabulary (shared across etlrun, etlopt and etlbench): -workers
// controls optimizer search parallelism (goroutines expanding the state
// space), while -partitions controls engine data parallelism (how many
// ways each recordset is split; 1 runs every activity on whole inputs, 0
// means GOMAXPROCS). They are independent
// knobs for independent phases; -suite-workers is a third, bounding how
// many workflows and shared stages run concurrently in suite mode.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"etlopt/internal/analysis"
	"etlopt/internal/core"
	"etlopt/internal/cost"
	"etlopt/internal/data"
	"etlopt/internal/dsl"
	"etlopt/internal/engine"
	"etlopt/internal/fault"
	"etlopt/internal/obs"
	"etlopt/internal/workflow"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "etlrun:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in         = flag.String("in", "", "workflow definition file")
		dataDir    = flag.String("data", ".", "directory of <name>.csv record files")
		optimize   = flag.String("optimize", "", "optimize first: es, hs or greedy")
		workers    = flag.Int("workers", 0, "optimizer search parallelism: worker goroutines for -optimize (0 = GOMAXPROCS)")
		partitions = flag.Int("partitions", 1, "engine data parallelism: partitions per recordset (0 = GOMAXPROCS)")
		checkpoint = flag.String("checkpoint", "", "staging directory for resumable execution")
		impact     = flag.String("impact", "", "print the impact analysis of the named recordset and exit")
		lintOnly   = flag.Bool("lint", false, "run the design checks and exit (warnings exit nonzero)")
		explain    = flag.Bool("explain", false, "print estimated vs actual cardinalities after the run")
		calibrate  = flag.Bool("calibrate", false, "after running, calibrate selectivities from observation and report the re-optimized plan")
		metrics    = flag.String("metrics", "", "write a JSON metrics snapshot here after the run (auditable with etlvet metrics)")
		debugAddr  = flag.String("debug-addr", "", "serve a live status page, /metrics (Prometheus) and /metrics.json on this address during the run")
		progress   = flag.Duration("progress", 0, "print an optimizer progress line to stderr at this interval (e.g. 1s; 0 = off)")
		journal    = flag.String("journal", "", "record a structured run journal (JSONL flight recorder, auditable with etlvet obs) here")
		faults     = flag.String("faults", "", "arm deterministic fault injection as seed:rate (e.g. 42:0.05); transient faults are retried")
		retries    = flag.Int("retries", 6, "per-node attempt budget for retrying injected transient faults (with -faults)")
		traceOut   = flag.String("trace-out", "", "write the run's span tree as Chrome/Perfetto trace-event JSON here")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile here; search workers and engine partitions are labeled")
		suiteWork  = flag.Int("suite-workers", 0, "suite mode: concurrent shared stages and workflows (0 = GOMAXPROCS)")
		sharedCap  = flag.Int64("shared-cache", -1, "suite mode: shared intermediate cache budget in bytes (-1 = unbounded, 0 = no retention)")
		sharedSpil = flag.String("shared-spill", "", "suite mode: spill evicted shared intermediates to stage files in this directory")
	)
	flag.Parse()
	files := flag.Args()
	if *in != "" {
		files = append([]string{*in}, files...)
	}
	if len(files) == 0 {
		flag.Usage()
		return fmt.Errorf("missing workflow file (-in or positional)")
	}
	if *partitions == 0 {
		*partitions = runtime.GOMAXPROCS(0)
	}
	if len(files) > 1 {
		// A fixed order, so the error names the same flag on every run.
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-optimize", *optimize != ""}, {"-checkpoint", *checkpoint != ""},
			{"-impact", *impact != ""}, {"-lint", *lintOnly},
			{"-explain", *explain}, {"-calibrate", *calibrate},
		} {
			if f.set {
				return fmt.Errorf("%s applies to single-workflow runs, not suites", f.name)
			}
		}
		return runSuite(files, suiteFlags{
			dataDir: *dataDir, partitions: *partitions,
			workers: *suiteWork, cacheBytes: *sharedCap, spillDir: *sharedSpil,
			faults: *faults, retries: *retries,
			metrics: *metrics, journal: *journal,
		})
	}
	*in = files[0]
	// An interrupt cancels the optimizer and the engine; with -checkpoint,
	// completed nodes stay staged so a re-run resumes.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()
	src, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	g, err := dsl.Parse(string(src))
	if err != nil {
		return err
	}

	if *lintOnly {
		warnings, err := analysis.RunLint(os.Stdout, g, dsl.NodeNames(g))
		if err != nil {
			return err
		}
		if warnings > 0 {
			return fmt.Errorf("%d warning(s)", warnings)
		}
		return nil
	}

	if *impact != "" {
		return printImpact(g, *impact)
	}

	var reg *obs.Registry
	if *metrics != "" || *debugAddr != "" || *progress > 0 || *traceOut != "" {
		reg = obs.NewRegistry()
	}
	var jnl *obs.Journal
	if *journal != "" {
		jnl, err = obs.NewJournalFile(*journal, reg)
		if err != nil {
			return err
		}
		// Close on every exit path; the success path closes first (the
		// second Close is a no-op) so write errors are reported.
		defer jnl.Close()
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "etlrun: closing cpu profile:", err)
			}
		}()
	}
	if *debugAddr != "" {
		bound, stopSrv, err := obs.Serve(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer stopSrv()
		fmt.Fprintf(os.Stderr, "debug server on http://%s (/, /metrics, /metrics.json)\n", bound)
	}

	if *optimize != "" {
		var res *core.Result
		opts := core.Options{
			IncrementalCost: true, MaxStates: 30_000, Metrics: reg, Workers: *workers,
			Journal: jnl, PprofLabels: *cpuProf != "",
		}
		if *progress > 0 {
			opts.Progress = os.Stderr
			opts.ProgressInterval = *progress
		}
		switch *optimize {
		case "es":
			res, err = core.Exhaustive(ctx, g, opts)
		case "hs":
			res, err = core.Heuristic(ctx, g, opts)
		case "greedy":
			res, err = core.HSGreedy(ctx, g, opts)
		default:
			return fmt.Errorf("unknown optimizer %q", *optimize)
		}
		if err != nil {
			return err
		}
		fmt.Printf("optimized with %s: cost %.0f -> %.0f (%.1f%%)\n",
			res.Algorithm, res.InitialCost, res.BestCost, res.Improvement())
		g = res.Best
	}

	bindings, err := bindCSV(g, *dataDir)
	if err != nil {
		return err
	}

	eopts := []engine.Option{engine.WithMetrics(reg),
		engine.WithPartitions(*partitions), engine.WithJournal(jnl)}
	if *cpuProf != "" {
		eopts = append(eopts, engine.WithPprofLabels())
	}
	if *faults != "" {
		seed, rate, err := fault.ParseSpec(*faults)
		if err != nil {
			return err
		}
		eopts = append(eopts,
			engine.WithFaultPlan(fault.NewPlan(seed, rate)),
			engine.WithRetry(fault.Policy{
				MaxAttempts: *retries,
				BaseDelay:   time.Millisecond,
				MaxDelay:    100 * time.Millisecond,
				Seed:        seed,
			}))
	}
	e := engine.New(bindings, eopts...)

	var result *engine.RunResult
	if *checkpoint != "" {
		cr, err := engine.NewCheckpointRunner(e, *checkpoint)
		if err != nil {
			return err
		}
		if staged, _ := cr.Staged(); len(staged) > 0 {
			fmt.Printf("resuming: %d staged node outputs found\n", len(staged))
		}
		result, err = cr.Run(ctx, g)
		if err != nil {
			return fmt.Errorf("run failed (progress staged in %s, re-run to resume): %w", *checkpoint, err)
		}
	} else {
		result, err = e.Run(ctx, g)
		if err != nil {
			return err
		}
	}

	fmt.Printf("executed in %v\n", result.Elapsed.Round(time.Millisecond))
	order, _ := g.TopoSort()
	for _, id := range order {
		n := g.Node(id)
		fmt.Printf("  %3d %-35s %8d rows\n", id, n.Label(), result.NodeRows[id])
	}
	for _, name := range result.SortTargets() {
		fmt.Printf("target %s: %d rows written to %s\n",
			name, len(result.Targets[name]), csvPath(*dataDir, name))
	}

	if *explain {
		est, err := cost.Explain(g, cost.RowModel{}, result.NodeRows)
		if err != nil {
			return err
		}
		fmt.Println("\nestimated vs actual cardinalities:")
		fmt.Print(cost.FormatExplain(est))
	}
	if *calibrate {
		cal, err := cost.Calibrate(g, result.NodeRows)
		if err != nil {
			return err
		}
		res, err := core.Heuristic(ctx, cal, core.Options{IncrementalCost: true, MaxStates: 30_000})
		if err != nil {
			return err
		}
		fmt.Printf("\ncalibrated re-optimization: cost %.0f -> %.0f (%.1f%%)\n",
			res.InitialCost, res.BestCost, res.Improvement())
		fmt.Println("re-optimized plan under observed selectivities:")
		fmt.Print(res.Best)
	}
	if *metrics != "" {
		if err := reg.Snapshot().WriteJSONFile(*metrics); err != nil {
			return err
		}
		fmt.Printf("metrics snapshot written to %s\n", *metrics)
	}
	if jnl != nil {
		// Journal write failures are non-fatal by design — the load
		// already completed — but a truncated journal deserves a warning.
		if err := jnl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "etlrun: journal:", err)
		}
		fmt.Printf("run journal written to %s (%d events, %d dropped)\n",
			*journal, jnl.Written(), jnl.Dropped())
	}
	if *traceOut != "" {
		if err := reg.Snapshot().WriteTraceEventsFile(*traceOut); err != nil {
			return err
		}
		fmt.Printf("trace events written to %s (load in Perfetto or chrome://tracing)\n", *traceOut)
	}
	return nil
}

// bindCSV binds every recordset the workflow names — sources and targets
// from the graph, plus lookup recordsets referenced by surrogate-key and
// key-check activities — to CSV files in dir. Source and lookup files must
// exist; target files are created.
func bindCSV(g *workflow.Graph, dir string) (map[string]data.Recordset, error) {
	bindings := map[string]data.Recordset{}

	bind := func(name string, schema data.Schema, mustExist bool) error {
		if _, dup := bindings[name]; dup {
			return nil
		}
		path := csvPath(dir, name)
		if mustExist {
			if _, err := os.Stat(path); err != nil {
				return fmt.Errorf("recordset %q: %w", name, err)
			}
			// Schema comes from the file header for lookups (schema nil).
			if schema == nil {
				header, err := readHeader(path)
				if err != nil {
					return err
				}
				schema = header
			}
		}
		rs, err := data.NewFileRecordset(name, schema, path)
		if err != nil {
			return err
		}
		bindings[name] = rs
		return nil
	}

	for _, id := range g.Recordsets() {
		n := g.Node(id)
		isSource := len(g.Providers(id)) == 0
		if err := bind(n.RS.Name, n.RS.Schema, isSource); err != nil {
			return nil, err
		}
	}
	for _, id := range g.Activities() {
		a := g.Node(id).Act
		if a.Sem.Lookup != "" {
			if err := bind(a.Sem.Lookup, nil, true); err != nil {
				return nil, err
			}
		}
	}
	return bindings, nil
}

func csvPath(dir, name string) string {
	return filepath.Join(dir, strings.ReplaceAll(name, string(filepath.Separator), "_")+".csv")
}

func readHeader(path string) (data.Schema, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var line strings.Builder
	buf := make([]byte, 1)
	for {
		if _, err := f.Read(buf); err != nil {
			return nil, fmt.Errorf("reading header of %s: %w", path, err)
		}
		if buf[0] == '\n' {
			break
		}
		if buf[0] != '\r' {
			line.WriteByte(buf[0])
		}
	}
	return data.Schema(strings.Split(line.String(), ",")), nil
}

// printImpact renders the change/failure impact analysis for the named
// recordset or activity identifier.
func printImpact(g *workflow.Graph, name string) error {
	names := dsl.NodeNames(g)
	var known []string
	var matches []workflow.NodeID
	for id, n := range names {
		known = append(known, n)
		if n == name {
			matches = append(matches, id)
		}
	}
	if len(matches) == 0 {
		sort.Strings(known)
		return fmt.Errorf("unknown node %q (have: %s)", name, strings.Join(known, ", "))
	}
	// Collect-then-sort keeps the pick independent of map iteration order:
	// the smallest matching node ID wins, deterministically.
	sort.Slice(matches, func(i, j int) bool { return matches[i] < matches[j] })
	target := matches[0]
	imp, err := g.AnalyzeImpact(target)
	if err != nil {
		return err
	}
	fmt.Printf("impact of a change or failure at %s:\n", name)
	fmt.Printf("  downstream (must re-run): %d nodes\n", len(imp.Downstream))
	for _, id := range imp.Downstream {
		fmt.Printf("    %s\n", names[id])
	}
	fmt.Printf("  stale targets: %v\n", imp.Targets)
	fmt.Printf("  upstream dependencies: %d nodes (sources: %v)\n", len(imp.Upstream), imp.Sources)
	un, err := g.UnaffectedBy(target)
	if err != nil {
		return err
	}
	fmt.Printf("  unaffected activities: %d\n", len(un))
	return nil
}
