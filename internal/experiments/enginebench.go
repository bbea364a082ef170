package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"

	"etlopt/internal/data"
	"etlopt/internal/engine"
	"etlopt/internal/fault"
	"etlopt/internal/generator"
)

// EngineRun records one suite scenario's engine wall clocks: the
// materialized baseline (the default P=1 run, every kernel on whole
// inputs) and the engine at each configured partition count, with every
// partitioned run checked bit-identical to the baseline before its timing
// is recorded.
type EngineRun struct {
	Category   string `json:"category"`
	Index      int    `json:"index"`
	Activities int    `json:"activities"`
	SourceRows int    `json:"source_rows"` // generated records per source
	TargetRows int    `json:"target_rows"` // total rows loaded across targets

	MaterializedSeconds float64 `json:"materialized_seconds"`
	// ParallelSeconds[i] is the wall clock at Partitions[i] of the report.
	ParallelSeconds []float64 `json:"parallel_seconds"`
}

// EngineReport is the JSON baseline etlbench -engine records
// (BENCH_engine.json): the whole-suite bit-identity check of the
// partition-parallel engine plus aggregate throughput per partition count.
type EngineReport struct {
	Seed       int64 `json:"seed"`
	DataRows   int   `json:"data_rows"`
	Partitions []int `json:"partitions"`
	// CPUs is the host's logical CPU count — the ceiling on wall-clock
	// speedup. On a single-CPU host every Speedup entry is expected to be
	// ~1 or below: partitions time-slice one core and only the overhead of
	// scatter, exchange and merge remains visible.
	CPUs int `json:"cpus"`

	// FaultSpec records the "seed:rate" chaos arming of the parallel
	// runs, empty when the benchmark ran clean.
	FaultSpec string `json:"fault_spec,omitempty"`

	Scenarios    int  `json:"scenarios"`
	AllIdentical bool `json:"all_identical"`

	// Rows loaded per wall-clock second, summed over every scenario.
	MaterializedRowsPerSec float64   `json:"materialized_rows_per_sec"`
	ParallelRowsPerSec     []float64 `json:"parallel_rows_per_sec"`
	// Speedup[i] = total materialized seconds / total parallel seconds at
	// Partitions[i].
	Speedup []float64 `json:"speedup"`

	Runs []EngineRun `json:"runs"`
}

// defaultPartitions are the counts EngineBench measures when the config
// leaves Partitions empty.
var defaultPartitions = []int{1, 2, 4, 8}

// EngineBench executes the full suite through the materialized engine and
// the partition-parallel engine at each partition count, requires every
// parallel run's targets to be bit-identical to the materialized run's —
// same rows, same order — and reports the wall clocks. Data volume is
// scaled up from the generator's category default (cfg.DataRows, default
// 8000 records per source) so the timings measure row processing rather
// than per-run setup.
func EngineBench(ctx context.Context, cfg SuiteConfig) (*EngineReport, error) {
	cfg = cfg.withDefaults()
	partitions := cfg.Partitions
	if len(partitions) == 0 {
		partitions = defaultPartitions
	}
	dataRows := cfg.DataRows
	if dataRows <= 0 {
		dataRows = 8000
	}
	var faultSeed int64
	var faultRate float64
	if cfg.FaultSpec != "" {
		var err error
		faultSeed, faultRate, err = fault.ParseSpec(cfg.FaultSpec)
		if err != nil {
			return nil, fmt.Errorf("engine bench: %w", err)
		}
	}
	rep := &EngineReport{
		Seed:         cfg.Seed,
		DataRows:     dataRows,
		Partitions:   partitions,
		CPUs:         runtime.NumCPU(),
		FaultSpec:    cfg.FaultSpec,
		AllIdentical: true,
	}
	var matSec float64
	parSec := make([]float64, len(partitions))
	var totalRows int
	for _, cat := range []generator.Category{generator.Small, generator.Medium, generator.Large} {
		n := cfg.Counts[cat]
		if n == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			// Mirror generator.Suite's seed schedule so the benchmark runs
			// the same workflows as the optimizer suite, just with more data.
			gcfg := generator.CategoryConfig(cat, cfg.Seed+int64(cat)*104729+int64(i)*7919)
			gcfg.DataRows = dataRows
			sc, err := generator.Generate(gcfg)
			if err != nil {
				return nil, fmt.Errorf("engine bench: generating %s workflow %d: %w", cat, i+1, err)
			}
			run := EngineRun{
				Category:   cat.String(),
				Index:      i + 1,
				Activities: len(sc.Graph.Activities()),
				SourceRows: dataRows,
			}
			mat, err := engine.New(sc.Bind(), engine.WithMetrics(cfg.Metrics)).Run(ctx, sc.Graph)
			if err != nil {
				return nil, fmt.Errorf("engine bench: %s workflow %d materialized: %w", cat, i+1, err)
			}
			run.MaterializedSeconds = mat.Elapsed.Seconds()
			for _, rows := range mat.Targets {
				run.TargetRows += len(rows)
			}
			for pi, p := range partitions {
				eopts := []engine.Option{
					engine.WithPartitions(p),
					engine.WithMetrics(cfg.Metrics),
				}
				if cfg.FaultSpec != "" {
					// A fresh plan per run keeps occurrence counters — and so
					// the injection schedule — independent across runs.
					eopts = append(eopts,
						engine.WithFaultPlan(fault.NewPlan(faultSeed, faultRate)),
						engine.WithRetry(fault.Policy{MaxAttempts: 8, Seed: faultSeed}))
				}
				par, err := engine.New(sc.Bind(), eopts...).Run(ctx, sc.Graph)
				if err != nil {
					return nil, fmt.Errorf("engine bench: %s workflow %d P=%d: %w", cat, i+1, p, err)
				}
				for _, name := range sortedTargetNames(mat.Targets) {
					if diff := rowsDiff(mat.Targets[name], par.Targets[name]); diff != "" {
						rep.AllIdentical = false
						return nil, fmt.Errorf(
							"engine bench: %s workflow %d P=%d: target %s not bit-identical to materialized: %s",
							cat, i+1, p, name, diff)
					}
				}
				run.ParallelSeconds = append(run.ParallelSeconds, par.Elapsed.Seconds())
				parSec[pi] += par.Elapsed.Seconds()
			}
			matSec += run.MaterializedSeconds
			totalRows += run.TargetRows
			rep.Runs = append(rep.Runs, run)
			rep.Scenarios++
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress,
					"%-6s #%02d  acts=%3d  rows=%6d  identical  mat %6.2fs  P=%v %v\n",
					cat, i+1, run.Activities, run.TargetRows, run.MaterializedSeconds,
					partitions, formatSeconds(run.ParallelSeconds))
			}
		}
	}
	if matSec > 0 {
		rep.MaterializedRowsPerSec = float64(totalRows) / matSec
	}
	for pi := range partitions {
		var rps, speedup float64
		if parSec[pi] > 0 {
			rps = float64(totalRows) / parSec[pi]
			speedup = matSec / parSec[pi]
		}
		rep.ParallelRowsPerSec = append(rep.ParallelRowsPerSec, rps)
		rep.Speedup = append(rep.Speedup, speedup)
	}
	return rep, nil
}

// sortedTargetNames returns a target map's names in sorted order, so the
// first reported mismatch is deterministic.
func sortedTargetNames(targets map[string]data.Rows) []string {
	names := make([]string, 0, len(targets))
	for name := range targets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// rowsDiff describes the first divergence between two row slices under
// bit-identity (order-sensitive), or "" when identical.
func rowsDiff(want, got data.Rows) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d vs %d rows", len(got), len(want))
	}
	for i := range want {
		if want[i].Key() != got[i].Key() {
			return fmt.Sprintf("row %d: %s vs %s", i, got[i], want[i])
		}
	}
	return ""
}

func formatSeconds(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.2fs", x)
	}
	return out
}

// Summary renders the headline numbers of an engine report.
func (r *EngineReport) Summary(w io.Writer) {
	fmt.Fprintf(w, "engine baseline: %d scenarios × %d rows/source, partitions %v, %d CPUs\n",
		r.Scenarios, r.DataRows, r.Partitions, r.CPUs)
	fmt.Fprintf(w, "  all parallel runs bit-identical to materialized: %v\n", r.AllIdentical)
	fmt.Fprintf(w, "  materialized: %.0f rows/s\n", r.MaterializedRowsPerSec)
	for i, p := range r.Partitions {
		fmt.Fprintf(w, "  parallel P=%d: %.0f rows/s   speedup ×%.2f vs materialized\n",
			p, r.ParallelRowsPerSec[i], r.Speedup[i])
	}
}
