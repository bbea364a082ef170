package experiments

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"

	"etlopt/internal/data"
	"etlopt/internal/engine"
	"etlopt/internal/generator"
	"etlopt/internal/share"
)

// SharedConfig parameterizes the shared-work suite baseline.
type SharedConfig struct {
	// Seed drives workflow generation; equal configs measure equal suites.
	Seed int64
	// Counts is how many shared-prefix suites to run per category.
	Counts map[generator.Category]int
	// SuiteSize is the number of workflows per suite (default 3).
	SuiteSize int
	// DataRows scales the generated records per source (default 4000).
	DataRows int
	// CacheBytes is the suite scheduler's cache budget (default unbounded).
	CacheBytes int64
	// Workers bounds suite concurrency (0 = GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives a per-suite progress line.
	Progress io.Writer
}

// SharedRun records one suite's measurements: every member executed
// independently, then the same members as one RunSuite job, with each
// member's targets and NodeRows required bit-identical between the two.
type SharedRun struct {
	Category  string `json:"category"`
	Index     int    `json:"index"`
	Workflows int    `json:"workflows"`

	// IndependentSeconds sums the members' individual engine runs;
	// SharedSeconds is the wall clock of the whole RunSuite job (stages
	// and residual runs, under the configured concurrency).
	IndependentSeconds float64 `json:"independent_seconds"`
	SharedSeconds      float64 `json:"shared_seconds"`

	NodesIndependent int64 `json:"nodes_independent"`
	NodesExecuted    int64 `json:"nodes_executed"`
	SharedStages     int   `json:"shared_stages"`
	TargetRows       int   `json:"target_rows"`
	SavedBytes       int64 `json:"saved_bytes"`
}

// SharedReport is the JSON baseline etlbench -shared records
// (BENCH_shared.json): the bit-identity check of suite execution against
// independent runs, plus what sharing saved in nodes, bytes and wall
// clock.
type SharedReport struct {
	Seed       int64 `json:"seed"`
	DataRows   int   `json:"data_rows"`
	SuiteSize  int   `json:"suite_size"`
	CacheBytes int64 `json:"cache_bytes"`
	// CPUs is the host's logical CPU count — the ceiling on wall-clock
	// speedup from suite concurrency; the node and byte savings are
	// machine-independent.
	CPUs int `json:"cpus"`

	Suites       int  `json:"suites"`
	AllIdentical bool `json:"all_identical"`

	// NodesIndependent is what independent runs executed across every
	// suite; NodesExecuted is what the shared scheduler ran. Their gap is
	// the recomputation sharing eliminated — a deterministic measure,
	// unlike the wall clocks.
	NodesIndependent int64 `json:"nodes_independent"`
	NodesExecuted    int64 `json:"nodes_executed"`
	// RecomputationSavedBytes totals the cache's hit bytes: intermediate
	// result bytes served from the cache instead of recomputed.
	RecomputationSavedBytes int64 `json:"recomputation_saved_bytes"`

	IndependentRowsPerSec float64 `json:"independent_rows_per_sec"`
	SharedRowsPerSec      float64 `json:"shared_rows_per_sec"`
	// SharedSpeedup = total independent seconds / total shared seconds.
	SharedSpeedup float64 `json:"shared_speedup"`

	Runs []SharedRun `json:"runs"`
}

// SharedBench measures the shared-work suite scheduler against independent
// per-workflow execution. Every suite member must come out of RunSuite
// with targets and NodeRows bit-identical to its own engine run; a
// divergence fails the benchmark rather than discounting the timing.
func SharedBench(ctx context.Context, cfg SharedConfig) (*SharedReport, error) {
	size := cfg.SuiteSize
	if size <= 0 {
		size = 3
	}
	dataRows := cfg.DataRows
	if dataRows <= 0 {
		dataRows = 4000
	}
	cacheBytes := cfg.CacheBytes
	if cacheBytes == 0 {
		cacheBytes = -1
	}
	rep := &SharedReport{
		Seed: cfg.Seed, DataRows: dataRows, SuiteSize: size,
		CacheBytes: cacheBytes, CPUs: runtime.NumCPU(), AllIdentical: true,
	}
	var indepSec, sharedSec float64
	var totalRows int
	for _, cat := range []generator.Category{generator.Small, generator.Medium, generator.Large} {
		for s := 0; s < cfg.Counts[cat]; s++ {
			// Mirror generator.SharedSuite's seed schedule with scaled-up
			// data: members share PrefixSeed (and so sources, data and
			// branch pipelines) and diverge post-union by Seed.
			baseSeed := cfg.Seed + int64(cat)*104729 + int64(s)*7919
			wfs := make([]share.Workflow, 0, size)
			solos := make([]*engine.RunResult, 0, size)
			run := SharedRun{Category: cat.String(), Index: s + 1, Workflows: size}
			for i := 0; i < size; i++ {
				gcfg := generator.CategoryConfig(cat, baseSeed+int64(i+1)*7919)
				gcfg.PrefixSeed = baseSeed + int64(cat)*104729 + 1
				gcfg.DataRows = dataRows
				sc, err := generator.Generate(gcfg)
				if err != nil {
					return nil, fmt.Errorf("shared bench: %s suite %d workflow %d: %w", cat, s+1, i+1, err)
				}
				solo, err := engine.New(sc.Bind()).Run(ctx, sc.Graph)
				if err != nil {
					return nil, fmt.Errorf("shared bench: %s suite %d workflow %d solo: %w", cat, s+1, i+1, err)
				}
				run.IndependentSeconds += solo.Elapsed.Seconds()
				for _, rows := range solo.Targets {
					run.TargetRows += len(rows)
				}
				solos = append(solos, solo)
				wfs = append(wfs, share.Workflow{
					Name:     fmt.Sprintf("%s-%02d-%02d", cat, s+1, i+1),
					Graph:    sc.Graph,
					Bindings: sc.Bind(),
				})
			}

			start := time.Now()
			res, err := share.RunSuite(ctx, wfs, share.Options{
				Workers: cfg.Workers, CacheBytes: cacheBytes,
			})
			if err != nil {
				return nil, fmt.Errorf("shared bench: %s suite %d: %w", cat, s+1, err)
			}
			run.SharedSeconds = time.Since(start).Seconds()
			for i, wr := range res.Workflows {
				if wr.Err != nil {
					return nil, fmt.Errorf("shared bench: %s: %w", wr.Name, wr.Err)
				}
				for _, name := range sortedTargetNames(solos[i].Targets) {
					if diff := data.IdenticalDiff(solos[i].Targets[name], wr.Result.Targets[name]); diff != "" {
						return nil, fmt.Errorf(
							"shared bench: %s: target %s not bit-identical to independent run: %s",
							wr.Name, name, diff)
					}
				}
				if !reflect.DeepEqual(solos[i].NodeRows, wr.Result.NodeRows) {
					return nil, fmt.Errorf("shared bench: %s: NodeRows differ from independent run", wr.Name)
				}
			}
			st := res.Stats
			run.NodesIndependent = st.NodesIndependent
			run.NodesExecuted = st.NodesExecuted
			run.SharedStages = st.Stages
			run.SavedBytes = st.Cache.HitBytes

			indepSec += run.IndependentSeconds
			sharedSec += run.SharedSeconds
			totalRows += run.TargetRows
			rep.NodesIndependent += st.NodesIndependent
			rep.NodesExecuted += st.NodesExecuted
			rep.RecomputationSavedBytes += st.Cache.HitBytes
			rep.Runs = append(rep.Runs, run)
			rep.Suites++
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress,
					"%-6s suite #%02d  %d workflows  identical  indep %6.2fs  shared %6.2fs  nodes %d->%d  saved %dB\n",
					cat, s+1, size, run.IndependentSeconds, run.SharedSeconds,
					run.NodesIndependent, run.NodesExecuted, run.SavedBytes)
			}
		}
	}
	if indepSec > 0 {
		rep.IndependentRowsPerSec = float64(totalRows) / indepSec
	}
	if sharedSec > 0 {
		rep.SharedRowsPerSec = float64(totalRows) / sharedSec
		rep.SharedSpeedup = indepSec / sharedSec
	}
	return rep, nil
}

// Summary renders the headline numbers of a shared-work report.
func (r *SharedReport) Summary(w io.Writer) {
	fmt.Fprintf(w, "shared-work baseline: %d suites × %d workflows × %d rows/source, cache budget %d, %d CPUs\n",
		r.Suites, r.SuiteSize, r.DataRows, r.CacheBytes, r.CPUs)
	fmt.Fprintf(w, "  all suite runs bit-identical to independent runs: %v\n", r.AllIdentical)
	fmt.Fprintf(w, "  nodes executed: %d of %d independent (%d saved)\n",
		r.NodesExecuted, r.NodesIndependent, r.NodesIndependent-r.NodesExecuted)
	fmt.Fprintf(w, "  recomputation saved: %d bytes served from the shared cache\n", r.RecomputationSavedBytes)
	fmt.Fprintf(w, "  independent: %.0f rows/s   shared: %.0f rows/s   speedup ×%.2f\n",
		r.IndependentRowsPerSec, r.SharedRowsPerSec, r.SharedSpeedup)
}
