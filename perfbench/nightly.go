package main

import (
	"context"
	"fmt"
	"runtime"

	"etlopt/internal/generator"
	"etlopt/pkg/etl"
)

// Sizing of the nightly-load workload.
const (
	// nightlyDraw is how many medium and how many large workflows load.
	nightlyDraw = 6
	// nightlyRows is the generated row count of every source.
	nightlyRows = 5_000
)

// loadBands are the bands of the engine workloads' draws.
var loadBands = []generator.Category{generator.Medium, generator.Large}

// nightlyFlow is one workflow of the load with the plan chosen for it.
type nightlyFlow struct {
	initial, plan *etl.Graph
	modeledRatio  float64 // best/initial modeled cost of the plan
	bindings      map[string]etl.Recordset
	rows          int // source rows one execution reads
}

type nightlyJob struct {
	cfg   config
	flows []nightlyFlow
}

// setupNightly draws the workflows, binds their data and chooses each
// one's HS plan, as a warehouse reuses a plan across nights.
func setupNightly(ctx context.Context, cfg config) (job, error) {
	scs, err := draw(cfg.seed, "nightly-load", loadBands, nightlyDraw, nightlyRows)
	if err != nil {
		return nil, err
	}
	j := &nightlyJob{cfg: cfg}
	for i, sc := range scs {
		res, err := etl.Optimize(ctx, sc.Graph, etl.WithAlgorithm(etl.HS),
			etl.WithMaxStates(searchBudget), etl.WithWorkers(cfg.nproc))
		if err != nil {
			return nil, fmt.Errorf("choosing the plan of workflow %d: %w", i, err)
		}
		f := nightlyFlow{
			initial: sc.Graph, plan: res.Best, bindings: sc.Bind(),
			modeledRatio: ratio(res.BestCost, res.InitialCost),
		}
		if f.rows, err = sourceRows(sc.Graph, f.bindings); err != nil {
			return nil, err
		}
		j.flows = append(j.flows, f)
	}
	return j, nil
}

// pass executes every workflow's initial graph and its plan at P=nproc,
// and the plan again in the default single-partition mode.
func (j *nightlyJob) pass(ctx context.Context, p *pass) {
	par := etl.WithPartitions(j.cfg.nproc)
	var initSec, optSec, p1Sec, rows float64
	var modelErrors []float64
	var allocBytes, mallocs uint64
	for _, f := range j.flows {
		initial, sec, err := p.run(ctx, "engine.exec.initial", f.initial, f.bindings, par)
		if err != nil {
			continue
		}
		initSec += sec
		initialSec := sec

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		opt, sec, err := p.run(ctx, "engine.exec.optimized", f.plan, f.bindings, par)
		runtime.ReadMemStats(&after)
		if err != nil {
			continue
		}
		optSec += sec
		allocBytes += after.TotalAlloc - before.TotalAlloc
		mallocs += after.Mallocs - before.Mallocs
		rows += float64(f.rows)
		// Modeled gain (initial/best modeled cost) over measured gain
		// (initial/optimized seconds), per workflow.
		modelErrors = append(modelErrors, ratio(ratio(1, f.modeledRatio), ratio(initialSec, sec)))
		p.mismatch("optimized vs initial targets",
			multisetDiff(targetMultisets(initial.Targets), targetMultisets(opt.Targets)))

		one, sec, err := p.run(ctx, "engine.exec.optimized_p1", f.plan, f.bindings)
		if err != nil {
			continue
		}
		p1Sec += sec
		// Items are the initial workflow's node rows, once per execution:
		// the job's size whichever plan runs it.
		p.count("items", float64(3*nodeRows(initial)))
		p.mismatch(fmt.Sprintf("plan at P=%d vs one partition", j.cfg.nproc), identicalDiff(one, opt))
		for _, t := range opt.Targets {
			p.count("engine.target_rows", float64(len(t)))
		}
	}
	p.count("engine.source_rows", rows)
	p.add("load_rows_per_s", ratio(rows, optSec))
	p.add("load_rows_per_s_p1", ratio(rows, p1Sec))
	p.add("plan_speedup", ratio(initSec, optSec))
	p.add("cost.model_error", geomean(modelErrors))
	p.add("alloc_bytes_per_row", ratio(float64(allocBytes), rows))
	p.add("engine.mallocs_per_row", ratio(float64(mallocs), rows))
}
