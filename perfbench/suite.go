package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"etlopt/internal/generator"
	"etlopt/pkg/etl"
)

// Sizing of the suite-window workload.
const (
	// suites is how many suites of each load band run per pass.
	suites = 3
	// suiteSize is the number of workflows sharing one extract prefix.
	suiteSize = 3
	// suiteRows is the generated row count of every source.
	suiteRows = 4_000
	// suiteBudgetShare is the cache budget as a share of the bytes of
	// shared intermediates an unbounded run admits.
	suiteBudgetShare = 0.25
)

// suite is one shared-prefix suite with its members' solo results and its
// cache budget.
type suite struct {
	members []etl.SuiteWorkflow
	solos   []*etl.RunResult
	budget  int64
}

type suiteJob struct {
	cfg      config
	suites   []suite
	spillDir string
}

// setupSuite builds generator.SharedSuite-shaped suites with more rows,
// runs every member alone for the reference outputs, and sizes each
// suite's cache budget from one unbounded run of it.
func setupSuite(ctx context.Context, cfg config) (job, error) {
	j := &suiteJob{cfg: cfg, spillDir: filepath.Join(cfg.workDir, "spill")}
	for _, band := range loadBands {
		for s := 0; s < suites; s++ {
			su, err := newSuite(ctx, cfg, band, drawSeed(cfg.seed, "suite-window", band, s))
			if err != nil {
				return nil, fmt.Errorf("%s suite %d: %w", band, s, err)
			}
			j.suites = append(j.suites, su)
		}
	}
	return j, nil
}

func newSuite(ctx context.Context, cfg config, band generator.Category, base int64) (suite, error) {
	var su suite
	for i := 0; i < suiteSize; i++ {
		// generator.SharedSuite's seed schedule, with more data.
		gcfg := generator.CategoryConfig(band, base+int64(i+1)*7919)
		gcfg.PrefixSeed = base + int64(band)*104729 + 1
		gcfg.DataRows = suiteRows
		sc, err := generator.Generate(gcfg)
		if err != nil {
			return su, fmt.Errorf("generating member %d: %w", i, err)
		}
		m := etl.SuiteWorkflow{Name: fmt.Sprintf("member-%d", i), Graph: sc.Graph, Bindings: sc.Bind()}
		solo, err := etl.Run(ctx, m.Graph, m.Bindings)
		if err != nil {
			return su, fmt.Errorf("running member %d alone: %w", i, err)
		}
		su.members = append(su.members, m)
		su.solos = append(su.solos, solo)
	}
	res, err := etl.RunSuite(ctx, su.members, etl.WithSuiteWorkers(cfg.nproc))
	if err != nil {
		return su, fmt.Errorf("unbounded run: %w", err)
	}
	su.budget = int64(float64(res.Stats.Cache.AdmittedBytes) * suiteBudgetShare)
	return su, nil
}

// pass runs every suite under its cache budget with spill to disk and
// checks every member against its solo run.
func (j *suiteJob) pass(ctx context.Context, p *pass) {
	var st etl.SuiteStats
	var suiteSec float64
	for _, su := range j.suites {
		if err := os.RemoveAll(j.spillDir); err != nil {
			p.fail("clearing spill dir: %v", err)
			return
		}
		var res *etl.SuiteResult
		sec, err := p.call("share.run_suite", func() (err error) {
			res, err = etl.RunSuite(ctx, su.members, etl.WithSuiteWorkers(j.cfg.nproc),
				etl.WithSharedCache(su.budget), etl.WithSharedSpill(j.spillDir))
			return err
		})
		if err != nil {
			continue
		}
		suiteSec += sec
		for i, wr := range res.Workflows {
			if wr.Err != nil {
				p.mismatch("suite member "+wr.Name, wr.Err.Error())
				break
			}
			p.count("items", float64(nodeRows(wr.Result)))
			if diff := identicalDiff(su.solos[i], wr.Result); diff != "" {
				p.mismatch("suite member "+wr.Name+" vs solo run", diff)
				break
			}
		}
		st.NodesExecuted += res.Stats.NodesExecuted
		st.NodesIndependent += res.Stats.NodesIndependent
		c := &st.Cache
		c.Lookups += res.Stats.Cache.Lookups
		c.Hits += res.Stats.Cache.Hits
		c.HitBytes += res.Stats.Cache.HitBytes
		c.EvictedBytes += res.Stats.Cache.EvictedBytes
		c.SpilledBytes += res.Stats.Cache.SpilledBytes
		c.SpillLoads += res.Stats.Cache.SpillLoads
	}
	p.add("suite_s", suiteSec)
	p.count("share.nodes_executed", float64(st.NodesExecuted))
	p.count("share.nodes_independent", float64(st.NodesIndependent))
	p.add("share.cache_hit_ratio", ratio(float64(st.Cache.Hits), float64(st.Cache.Lookups)))
	p.add("share.hit_bytes", float64(st.Cache.HitBytes))
	p.add("share.evicted_bytes", float64(st.Cache.EvictedBytes))
	p.add("share.spilled_bytes", float64(st.Cache.SpilledBytes))
	p.add("share.spill_loads", float64(st.Cache.SpillLoads))
}
