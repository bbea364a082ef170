package main

import (
	"context"
	"fmt"

	"etlopt/internal/analysis"
	"etlopt/internal/generator"
	"etlopt/pkg/etl"
)

// Sizing of the optimize workload.
const (
	// optimizeDraw is how many generator workflows each band contributes.
	optimizeDraw = 4
	// searchBudget is the state budget of every search, in generated
	// states (etl.WithMaxStates); nightly-load's plan choice uses it too.
	searchBudget = 2_500
)

var bands = []generator.Category{generator.Small, generator.Medium, generator.Large}

// optimizeFlow is one workflow of the draw: its DSL text and the data its
// plans are verified on.
type optimizeFlow struct {
	band     generator.Category
	text     string
	bindings map[string]etl.Recordset
}

type optimizeJob struct {
	cfg   config
	flows []optimizeFlow
}

// setupOptimize draws the workflows and serializes them to DSL text; the
// timed job starts from that text.
func setupOptimize(_ context.Context, cfg config) (job, error) {
	scs, err := draw(cfg.seed, "optimize", bands, optimizeDraw, 0)
	if err != nil {
		return nil, err
	}
	j := &optimizeJob{cfg: cfg}
	for i, sc := range scs {
		text, err := etl.Serialize(sc.Graph)
		if err != nil {
			return nil, fmt.Errorf("serializing workflow %d: %w", i, err)
		}
		j.flows = append(j.flows, optimizeFlow{band: bands[i/optimizeDraw], text: text, bindings: sc.Bind()})
	}
	return j, nil
}

// search is one algorithm the pass runs on a workflow, under the span
// named layer.
type search struct {
	layer string
	algo  etl.Algorithm
}

// pass parses, interprets and searches every workflow of the draw, then
// verifies each plan against the initial workflow on the generator's data.
func (j *optimizeJob) pass(ctx context.Context, p *pass) {
	bandRatios := map[generator.Category][]float64{}
	var searchSec, generated float64
	for _, f := range j.flows {
		var g *etl.Graph
		if _, err := p.call("dsl.parse", func() (err error) { g, err = etl.Parse(f.text); return err }); err != nil {
			continue
		}
		if _, err := p.call("analysis.interpret", func() error {
			_, err := analysis.Interpret(g)
			return err
		}); err != nil {
			continue
		}

		searches := []search{{"core.hs", etl.HS}, {"core.hsg", etl.HSGreedy}}
		if f.band == generator.Small {
			searches = append(searches, search{"core.es", etl.ES})
		}
		var plans []*etl.Result
		for _, s := range searches {
			var res *etl.Result
			sec, err := p.call(s.layer, func() (err error) {
				res, err = etl.Optimize(ctx, g, etl.WithAlgorithm(s.algo),
					etl.WithMaxStates(searchBudget), etl.WithWorkers(j.cfg.nproc))
				return err
			})
			if err != nil {
				continue
			}
			searchSec += sec
			generated += float64(res.Generated)
			p.count("core.states_generated", float64(res.Generated))
			p.count("core.states_visited", float64(res.Visited))
			plans = append(plans, res)
		}
		if len(plans) == 0 {
			continue
		}
		best := plans[0]
		for _, r := range plans[1:] {
			if r.BestCost < best.BestCost {
				best = r
			}
		}
		bandRatios[f.band] = append(bandRatios[f.band], ratio(best.BestCost, best.InitialCost))

		initial, _, err := p.run(ctx, "engine.exec.check", g, f.bindings)
		if err != nil {
			continue
		}
		want := targetMultisets(initial.Targets)
		for _, plan := range plans {
			var ok bool
			var diff string
			if _, err := p.call("equiv.verify", func() (err error) {
				ok, diff, err = etl.VerifyEmpirical(g, plan.Best, f.bindings)
				return err
			}); err == nil && !ok {
				p.mismatch("equiv.verify "+plan.Algorithm, "not equivalent: "+diff)
			}
			got, _, err := p.run(ctx, "engine.exec.check", plan.Best, f.bindings)
			if err != nil {
				continue
			}
			p.mismatch("optimized vs initial targets ("+plan.Algorithm+")",
				multisetDiff(want, targetMultisets(got.Targets)))
		}
	}

	var all []float64
	for _, band := range bands {
		p.count("cost.modeled_cost_ratio."+band.String(), geomean(bandRatios[band]))
		all = append(all, bandRatios[band]...)
	}
	p.count("modeled_cost_ratio", geomean(all))
	p.count("items", generated)
	p.add("optimize_s", p.layerSec)
	p.add("search_states_per_s", ratio(generated, searchSec))
}
