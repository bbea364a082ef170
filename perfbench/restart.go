package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"etlopt/internal/engine"
	"etlopt/internal/fault"
	"etlopt/pkg/etl"
)

// Sizing of the restart-load workload.
const (
	// restartDraw is how many medium and how many large workflows load.
	restartDraw = 3
	// restartRows is the generated row count of every source.
	restartRows = 3_500
	// The injected crash hits a node-start between these shares of the
	// topological order, so every workflow loses a comparable share of
	// its work.
	crashFrom, crashTo = 0.4, 0.6
)

// restartFlow is one checkpointed load with the fault plan that crashes
// it partway.
type restartFlow struct {
	g         *etl.Graph
	bindings  map[string]etl.Recordset
	clean     *etl.RunResult // the fault-free reference run
	faultSeed int64
	faultRate float64
}

type restartJob struct {
	flows    []restartFlow
	stageDir string
}

// setupRestart draws the workflows, runs each clean for the reference
// outputs and picks the fault plan that crashes it partway.
func setupRestart(ctx context.Context, cfg config) (job, error) {
	scs, err := draw(cfg.seed, "restart-load", loadBands, restartDraw, restartRows)
	if err != nil {
		return nil, err
	}
	j := &restartJob{stageDir: filepath.Join(cfg.workDir, "stage")}
	for i, sc := range scs {
		f := restartFlow{g: sc.Graph, bindings: sc.Bind()}
		if f.clean, err = etl.Run(ctx, f.g, f.bindings); err != nil {
			return nil, fmt.Errorf("clean run of workflow %d: %w", i, err)
		}
		if err := f.pickFaultPlan(ctx, drawSeed(cfg.seed, "restart-load/fault", 0, i)); err != nil {
			return nil, fmt.Errorf("workflow %d: %w", i, err)
		}
		j.flows = append(j.flows, f)
	}
	return j, nil
}

// faultPlan returns a fresh permanent node-start fault plan; occurrence
// counters live in the plan, so each crash run needs its own.
func (f *restartFlow) faultPlan() *etl.FaultPlan {
	return etl.NewFaultPlan(f.faultSeed, f.faultRate,
		etl.WithFaultKind(etl.FaultPermanent), etl.WithFaultSites(fault.SiteNodeStart))
}

// pickFaultPlan tries plan seeds from seed on until the plan's first
// node-start fault falls between crashFrom and crashTo of the
// topological order, asking each plan the questions the checkpoint
// runner asks it.
func (f *restartFlow) pickFaultPlan(ctx context.Context, seed int64) error {
	order, err := f.g.TopoSort()
	if err != nil {
		return err
	}
	f.faultRate = 1 / float64(len(order))
	for k := int64(0); k < 10_000; k++ {
		f.faultSeed = seed + k
		plan := f.faultPlan()
		for i, id := range order {
			if plan.Check(ctx, fault.SiteNodeStart, int(id), 0) == nil {
				continue
			}
			at := float64(i) / float64(len(order))
			if at >= crashFrom && at < crashTo {
				return nil
			}
			break
		}
	}
	return errors.New("no fault plan crashes the workflow partway")
}

// pass crashes every checkpointed load with its fault plan, resumes it to
// completion, and runs it once without staging for the overhead's base.
func (j *restartJob) pass(ctx context.Context, p *pass) {
	var restartSec, cleanSec float64
	for _, f := range j.flows {
		if err := os.RemoveAll(j.stageDir); err != nil {
			p.fail("clearing staging dir: %v", err)
			return
		}
		crashSec, err := p.timed("checkpoint.crash_run", func() error {
			return j.checkpointRun(ctx, p, f, engine.WithFaultPlan(f.faultPlan()))
		})
		// The crash is the plan's permanent fault; anything else fails.
		if inj := (*etl.FaultInjected)(nil); !errors.As(err, &inj) || inj.Kind != etl.FaultPermanent {
			p.fail("checkpoint.crash_run: want the plan's permanent fault, got %v", err)
			continue
		}
		staged, size, err := stagingArea(j.stageDir)
		if err != nil {
			p.fail("reading staging area: %v", err)
			continue
		}
		p.count("checkpoint.staged_nodes", float64(staged))
		p.count("checkpoint.staged_bytes", float64(size))

		resumeSec, err := p.call("checkpoint.resume", func() error {
			return j.checkpointRun(ctx, p, f)
		})
		if err != nil {
			continue
		}
		_, sec, err := p.run(ctx, "engine.exec.clean", f.g, f.bindings)
		if err != nil {
			continue
		}
		restartSec += crashSec + resumeSec
		cleanSec += sec
		p.count("items", float64(nodeRows(f.clean)))
	}
	p.add("restart_s", restartSec)
	p.add("checkpoint.overhead_ratio", ratio(restartSec, cleanSec))
}

// checkpointRun runs f through the checkpoint runner and checks a
// completed run bit-identical to the clean reference. In a traced pass
// the engine journal's node times are folded in.
func (j *restartJob) checkpointRun(ctx context.Context, p *pass, f restartFlow, opts ...engine.Option) error {
	jr, fold := p.journal(f.g)
	if jr != nil {
		opts = append(opts, engine.WithJournal(jr))
	}
	defer fold()
	cr, err := engine.NewCheckpointRunner(engine.New(f.bindings, opts...), j.stageDir)
	if err != nil {
		return err
	}
	res, err := cr.Run(ctx, f.g)
	if err != nil {
		return err
	}
	p.mismatch("resumed vs clean run", identicalDiff(f.clean, res))
	return nil
}

// stagingArea counts the staged node outputs in dir and their bytes.
func stagingArea(dir string) (nodes int, size int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".csv" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		nodes++
		size += info.Size()
	}
	return nodes, size, nil
}
