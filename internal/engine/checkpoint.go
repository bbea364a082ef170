package engine

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"etlopt/internal/data"
	"etlopt/internal/fault"
	"etlopt/internal/obs"
	"etlopt/internal/workflow"
)

// ETL workflows run in constrained time windows, and the paper's related
// work (ref [12], Labio et al., "Efficient Resumption of Interrupted
// Warehouse Loads") motivates restart efficiency: when a nightly load
// fails halfway, re-running everything may not fit the remaining window.
// CheckpointRunner executes a workflow with per-node staging: each
// completed node's output is persisted, so a re-run after a crash resumes
// from the frontier of completed nodes instead of from the sources.
//
// The staging area is a directory of stage files (data.WriteStage), one
// per node, plus a manifest recording the stage format version and the
// workflow signature; resuming with a *different* workflow, or over a
// staging area written in another format, discards the staging area, since
// the intermediate results of one state are not valid for another.
type CheckpointRunner struct {
	engine *Engine
	dir    string
}

// NewCheckpointRunner wraps an engine with staging in dir, creating the
// directory if needed.
func NewCheckpointRunner(e *Engine, dir string) (*CheckpointRunner, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: creating checkpoint dir: %w", err)
	}
	return &CheckpointRunner{engine: e, dir: dir}, nil
}

// nodeFile names a node's stage file. The stage format is binary; the
// ".csv" extension stays because tools that size a staging area (perfbench
// among them) count staged outputs by it.
func nodeFile(id workflow.NodeID) string { return fmt.Sprintf("node-%d.csv", id) }

// Run executes the workflow through the engine's node loop, staging each
// completed source and activity output. If the staging area already holds
// results for this exact workflow (matching signature), staged nodes are
// loaded from disk instead of recomputed — the resumption path — and
// dealt into the engine's partitions like fresh rows. Targets are never
// staged. On success the staging area is removed.
//
// A cancelled ctx aborts between nodes with an error wrapping ctx.Err()
// and leaves the staging area in place: the nodes completed before the
// cancellation stay checkpointed, so a later Run with the same workflow
// resumes from them — cancellation behaves exactly like the crash the
// runner exists to survive.
func (c *CheckpointRunner) Run(ctx context.Context, g *workflow.Graph) (*RunResult, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if err := c.prepareStaging(g.Signature()); err != nil {
		return nil, err
	}
	res, err := c.engine.run(ctx, g, c)
	if err != nil {
		return nil, err
	}
	// The load completed: the staging area has served its purpose.
	if err := c.Clear(); err != nil {
		return nil, err
	}
	return res, nil
}

// restore is a stageable node's first step: when the staging area holds
// the node's output, it is read back and dealt into p partitions, and the
// node's own work is skipped.
func (c *CheckpointRunner) restore(ctx context.Context, id workflow.NodeID, n *workflow.Node, p int) (*pdata, bool, error) {
	if err := c.engine.checkFault(ctx, fault.SiteRestore, id, n, 0); err != nil {
		return nil, false, err
	}
	rows, err := data.ReadStage(filepath.Join(c.dir, nodeFile(id)), n.Out)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("engine: restoring node %s: %w", nodeKey(id, n), err)
	}
	return partitioned(rows, p), true, nil
}

// stage is a stageable node's last step: it persists the node's output in
// row order.
func (c *CheckpointRunner) stage(ctx context.Context, id workflow.NodeID, n *workflow.Node, pd *pdata) error {
	if err := c.engine.checkFault(ctx, fault.SiteStage, id, n, 0); err != nil {
		return err
	}
	if err := data.WriteStage(filepath.Join(c.dir, nodeFile(id)), n.Out, gather(pd)); err != nil {
		return fmt.Errorf("engine: staging node %s: %w", nodeKey(id, n), err)
	}
	return nil
}

// checkpointEvent journals one staging step ("staged" when a node's
// output is persisted, "restored", plus a resume event, when a resumed
// run short-circuits a node from disk) through the wrapped engine's
// flight recorder; a no-op without one.
func (c *CheckpointRunner) checkpointEvent(id workflow.NodeID, n *workflow.Node, restored bool, rows int) {
	j := c.engine.journal
	if j == nil {
		return
	}
	action := "staged"
	if restored {
		action = "restored"
	}
	j.Emit(obs.CheckpointEvent(nodeKey(id, n), action, rows))
	if restored {
		j.Emit(obs.ResumeEvent(nodeKey(id, n), rows))
	}
}

// prepareStaging validates or initializes the manifest. A mismatch (the
// workflow changed since the interrupted run, or the staging area was
// written in another stage format) clears the staging area — stale
// intermediates are unusable.
func (c *CheckpointRunner) prepareStaging(sig string) error {
	path, manifest := filepath.Join(c.dir, "MANIFEST"), fmt.Sprintf("stage-v%d %s", data.StageVersion, sig)
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if strings.TrimSpace(string(b)) == manifest {
			return nil // resumable
		}
		if err := c.Clear(); err != nil {
			return err
		}
	case !os.IsNotExist(err):
		return fmt.Errorf("engine: reading checkpoint manifest: %w", err)
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(manifest+"\n"), 0o644)
}

// Staged reports which node IDs currently have staged outputs.
func (c *CheckpointRunner) Staged() ([]workflow.NodeID, error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var ids []workflow.NodeID
	for _, e := range entries {
		// Sscanf matches a prefix, so the name must also be exactly the
		// node's file name: a torn write's temp file is not a stage.
		var id workflow.NodeID
		if _, err := fmt.Sscanf(e.Name(), "node-%d.csv", &id); err == nil && e.Name() == nodeFile(id) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// Clear removes the staging area.
func (c *CheckpointRunner) Clear() error {
	if err := os.RemoveAll(c.dir); err != nil {
		return fmt.Errorf("engine: clearing checkpoint dir: %w", err)
	}
	return nil
}
