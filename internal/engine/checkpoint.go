package engine

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
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
// The staging area is a directory of CSV files keyed by node ID plus a
// manifest recording the workflow signature; resuming with a *different*
// workflow (signature mismatch) discards the staging area, since the
// intermediate results of one state are not valid for another.
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

// manifestPath returns the path of the staging manifest.
func (c *CheckpointRunner) manifestPath() string {
	return filepath.Join(c.dir, "MANIFEST")
}

func (c *CheckpointRunner) nodePath(id workflow.NodeID) string {
	return filepath.Join(c.dir, fmt.Sprintf("node-%d.csv", id))
}

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
	rows, ok, err := c.loadStage(id)
	if err != nil || !ok {
		return nil, false, err
	}
	return partitioned(rows, p), true, nil
}

// stage is a stageable node's last step: it persists the node's output in
// row order.
func (c *CheckpointRunner) stage(ctx context.Context, id workflow.NodeID, n *workflow.Node, pd *pdata) error {
	if err := c.engine.checkFault(ctx, fault.SiteStage, id, n, 0); err != nil {
		return err
	}
	return c.saveStage(id, n.Out, gather(pd))
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

// prepareStaging validates or initializes the manifest. A signature
// mismatch (the workflow changed since the interrupted run) clears the
// staging area — stale intermediates are unusable.
func (c *CheckpointRunner) prepareStaging(sig string) error {
	b, err := os.ReadFile(c.manifestPath())
	switch {
	case err == nil:
		if strings.TrimSpace(string(b)) == sig {
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
	return os.WriteFile(c.manifestPath(), []byte(sig+"\n"), 0o644)
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
		var id int
		if _, err := fmt.Sscanf(e.Name(), "node-%d.csv", &id); err == nil {
			ids = append(ids, workflow.NodeID(id))
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

// saveStage atomically persists one node's output.
func (c *CheckpointRunner) saveStage(id workflow.NodeID, schema data.Schema, rows data.Rows) error {
	tmp := c.nodePath(id) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write(schema); err != nil {
		f.Close()
		return err
	}
	for _, rec := range rows {
		fields := make([]string, len(rec))
		for i, v := range rec {
			if v.IsNull() {
				fields[i] = "NULL"
			} else {
				fields[i] = v.String()
			}
		}
		if err := w.Write(fields); err != nil {
			f.Close()
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, c.nodePath(id))
}

// loadStage reads one node's staged output if present.
func (c *CheckpointRunner) loadStage(id workflow.NodeID) (data.Rows, bool, error) {
	f, err := os.Open(c.nodePath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	if _, err := r.Read(); err != nil { // header
		if err == io.EOF {
			return nil, true, nil
		}
		return nil, false, fmt.Errorf("engine: reading stage %d: %w", id, err)
	}
	var rows data.Rows
	for {
		fields, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, false, fmt.Errorf("engine: reading stage %d: %w", id, err)
		}
		rec := make(data.Record, len(fields))
		for i, s := range fields {
			rec[i] = data.ParseValue(s)
		}
		rows = append(rows, rec)
	}
	return rows, true, nil
}
