// Package engine executes ETL workflows over real records. The paper
// treats workflows as operational processes run in a nightly time window;
// this package is that runtime substrate.
//
// The engine has one node loop (Engine.run): nodes execute in topological
// order, each under the retry policy and between its fault-injection
// sites, and a node's output is released as soon as no node still to run
// reads it. The loop's only parameter is the partition count P (see
// WithPartitions). At P=1 every node's output is one untagged partition
// and each activity runs through its kernel on whole inputs — the
// reference semantics. At P>1 every recordset is split across P
// partitions and each activity executes partition by partition,
// exchanging rows by key where an operator's semantics demand it (see
// parallel.go); target rows are bit-identical to P=1 at any count. The
// checkpoint runner (checkpoint.go) runs the same loop with a restore
// step before and a stage step after every source and activity.
//
// Each activity is compiled once per run into a kernel (exec.go) against
// its node's layouts — attribute positions resolved, predicate bound,
// lookup indexes built — and the kernel is shared read-only by every
// partition. Key-sensitive kernels group and match rows through
// data.KeyTable, which hashes typed values with exact Value.Key
// equivalence instead of building key strings. Records are immutable once
// emitted: kernels build their outputs in a fresh slab per call and never
// write into a record they received.
//
// Beyond running workflows, the engine is the empirical half of the
// correctness framework: two states are equivalent when, on the same
// input, they load the same record multisets into every target (§3.4), and
// the tests exercise every transition against this oracle.
package engine

import (
	"context"
	"fmt"
	"sort"
	"time"

	"etlopt/internal/data"
	"etlopt/internal/fault"
	"etlopt/internal/obs"
	"etlopt/internal/workflow"
)

// Engine executes workflows against bound recordsets.
type Engine struct {
	bindings map[string]data.Recordset
	// partitions is the run's partition count P, at least 1.
	partitions int
	// metrics, when non-nil, receives the engine's observability series
	// (see WithMetrics); nil disables collection.
	metrics *obs.Registry
	// journal, when non-nil, receives the flight-recorder event stream of
	// each run (see WithJournal); nil disables emission.
	journal *obs.Journal
	// pprofLabels tags partition workers with runtime/pprof labels (see
	// WithPprofLabels).
	pprofLabels bool
	// lookups is the run-scoped shared cache of lookup indexes (see
	// withLookupCache): each index is built once per run and every node and
	// partition references the same read-only index.
	lookups *lookupCache
	// faults, when non-nil, is the armed fault-injection plan (see
	// WithFaultPlan); nil disables every injection point.
	faults *fault.Plan
	// retry is the per-node retry policy (see WithRetry); the zero value
	// runs every node exactly once.
	retry fault.Policy
}

// Option configures an Engine.
type Option func(*Engine)

// WithPartitions sets the partition count P (default 1; counts below 1
// keep the default). Any count produces bit-identical output; the count
// only affects how the work is spread.
func WithPartitions(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.partitions = n
		}
	}
}

// New creates an engine over the given recordset bindings: every source
// recordset and surrogate-key lookup referenced by a workflow must be
// bound by name. Target recordsets may be bound (rows are loaded into
// them) or unbound (rows are only reported in the RunResult).
func New(bindings map[string]data.Recordset, opts ...Option) *Engine {
	e := &Engine{bindings: bindings, partitions: 1}
	for _, o := range opts {
		o(e)
	}
	return e
}

// RunResult reports one workflow execution.
type RunResult struct {
	// Targets maps each target recordset name to the rows loaded into it.
	Targets map[string]data.Rows
	// NodeRows reports how many rows each node emitted — the engine's
	// observability hook and the empirical counterpart of the cost model's
	// cardinalities.
	NodeRows map[workflow.NodeID]int
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
}

// Run executes the workflow and returns the loaded target rows. The graph
// must be validated and have regenerated schemata. Cancelling ctx stops
// the run at the next node or partition boundary and returns an error
// wrapping ctx.Err(); rows already loaded into bound targets stay loaded.
func (e *Engine) Run(ctx context.Context, g *workflow.Graph) (*RunResult, error) {
	return e.run(ctx, g, nil)
}

// run executes g through the node loop, framed by the run's journal
// events, span and whole-run metrics. cp, when non-nil, is the checkpoint
// runner staging the run.
func (e *Engine) run(ctx context.Context, g *workflow.Graph, cp *CheckpointRunner) (*RunResult, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rm := e.newRunMetrics(g)
	if e.journal != nil {
		e.journal.Emit(obs.RunEvent("start", "engine"))
		defer e.journal.Emit(obs.RunEvent("end", "engine"))
	}
	span := e.metrics.StartSpan("engine")
	rm.setSpan(span)
	res, err := e.withLookupCache().runNodes(ctx, g, order, rm, cp)
	span.End()
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	e.recordRun(g, res)
	return res, nil
}

// runNodes is the node loop. Every node's body runs under the retry
// policy: restore (checkpointed runs), the node-start fault site, the
// node's own work, stage (checkpointed runs). Side effects — recording
// the output, loading a bound target, staging — happen strictly after
// the node's last injection point, so a retried node is idempotent from
// the outside.
func (e *Engine) runNodes(ctx context.Context, g *workflow.Graph, order []workflow.NodeID, rm *runMetrics, cp *CheckpointRunner) (*RunResult, error) {
	p := e.partitions
	out := make(map[workflow.NodeID]*pdata, len(order))
	readers := readerCounts(g, order)
	res := &RunResult{
		Targets:  make(map[string]data.Rows),
		NodeRows: make(map[workflow.NodeID]int),
	}
	rowsSoFar := 0
	for _, id := range order {
		n := g.Node(id)
		if err := ctx.Err(); err != nil {
			// Surface where the run stopped, not just that it stopped: the
			// next node that would have run and the progress made.
			return nil, fmt.Errorf("engine: run cancelled before node %d (%s) after %d rows: %w",
				id, n.Label(), rowsSoFar, err)
		}
		activity := n.Kind == workflow.KindActivity
		source := !activity && len(g.Providers(id)) == 0
		var exec func() (*pdata, error)
		switch {
		case activity:
			exec = func() (*pdata, error) { return e.execActivity(ctx, g, id, n, out, rm, rowsSoFar) }
		case source:
			exec = func() (*pdata, error) { return e.scanNode(ctx, id, n) }
		default:
			exec = func() (*pdata, error) { return e.loadTarget(ctx, g, id, n, out, res) }
		}
		// Targets are never staged: loading is the effect a resumed run
		// must not skip, so a target always re-runs from its provider.
		staging := cp != nil && (activity || source)
		var (
			pd       *pdata
			restored bool
		)
		body := func() (err error) {
			if staging {
				if pd, restored, err = cp.restore(ctx, id, n, p); err != nil || restored {
					return err
				}
			}
			if err := e.checkFault(ctx, fault.SiteNodeStart, id, n, 0); err != nil {
				return err
			}
			if pd, err = exec(); err != nil {
				return err
			}
			if staging {
				return cp.stage(ctx, id, n, pd)
			}
			return nil
		}
		var err error
		if activity {
			err = e.runNodeJournaled(ctx, id, n, rm, func() int { return pd.total() }, body)
		} else {
			err = e.runNode(ctx, id, n, body)
		}
		if err != nil {
			return nil, err
		}
		count := pd.total()
		if activity {
			for q, ps := range pd.parts {
				rm.partRow(id, q).Add(int64(len(ps.rows)))
				rm.batchEvent(id, q, len(ps.rows))
			}
		}
		if staging {
			cp.checkpointEvent(id, n, restored, count)
		}
		out[id] = pd
		res.NodeRows[id] = count
		rowsSoFar += count
		rm.rows(id).Add(int64(count))
		release(g, id, out, readers)
	}
	return res, nil
}

// scanNode reads a source and deals its rows into the run's partitions.
func (e *Engine) scanNode(ctx context.Context, id workflow.NodeID, n *workflow.Node) (*pdata, error) {
	rows, err := e.scanSource(n)
	if err != nil {
		return nil, err
	}
	if err := e.checkFault(ctx, fault.SiteEmit, id, n, 0); err != nil {
		return nil, err
	}
	return partitioned(rows, e.partitions), nil
}

// loadTarget is where the partitioned world ends: it merges the
// provider's partitions back into order, lays the rows out by the
// target's schema and loads them into a bound target. The emit check
// precedes the load, so a retried target never loads twice.
func (e *Engine) loadTarget(ctx context.Context, g *workflow.Graph, id workflow.NodeID, n *workflow.Node, out map[workflow.NodeID]*pdata, res *RunResult) (*pdata, error) {
	pred := g.Providers(id)[0]
	rows := apply(relayout(g.Node(pred).Out, n.RS.Schema), gather(out[pred]))
	if err := e.checkFault(ctx, fault.SiteEmit, id, n, 0); err != nil {
		return nil, err
	}
	res.Targets[n.RS.Name] = rows
	if rs, ok := e.bindings[n.RS.Name]; ok {
		if err := rs.Load(rows); err != nil {
			return nil, fmt.Errorf("engine: loading target %s: %w", n.RS.Name, err)
		}
	}
	return partitioned(rows, 1), nil
}

// readerCounts counts, for every node, the input edges that read its
// output.
func readerCounts(g *workflow.Graph, order []workflow.NodeID) map[workflow.NodeID]int {
	readers := make(map[workflow.NodeID]int, len(order))
	for _, id := range order {
		for _, p := range g.Providers(id) {
			readers[p]++
		}
	}
	return readers
}

// release forgets the outputs of id's providers that no node still to run
// reads, so a run holds only the intermediates ahead of it.
func release(g *workflow.Graph, id workflow.NodeID, out map[workflow.NodeID]*pdata, readers map[workflow.NodeID]int) {
	for _, p := range g.Providers(id) {
		if readers[p]--; readers[p] == 0 {
			delete(out, p)
		}
	}
}

// scanSource reads a source recordset through its binding.
func (e *Engine) scanSource(n *workflow.Node) (data.Rows, error) {
	rs, ok := e.bindings[n.RS.Name]
	if !ok {
		return nil, fmt.Errorf("engine: source recordset %q not bound", n.RS.Name)
	}
	if !rs.Schema().SameSet(n.RS.Schema) {
		return nil, fmt.Errorf("engine: source %q bound with schema {%s}, workflow declares {%s}",
			n.RS.Name, data.Schema(rs.Schema()), n.RS.Schema)
	}
	rows, err := rs.Scan()
	if err != nil {
		return nil, fmt.Errorf("engine: scanning %s: %w", n.RS.Name, err)
	}
	// Re-project in case the binding's attribute order differs.
	return apply(relayout(rs.Schema(), n.RS.Schema), rows), nil
}

// lookupIndex is a lookup recordset interned by key: keys holds the key
// tuple of every lookup row, and vals, for surrogate-key lookups, the
// surrogate of each key id. It is read-only once built.
type lookupIndex struct {
	keys *data.KeyTable
	vals []data.Value
}

// indexLookup materializes lookup binding name. A surrogate-key index
// keys each row by its first attribute, the production key, and maps it
// to its second, the surrogate (a later row overrides an earlier one with
// an equal key). A key-set index, for lookup-based primary-key checks,
// keys each row by all of its attributes. The run-scoped lookup cache
// builds each index once and shares it with every node and partition.
func (e *Engine) indexLookup(name string, surrogate bool) (*lookupIndex, error) {
	c := e.lookups
	c.mu.Lock()
	defer c.mu.Unlock()
	key := lookupKey{name, surrogate}
	if ix, ok := c.built[key]; ok {
		return ix, nil
	}
	ix, err := e.buildLookupIndex(name, surrogate)
	if err != nil {
		return nil, err
	}
	c.built[key] = ix
	return ix, nil
}

func (e *Engine) buildLookupIndex(name string, surrogate bool) (*lookupIndex, error) {
	rs, ok := e.bindings[name]
	if !ok {
		return nil, fmt.Errorf("lookup recordset %q not bound", name)
	}
	rows, err := rs.Scan()
	if err != nil {
		return nil, err
	}
	pos := []int{0}
	if !surrogate {
		pos = make([]int, len(rs.Schema()))
		for i := range pos {
			pos[i] = i
		}
	}
	ix := &lookupIndex{keys: data.NewKeyTable(pos, len(rows))}
	for _, r := range rows {
		switch {
		case surrogate && len(r) < 2:
			return nil, fmt.Errorf("lookup %q: row %s has fewer than 2 attributes", name, r)
		case !surrogate && len(r) != len(pos):
			return nil, fmt.Errorf("lookup %q: row %s has %d attributes, schema has %d", name, r, len(r), len(pos))
		}
		id, added := ix.keys.Intern(r)
		if !surrogate {
			continue
		}
		if added {
			ix.vals = append(ix.vals, r[1])
		} else {
			ix.vals[id] = r[1]
		}
	}
	return ix, nil
}

// SortTargets returns the target names of a result in sorted order, for
// deterministic reporting.
func (r *RunResult) SortTargets() []string {
	names := make([]string, 0, len(r.Targets))
	for n := range r.Targets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
