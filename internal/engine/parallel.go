package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"etlopt/internal/data"
	"etlopt/internal/fault"
	"etlopt/internal/workflow"
)

// This file implements the Parallel execution mode: every recordset is
// split across P partitions, order-preserving operators run partition by
// partition with no coordination, and key-sensitive operators repartition
// their input by key tuple first so that all rows that must meet share a
// partition.
//
// Determinism is carried by sequence tags. Each partitioned row owns an
// int64 tag with two invariants:
//
//  1. tags are strictly increasing within a partition, and
//  2. sorting all of a node's rows by tag reproduces exactly the row
//     order the materialized engine would have produced for that node.
//
// Source scatter establishes the invariants (row i of a scan gets tag i),
// every operator preserves them (see the "Partition contract" comments in
// exec.go), and the final gather is a k-way merge by tag — so the target
// rows are bit-identical to Materialized mode at any partition count.

// pslice is one partition of a node's output: rows plus their sequence
// tags, index-aligned. A pslice is immutable once built.
type pslice struct {
	rows data.Rows
	seqs []int64
}

// pdata is a node's full partitioned output.
type pdata struct {
	parts []pslice
}

func newPdata(p int) *pdata { return &pdata{parts: make([]pslice, p)} }

// total counts the rows across all partitions.
func (pd *pdata) total() int {
	n := 0
	for _, ps := range pd.parts {
		n += len(ps.rows)
	}
	return n
}

// maxSeq returns the largest tag across all partitions, or -1 when empty.
func (pd *pdata) maxSeq() int64 {
	max := int64(-1)
	for _, ps := range pd.parts {
		if n := len(ps.seqs); n > 0 && ps.seqs[n-1] > max {
			// Tags are ascending within a partition, so the last one is
			// the partition's max.
			max = ps.seqs[n-1]
		}
	}
	return max
}

// scatterRows deals rows round-robin into P partitions, tagging row i
// with sequence i. This is the canonical way fresh (merged-order) rows
// enter the partitioned world.
func scatterRows(rows data.Rows, p int) *pdata {
	parts := rows.SplitRoundRobin(p)
	pd := &pdata{parts: make([]pslice, len(parts))}
	for i := range parts {
		seqs := make([]int64, len(parts[i]))
		for j := range seqs {
			seqs[j] = int64(i + j*len(parts))
		}
		pd.parts[i] = pslice{rows: parts[i], seqs: seqs}
	}
	return pd
}

// mergeBySeq k-way-merges tagged slices into one slice ordered by
// ascending tag. Inputs must honour invariant 1; tags are globally
// unique, so the merge is total.
func mergeBySeq(parts []pslice) pslice {
	if len(parts) == 1 {
		return parts[0]
	}
	total := 0
	for _, ps := range parts {
		total += len(ps.rows)
	}
	out := pslice{rows: make(data.Rows, 0, total), seqs: make([]int64, 0, total)}
	heads := make([]int, len(parts))
	for len(out.rows) < total {
		best := -1
		for p, ps := range parts {
			if heads[p] >= len(ps.rows) {
				continue
			}
			if best < 0 || ps.seqs[heads[p]] < parts[best].seqs[heads[best]] {
				best = p
			}
		}
		out.rows = append(out.rows, parts[best].rows[heads[best]])
		out.seqs = append(out.seqs, parts[best].seqs[heads[best]])
		heads[best]++
	}
	return out
}

// gather restores a node's materialized row order (invariant 2).
func gather(pd *pdata) data.Rows { return mergeBySeq(pd.parts).rows }

// realignPdata re-lays each partition's rows out through proj, keeping
// tags; identity when proj is nil. Partitions are realigned concurrently —
// the projection is pure per-row work.
func realignPdata(pd *pdata, proj *data.Projection) *pdata {
	if proj == nil {
		return pd
	}
	out := newPdata(len(pd.parts))
	var wg sync.WaitGroup
	wg.Add(len(pd.parts))
	for p := range pd.parts {
		go func(p int) {
			defer wg.Done()
			out.parts[p] = pslice{rows: proj.Apply(pd.parts[p].rows), seqs: pd.parts[p].seqs}
		}(p)
	}
	wg.Wait()
	return out
}

// applyMaskTagged keeps the rows (and tags) selected by an exec.go mask.
func applyMaskTagged(ps pslice, keep []bool) pslice {
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	if n == len(ps.rows) {
		return ps
	}
	out := pslice{rows: make(data.Rows, 0, n), seqs: make([]int64, 0, n)}
	for i, k := range keep {
		if k {
			out.rows = append(out.rows, ps.rows[i])
			out.seqs = append(out.seqs, ps.seqs[i])
		}
	}
	return out
}

// lookupCache is the run-scoped shared cache of lookup indexes: the first
// node or partition to need an index builds it under the lock, every
// later request gets the same read-only index.
type lookupCache struct {
	mu    sync.Mutex
	built map[lookupKey]*lookupIndex
}

// lookupKey names one index: a recordset can serve as a surrogate-key
// lookup and as a key set, which index it differently.
type lookupKey struct {
	name      string
	surrogate bool
}

// partitionCount resolves the configured partition count; default is the
// number of CPUs.
func (e *Engine) partitionCount() int {
	if e.partitions > 0 {
		return e.partitions
	}
	return runtime.GOMAXPROCS(0)
}

// withLookupCache returns a copy of the engine carrying a fresh run-scoped
// lookup cache. The copy shares the (read-only) bindings and metrics.
func (e *Engine) withLookupCache() *Engine {
	ec := *e
	ec.lookups = &lookupCache{built: make(map[lookupKey]*lookupIndex)}
	return &ec
}

// runParallel evaluates the graph node by node in topological order like
// runMaterialized, but holds every intermediate recordset partitioned and
// executes each activity across P partition workers.
func (e *Engine) runParallel(ctx context.Context, g *workflow.Graph, rm *runMetrics) (*RunResult, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	p := e.partitionCount()
	ec := e.withLookupCache()
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
			return nil, fmt.Errorf("engine: parallel run cancelled before node %d (%s) after %d rows: %w",
				id, n.Label(), rowsSoFar, err)
		}
		count := 0
		switch n.Kind {
		case workflow.KindRecordset:
			preds := g.Providers(id)
			if len(preds) == 0 {
				var pd *pdata
				if err := e.runNode(ctx, id, n, func() error {
					if err := e.checkFault(ctx, fault.SiteNodeStart, id, n, 0); err != nil {
						return err
					}
					rows, err := ec.scanSource(n)
					if err != nil {
						return err
					}
					if err := e.checkFault(ctx, fault.SiteEmit, id, n, 0); err != nil {
						return err
					}
					pd = scatterRows(rows, p)
					return nil
				}); err != nil {
					return nil, err
				}
				out[id] = pd
				count = pd.total()
			} else {
				// Targets are where the partitioned world ends: merge the
				// provider's partitions back into materialized order. The
				// emit check precedes the Load, so a retried target never
				// loads twice.
				if err := e.runNode(ctx, id, n, func() error {
					if err := e.checkFault(ctx, fault.SiteNodeStart, id, n, 0); err != nil {
						return err
					}
					rows := gather(out[preds[0]])
					rows = ec.projectForTarget(rows, g.Node(preds[0]).Out, n.RS.Schema)
					if err := e.checkFault(ctx, fault.SiteEmit, id, n, 0); err != nil {
						return err
					}
					res.Targets[n.RS.Name] = rows
					count = len(rows)
					if rs, ok := ec.bindings[n.RS.Name]; ok {
						if err := rs.Load(rows); err != nil {
							return fmt.Errorf("engine: loading target %s: %w", n.RS.Name, err)
						}
					}
					return nil
				}); err != nil {
					return nil, err
				}
			}
		case workflow.KindActivity:
			var pd *pdata
			if err := e.runNodeJournaled(ctx, id, n, rm, func() int { return pd.total() }, func() error {
				if err := e.checkFault(ctx, fault.SiteNodeStart, id, n, 0); err != nil {
					return err
				}
				sp := rm.nodeSpan(id)
				var err error
				pd, err = ec.execParallel(ctx, g, id, n, out, p, rm, rowsSoFar)
				sp.End()
				if err != nil {
					return err
				}
				// Per-partition emit checks mirror forEachPartition's
				// no-short-circuit rule: every partition's occurrence is
				// consumed even after one fires, so the plan's schedule is
				// independent of which partition fails first.
				var emitErr error
				if e.faults != nil {
					for q := 0; q < p; q++ {
						if ferr := e.checkFault(ctx, fault.SiteEmit, id, n, q); ferr != nil && emitErr == nil {
							emitErr = ferr
						}
					}
				}
				return emitErr
			}); err != nil {
				return nil, err
			}
			out[id] = pd
			count = pd.total()
			for q, ps := range pd.parts {
				rm.partRow(id, q).Add(int64(len(ps.rows)))
				rm.batchEvent(id, q, len(ps.rows))
			}
		}
		res.NodeRows[id] = count
		rowsSoFar += count
		rm.rows(id).Add(int64(count))
		release(g, id, out, readers)
	}
	return res, nil
}

// forEachPartition runs fn(p) for every partition on its own goroutine,
// observing per-partition busy time. A context already cancelled when a
// partition starts yields the parallel cancellation error (node, partition
// and progress identified); otherwise the lowest-indexed partition error
// wins, deterministically.
func (e *Engine) forEachPartition(ctx context.Context, id workflow.NodeID, n *workflow.Node, p int, rm *runMetrics, rowsSoFar int, fn func(q int) error) error {
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for q := 0; q < p; q++ {
		go func(q int) {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				errs[q] = fmt.Errorf("engine: parallel run cancelled at node %d (%s) partition %d after %d rows: %w",
					id, n.Label(), q, rowsSoFar, err)
				return
			}
			start := time.Now()
			if e.pprofLabels {
				// Tag the partition worker so CPU profiles attribute samples
				// to the node and partition that burned them.
				pprof.Do(ctx, pprof.Labels(
					"etl", "engine",
					"etl_node", n.Label(),
					"etl_partition", strconv.Itoa(q),
				), func(context.Context) {
					errs[q] = fn(q)
				})
			} else {
				errs[q] = fn(q)
			}
			rm.busy(q).Add(time.Since(start).Seconds())
		}(q)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// exchangeByKey repartitions pd so that every row whose key tuple (the
// values at pos) hashes to partition q lands in partition q, preserving
// tag order within each destination. The hash is data.HashKey, so rows
// whose keys are equal under Value.Key always meet; it is fixed and
// platform-independent, so every intermediate partition layout is
// reproducible across runs and builds. Rows routed are counted on the
// node's exchange series.
func (e *Engine) exchangeByKey(ctx context.Context, id workflow.NodeID, n *workflow.Node, pd *pdata, p int, rm *runMetrics, rowsSoFar int, pos []int) (*pdata, error) {
	if p == 1 {
		// A single partition already co-locates every key; nothing routes.
		return pd, nil
	}
	// Phase 1, partition-parallel: each source partition deals its rows
	// into per-destination buckets; buckets inherit ascending tags.
	buckets := make([][]pslice, p) // [src][dst]
	err := e.forEachPartition(ctx, id, n, p, rm, rowsSoFar, func(q int) error {
		if err := e.checkFault(ctx, fault.SiteExchange, id, n, q); err != nil {
			return err
		}
		dst := make([]pslice, p)
		ps := pd.parts[q]
		for i, r := range ps.rows {
			d := int(data.HashKey(r, pos) % uint64(p))
			dst[d].rows = append(dst[d].rows, r)
			dst[d].seqs = append(dst[d].seqs, ps.seqs[i])
		}
		buckets[q] = dst
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Phase 2, partition-parallel: each destination merges its p source
	// buckets by tag, restoring invariant 1.
	result := newPdata(p)
	err = e.forEachPartition(ctx, id, n, p, rm, rowsSoFar, func(q int) error {
		mine := make([]pslice, p)
		for src := 0; src < p; src++ {
			mine[src] = buckets[src][q]
		}
		result.parts[q] = mergeBySeq(mine)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rm.exchange(id).Add(int64(pd.total()))
	rm.exchangeEvent(id, pd.total())
	return result, nil
}

// execParallel compiles one activity once and runs it over partitioned
// inputs; every partition shares the kernel. Cancellation errors pass
// through already annotated; any other failure is wrapped with the
// activity's identity like the materialized path.
func (e *Engine) execParallel(ctx context.Context, g *workflow.Graph, id workflow.NodeID, n *workflow.Node, out map[workflow.NodeID]*pdata, p int, rm *runMetrics, rowsSoFar int) (*pdata, error) {
	preds := g.Providers(id)
	provided := make([]data.Schema, len(preds))
	for i, pr := range preds {
		provided[i] = g.Node(pr).Out
	}
	k, err := e.compile(n.Act, provided, n.In, n.Out)
	var pd *pdata
	if err == nil {
		// Align every input to the node's derived input layout up front,
		// so key positions and per-partition execution see n.In[i]
		// layouts.
		inputs := make([]*pdata, len(preds))
		for i, pr := range preds {
			inputs[i] = realignPdata(out[pr], k.realign[i])
		}
		pd, err = e.execParallelOp(ctx, id, n, k, inputs, p, rm, rowsSoFar)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		return nil, fmt.Errorf("engine: activity %d (%s): %w", id, n.Label(), err)
	}
	return pd, nil
}

func (e *Engine) execParallelOp(ctx context.Context, id workflow.NodeID, n *workflow.Node, k *kernel, inputs []*pdata, p int, rm *runMetrics, rowsSoFar int) (*pdata, error) {
	run := func(fn func(q int) error) error {
		return e.forEachPartition(ctx, id, n, p, rm, rowsSoFar, fn)
	}
	// exchange co-locates the rows of input i whose keys at pos are equal.
	exchange := func(i int, pos []int) (*pdata, error) {
		return e.exchangeByKey(ctx, id, n, inputs[i], p, rm, rowsSoFar, pos)
	}
	if streamable(k.a) {
		// Order-preserving unaries run partition-locally; survivors keep
		// their tags, 1:1 transforms inherit them.
		result := newPdata(p)
		err := run(func(q int) error {
			var err error
			result.parts[q], err = k.execLocal(inputs[0].parts[q])
			return err
		})
		return result, err
	}
	switch k.a.Sem.Op {
	case workflow.OpDistinct, workflow.OpPKCheck: // pkcheck: group-based; lookup-based is streamable
		ex, err := exchange(0, k.pos)
		if err != nil {
			return nil, err
		}
		result := newPdata(p)
		err = run(func(q int) error {
			keep, err := k.mask(ex.parts[q].rows)
			if err != nil {
				return err
			}
			result.parts[q] = applyMaskTagged(ex.parts[q], keep)
			return nil
		})
		return result, err
	case workflow.OpAggregate:
		ex, err := exchange(0, k.pos)
		if err != nil {
			return nil, err
		}
		result := newPdata(p)
		err = run(func(q int) error {
			ps := ex.parts[q]
			rows, first, err := k.aggregate(ps.rows)
			if err != nil {
				return err
			}
			// Each group's output row adopts the tag of the group's first
			// input row; with a group's rows co-located that is its global
			// first occurrence, so the merge restores first-seen order.
			seqs := make([]int64, len(first))
			for g, i := range first {
				seqs[g] = ps.seqs[i]
			}
			result.parts[q] = pslice{rows: rows, seqs: seqs}
			return nil
		})
		return result, err
	case workflow.OpMerged:
		// A merged package with a blocking component can't split: run it
		// whole on merged rows and re-scatter.
		rows, err := k.exec([]data.Rows{gather(inputs[0])})
		if err != nil {
			return nil, err
		}
		return scatterRows(rows, p), nil
	case workflow.OpUnion:
		return e.parUnion(ctx, id, n, k, inputs, p, rm, rowsSoFar)
	case workflow.OpJoin:
		lex, err := exchange(0, k.pos)
		if err != nil {
			return nil, err
		}
		rex, err := exchange(1, k.rpos)
		if err != nil {
			return nil, err
		}
		return e.parJoin(ctx, id, n, k, lex, rex, p, rm, rowsSoFar)
	default: // diff, intersect
		lex, err := exchange(0, k.pos)
		if err != nil {
			return nil, err
		}
		rex, err := exchange(1, k.rpos)
		if err != nil {
			return nil, err
		}
		result := newPdata(p)
		err = run(func(q int) error {
			result.parts[q] = applyMaskTagged(lex.parts[q], k.maskPresence(lex.parts[q].rows, rex.parts[q].rows))
			return nil
		})
		return result, err
	}
}

// execLocal runs one order-preserving activity on a single partition,
// carrying tags through: filters keep survivor tags, 1:1 transforms keep
// all tags, merged packages thread both through their components.
func (k *kernel) execLocal(ps pslice) (pslice, error) {
	switch k.a.Sem.Op {
	case workflow.OpFilter, workflow.OpNotNull, workflow.OpPKCheck:
		keep, err := k.mask(ps.rows)
		if err != nil {
			return pslice{}, err
		}
		return applyMaskTagged(ps, keep), nil
	case workflow.OpProject, workflow.OpFunc, workflow.OpSurrogateKey:
		rows, err := k.transform(ps.rows)
		if err != nil {
			return pslice{}, err
		}
		return pslice{rows: rows, seqs: ps.seqs}, nil
	case workflow.OpMerged:
		cur := ps
		for _, c := range k.comps {
			var err error
			if cur, err = c.execLocal(cur); err != nil {
				return pslice{}, fmt.Errorf("merged component %s: %w", c.a.Sem, err)
			}
		}
		return cur, nil
	default:
		return pslice{}, fmt.Errorf("internal error: %s is not partition-local", k.a.Sem.Op)
	}
}

// parUnion concatenates the inputs partition-wise: left rows keep their
// tags, right tags are shifted past the left input's global maximum, so
// the merged order is all left rows then all right rows — the
// materialized union order.
func (e *Engine) parUnion(ctx context.Context, id workflow.NodeID, n *workflow.Node, k *kernel, inputs []*pdata, p int, rm *runMetrics, rowsSoFar int) (*pdata, error) {
	l, r := inputs[0], inputs[1]
	offset := l.maxSeq() + 1
	result := newPdata(p)
	err := e.forEachPartition(ctx, id, n, p, rm, rowsSoFar, func(q int) error {
		lp, rp := l.parts[q], r.parts[q]
		rows := make(data.Rows, 0, len(lp.rows)+len(rp.rows))
		rows = append(rows, apply(k.proj, lp.rows)...)
		rows = append(rows, apply(k.rproj, rp.rows)...)
		seqs := make([]int64, 0, len(rows))
		seqs = append(seqs, lp.seqs...)
		for _, s := range rp.seqs {
			seqs = append(seqs, s+offset)
		}
		result.parts[q] = pslice{rows: rows, seqs: seqs}
		return nil
	})
	return result, err
}

// parJoin joins each partition of the key-exchanged inputs in nested-loop
// order, then k-way merges the partitions by (left tag, right tag) — the
// exact materialized join order — and re-scatters the merged rows with
// fresh tags.
func (e *Engine) parJoin(ctx context.Context, id workflow.NodeID, n *workflow.Node, k *kernel, lex, rex *pdata, p int, rm *runMetrics, rowsSoFar int) (*pdata, error) {
	type joined struct {
		rows data.Rows
		l, r []int64
	}
	per := make([]joined, p)
	err := e.forEachPartition(ctx, id, n, p, rm, rowsSoFar, func(q int) error {
		lp, rp := lex.parts[q], rex.parts[q]
		rows, pairs := k.join(lp.rows, rp.rows)
		out := joined{rows: rows, l: make([]int64, len(pairs)), r: make([]int64, len(pairs))}
		for i, pr := range pairs {
			out.l[i], out.r[i] = lp.seqs[pr[0]], rp.seqs[pr[1]]
		}
		per[q] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Per-partition outputs are sorted by (left, right) tag already —
	// left rows were visited in tag order, matches in right tag order —
	// so a k-way merge on the pair yields the global nested-loop order.
	total := 0
	for _, j := range per {
		total += len(j.rows)
	}
	merged := make(data.Rows, 0, total)
	heads := make([]int, p)
	for len(merged) < total {
		best := -1
		for q := 0; q < p; q++ {
			if heads[q] >= len(per[q].rows) {
				continue
			}
			if best < 0 ||
				per[q].l[heads[q]] < per[best].l[heads[best]] ||
				(per[q].l[heads[q]] == per[best].l[heads[best]] && per[q].r[heads[q]] < per[best].r[heads[best]]) {
				best = q
			}
		}
		merged = append(merged, per[best].rows[heads[best]])
		heads[best]++
	}
	return scatterRows(merged, p), nil
}
