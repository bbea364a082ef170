package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"etlopt/internal/data"
	"etlopt/internal/fault"
	"etlopt/internal/workflow"
)

// This file implements execution at P>1: every recordset is split across
// P partitions, order-preserving operators run partition by partition
// with no coordination, and key-sensitive operators repartition their
// input by key tuple first so that all rows that must meet share a
// partition. At P=1 a node's output is a single untagged partition and
// activities run through their kernels on whole inputs.
//
// Determinism is carried by sequence tags. At P>1 each partitioned row
// owns an int64 tag with two invariants:
//
//  1. tags are strictly increasing within a partition, and
//  2. sorting all of a node's rows by tag reproduces exactly the row
//     order the P=1 run produces for that node.
//
// Source scatter establishes the invariants (row i of a scan gets tag i),
// every operator preserves them (see the "Partition contract" comments in
// exec.go), and the final gather is a k-way merge by tag — so the target
// rows are bit-identical to P=1 at any partition count.

// pslice is one partition of a node's output: rows plus their sequence
// tags, index-aligned (no tags at P=1). A pslice is immutable once built.
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

// partitioned deals fresh rows into p partitions: at P=1 the single
// partition holds them as they are, untagged and uncopied; above, through
// scatterRows.
func partitioned(rows data.Rows, p int) *pdata {
	if p == 1 {
		return &pdata{parts: []pslice{{rows: rows}}}
	}
	return scatterRows(rows, p)
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

// gather restores a node's row order (invariant 2); at P=1 it is the
// single partition's rows.
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

// withLookupCache returns a copy of the engine carrying a fresh run-scoped
// lookup cache. The copy shares the (read-only) bindings and metrics.
func (e *Engine) withLookupCache() *Engine {
	ec := *e
	ec.lookups = &lookupCache{built: make(map[lookupKey]*lookupIndex)}
	return &ec
}

// forEachPartition runs fn(p) for every partition on its own goroutine,
// observing per-partition busy time. A context already cancelled when a
// partition starts yields the cancellation error (node, partition and
// progress identified); otherwise the lowest-indexed partition error
// wins, deterministically.
func (e *Engine) forEachPartition(ctx context.Context, id workflow.NodeID, n *workflow.Node, p int, rm *runMetrics, rowsSoFar int, fn func(q int) error) error {
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for q := 0; q < p; q++ {
		go func(q int) {
			defer wg.Done()
			if err := ctx.Err(); err != nil {
				errs[q] = fmt.Errorf("engine: run cancelled at node %d (%s) partition %d after %d rows: %w",
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

// execActivity compiles one activity once and runs it over its
// providers' outputs; every partition shares the kernel. At P=1 the
// kernel runs on the whole inputs; above, execParallelOp runs it over the
// partitions. Each partition's emit site follows. Cancellation errors
// pass through already annotated; any other failure is wrapped with the
// activity's identity.
func (e *Engine) execActivity(ctx context.Context, g *workflow.Graph, id workflow.NodeID, n *workflow.Node, out map[workflow.NodeID]*pdata, rm *runMetrics, rowsSoFar int) (*pdata, error) {
	p := e.partitions
	preds := g.Providers(id)
	provided := make([]data.Schema, len(preds))
	for i, pr := range preds {
		provided[i] = g.Node(pr).Out
	}
	var pd *pdata
	err := rm.timed(id, func() error {
		k, err := e.compile(n.Act, provided, n.In, n.Out)
		if err != nil {
			return err
		}
		if p == 1 {
			inputs := make([]data.Rows, len(preds))
			for i, pr := range preds {
				inputs[i] = out[pr].parts[0].rows
			}
			var rows data.Rows
			err = e.forEachPartition(ctx, id, n, 1, rm, rowsSoFar, func(int) (err error) {
				rows, err = k.run(inputs)
				return err
			})
			pd = partitioned(rows, 1)
			return err
		}
		// Align every input to the node's derived input layout up front,
		// so key positions and per-partition execution see n.In[i]
		// layouts.
		inputs := make([]*pdata, len(preds))
		for i, pr := range preds {
			inputs[i] = realignPdata(out[pr], k.realign[i])
		}
		pd, err = e.execParallelOp(ctx, id, n, k, inputs, p, rm, rowsSoFar)
		return err
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		return nil, fmt.Errorf("engine: activity %d (%s): %w", id, n.Label(), err)
	}
	// Per-partition emit checks mirror forEachPartition's no-short-circuit
	// rule: every partition's occurrence is consumed even after one fires,
	// so the plan's schedule is independent of which partition fails
	// first.
	var emitErr error
	if e.faults != nil {
		for q := 0; q < p; q++ {
			if ferr := e.checkFault(ctx, fault.SiteEmit, id, n, q); ferr != nil && emitErr == nil {
				emitErr = ferr
			}
		}
	}
	return pd, emitErr
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

// streamable reports whether an activity processes each record
// independently and in order, so it runs partition-locally with no
// exchange.
func streamable(a *workflow.Activity) bool {
	switch a.Sem.Op {
	case workflow.OpFilter, workflow.OpNotNull, workflow.OpProject, workflow.OpFunc, workflow.OpSurrogateKey:
		return true
	case workflow.OpPKCheck:
		return a.Sem.Lookup != ""
	case workflow.OpMerged:
		for _, comp := range a.Sem.Components {
			if !streamable(comp) {
				return false
			}
		}
		return true
	default:
		return false
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
// the merged order is all left rows then all right rows — the P=1 union
// order.
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
// exact P=1 join order — and re-scatters the merged rows with
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
