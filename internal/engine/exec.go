package engine

import (
	"fmt"

	"etlopt/internal/algebra"
	"etlopt/internal/data"
	"etlopt/internal/workflow"
)

// kernel is one activity compiled against its node's layouts: attribute
// names are resolved to positions, the predicate is bound, the function
// and lookup index are fetched, all once per node per run. A kernel is
// read-only after compile, so every partition of a node shares one.
//
// Kernels never mutate a record they receive. Records they emit are
// either input records passed through unchanged (filters, set operators)
// or fresh records carved out of a slab allocated by the same call
// (data.Projection.Apply, joinLayout.build); a kernel sets values only in
// records it has just built, before returning them.
type kernel struct {
	a   *workflow.Activity
	in  []data.Schema
	out data.Schema
	// realign lays provider i's rows out by in[i]; nil where the provider
	// already emits that layout.
	realign []*data.Projection

	pred algebra.Bound // filter predicate bound to in[0]
	// pos holds in[0] positions: the checked attributes (notnull), the key
	// (pkcheck, join, diff, intersect, surrogate key), the groupers
	// (aggregate) or every attribute (distinct).
	pos []int
	// rpos holds the key's in[1] positions (join, diff, intersect).
	rpos []int
	// proj lays in[0] rows out by out (project, func, surrogate key,
	// aggregate representative, union left); rproj does the same for
	// in[1] (union right). nil is the identity.
	proj, rproj *data.Projection
	fn          algebra.Func // func
	args        []int        // func argument positions in in[0]
	outPos      int          // generated attribute's position in out
	aggPos      int          // aggregated attribute's position; -1 for COUNT
	lookup      *lookupIndex // surrogate key and lookup-based pkcheck
	jl          joinLayout
	comps       []*kernel // merged components, in execution order
}

// relayout compiles the re-layout from src to dst; nil when they match.
func relayout(src, dst data.Schema) *data.Projection {
	if src.Equal(dst) {
		return nil
	}
	p := data.NewProjection(src, dst)
	return &p
}

// apply re-lays rows out through p; a nil p passes them through.
func apply(p *data.Projection, rows data.Rows) data.Rows {
	if p == nil {
		return rows
	}
	return p.Apply(rows)
}

// resolve returns the positions of attrs in schema; what names the
// attribute's role in the error.
func resolve(schema data.Schema, attrs []string, what string) ([]int, error) {
	pos := make([]int, len(attrs))
	for i, a := range attrs {
		p := schema.Index(a)
		if p < 0 {
			return nil, fmt.Errorf("%s %q not in schema {%s}", what, a, schema)
		}
		pos[i] = p
	}
	return pos, nil
}

// resolveOne returns the position of one attribute in schema.
func resolveOne(schema data.Schema, attr, what string) (int, error) {
	pos, err := resolve(schema, []string{attr}, what)
	if err != nil {
		return -1, err
	}
	return pos[0], nil
}

// compile builds the kernel of activity a for a node whose providers emit
// rows laid out by provided[i] and whose derived schemata are in and out.
func (e *Engine) compile(a *workflow.Activity, provided, in []data.Schema, out data.Schema) (*kernel, error) {
	k := &kernel{a: a, in: in, out: out, realign: make([]*data.Projection, len(provided))}
	for i := range provided {
		k.realign[i] = relayout(provided[i], in[i])
	}
	var err error
	switch a.Sem.Op {
	case workflow.OpFilter:
		k.pred = a.Sem.Pred.Bind(in[0])
	case workflow.OpNotNull:
		k.pos, err = resolve(in[0], a.Sem.Attrs, "notnull: attribute")
	case workflow.OpPKCheck:
		if k.pos, err = resolve(in[0], a.Sem.Attrs, "pkcheck: attribute"); err == nil && a.Sem.Lookup != "" {
			if k.lookup, err = e.indexLookup(a.Sem.Lookup, false); err != nil {
				err = fmt.Errorf("pkcheck: %w", err)
			}
		}
	case workflow.OpDistinct:
		k.pos = make([]int, len(in[0]))
		for i := range k.pos {
			k.pos[i] = i
		}
	case workflow.OpProject:
		k.proj = relayout(in[0], out)
	case workflow.OpFunc:
		err = k.compileFunc()
	case workflow.OpAggregate:
		err = k.compileAggregate()
	case workflow.OpSurrogateKey:
		err = e.compileSurrogateKey(k)
	case workflow.OpMerged:
		err = e.compileMerged(k)
	case workflow.OpUnion:
		k.proj, k.rproj = relayout(in[0], out), relayout(in[1], out)
	case workflow.OpJoin, workflow.OpDiff, workflow.OpIntersect:
		if k.pos, err = resolve(in[0], a.Sem.Attrs, "key attribute"); err == nil {
			k.rpos, err = resolve(in[1], a.Sem.Attrs, "key attribute")
		}
		if a.Sem.Op == workflow.OpJoin {
			k.jl = newJoinLayout(out, in[0], in[1])
		}
	default:
		err = fmt.Errorf("unsupported operation %s", a.Sem.Op)
	}
	if err != nil {
		return nil, err
	}
	return k, nil
}

func (k *kernel) compileFunc() error {
	fn, ok := algebra.LookupFunc(k.a.Sem.Fn)
	if !ok {
		return fmt.Errorf("unknown function %q", k.a.Sem.Fn)
	}
	k.fn = fn
	var err error
	if k.args, err = resolve(k.in[0], k.a.Sem.FnArgs, "function arg"); err != nil {
		return err
	}
	if k.outPos, err = resolveOne(k.out, k.a.Sem.OutAttr, "output attribute"); err != nil {
		return err
	}
	k.proj = fresh(k.in[0], k.out)
	return nil
}

func (k *kernel) compileAggregate() error {
	var err error
	if k.pos, err = resolve(k.in[0], k.a.Sem.Attrs, "grouper"); err != nil {
		return err
	}
	k.aggPos = -1
	if k.a.Sem.Agg != workflow.AggCount {
		if k.aggPos, err = resolveOne(k.in[0], k.a.Sem.AggAttr, "aggregated attribute"); err != nil {
			return err
		}
	}
	if k.outPos, err = resolveOne(k.out, k.a.Sem.OutAttr, "output attribute"); err != nil {
		return err
	}
	k.proj = fresh(k.in[0], k.out)
	return nil
}

func (e *Engine) compileSurrogateKey(k *kernel) error {
	var err error
	if k.lookup, err = e.indexLookup(k.a.Sem.Lookup, true); err != nil {
		return fmt.Errorf("surrogate key: %w", err)
	}
	if k.pos, err = resolve(k.in[0], []string{k.a.Sem.KeyAttr}, "production key"); err != nil {
		return err
	}
	if k.outPos, err = resolveOne(k.out, k.a.Sem.OutAttr, "surrogate attribute"); err != nil {
		return err
	}
	k.proj = fresh(k.in[0], k.out)
	return nil
}

// fresh compiles a projection that always builds new records, even
// between equal layouts: the kernels that use it set a value in each
// output record.
func fresh(src, dst data.Schema) *data.Projection {
	p := data.NewProjection(src, dst)
	return &p
}

// compileMerged compiles a merged package's components in order,
// threading the flow schema through each step.
func (e *Engine) compileMerged(k *kernel) error {
	cur := k.in[0]
	for _, comp := range k.a.Sem.Components {
		out, err := componentOutput(comp, cur)
		if err != nil {
			return err
		}
		ck, err := e.compile(comp, []data.Schema{cur}, []data.Schema{cur}, out)
		if err != nil {
			return fmt.Errorf("merged component %s: %w", comp.Sem, err)
		}
		k.comps = append(k.comps, ck)
		cur = out
	}
	return nil
}

// componentOutput derives a merged component's output schema from the
// current flow schema, mirroring the workflow package's derivation.
func componentOutput(a *workflow.Activity, in data.Schema) (data.Schema, error) {
	tmp := workflow.NewGraph()
	src := tmp.AddRecordset(&workflow.RecordsetRef{Name: "_in", Schema: in, IsSource: true})
	act := tmp.AddActivity(a)
	sink := tmp.AddRecordset(&workflow.RecordsetRef{Name: "_out", Schema: in})
	tmp.MustAddEdge(src, act)
	tmp.MustAddEdge(act, sink)
	if err := tmp.RegenerateSchemata(); err != nil {
		return nil, err
	}
	return tmp.Node(act).Out, nil
}

// run executes the kernel over whole inputs laid out by the providers'
// schemas, realigning them to the node's derived input schemata first
// (layouts may differ after graph rewrites reorder attribute generation).
func (k *kernel) run(inputs []data.Rows) (data.Rows, error) {
	aligned := make([]data.Rows, len(inputs))
	for i := range inputs {
		aligned[i] = apply(k.realign[i], inputs[i])
	}
	return k.exec(aligned)
}

// exec dispatches on the activity's semantics over inputs already laid
// out by k.in. It is the reference semantics: the P=1 run executes every
// activity through it, and the partitioned operators must reproduce it.
func (k *kernel) exec(in []data.Rows) (data.Rows, error) {
	switch k.a.Sem.Op {
	case workflow.OpFilter, workflow.OpNotNull, workflow.OpPKCheck, workflow.OpDistinct:
		keep, err := k.mask(in[0])
		if err != nil {
			return nil, err
		}
		return applyMask(in[0], keep), nil
	case workflow.OpProject, workflow.OpFunc, workflow.OpSurrogateKey:
		return k.transform(in[0])
	case workflow.OpAggregate:
		rows, _, err := k.aggregate(in[0])
		return rows, err
	case workflow.OpMerged:
		cur := in[0]
		for _, c := range k.comps {
			var err error
			if cur, err = c.exec([]data.Rows{cur}); err != nil {
				return nil, fmt.Errorf("merged component %s: %w", c.a.Sem, err)
			}
		}
		return cur, nil
	case workflow.OpUnion:
		res := make(data.Rows, 0, len(in[0])+len(in[1]))
		res = append(res, apply(k.proj, in[0])...)
		return append(res, apply(k.rproj, in[1])...), nil
	case workflow.OpJoin:
		rows, _ := k.join(in[0], in[1])
		return rows, nil
	default: // diff, intersect
		return applyMask(in[0], k.maskPresence(in[0], in[1])), nil
	}
}

// The filtering operators are written as mask producers: each returns
// keep[i] for row i, and the caller applies the mask. This split is what
// lets a partitioned run (P>1) reuse the exact P=1 semantics on a
// partition while carrying each survivor's sequence tag through
// (parallel.go): a mask identifies *which* rows survive, which a plain
// filtered slice cannot.

// applyMask collects the rows whose mask entry is true, sharing records.
func applyMask(rows data.Rows, keep []bool) data.Rows {
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	out := make(data.Rows, 0, n)
	for i, k := range keep {
		if k {
			out = append(out, rows[i])
		}
	}
	return out
}

// mask computes the survivors of a unary filtering activity.
//
// Partition contracts:
//   - filter, notnull and lookup-based pkcheck are per-row and
//     order-preserving, so they run partition-locally on any
//     partitioning; a partitioned run shares one kernel, and so one
//     lookup index, across partitions.
//   - group-based pkcheck needs every row of a key group in one place, so
//     a partitioned run exchanges rows by key tuple first;
//     partition-local counts are then global counts.
//   - distinct needs all copies of a record to meet, so a partitioned
//     run exchanges by the full record; first occurrence within a
//     partition (by sequence tag) then equals first occurrence globally.
func (k *kernel) mask(rows data.Rows) ([]bool, error) {
	keep := make([]bool, len(rows))
	switch k.a.Sem.Op {
	case workflow.OpFilter:
		for i, r := range rows {
			v, err := k.pred(r)
			if err != nil {
				return nil, err
			}
			keep[i] = v.Bool()
		}
	case workflow.OpNotNull:
	rowLoop:
		for i, r := range rows {
			for _, p := range k.pos {
				if r[p].IsNull() {
					continue rowLoop
				}
			}
			keep[i] = true
		}
	case workflow.OpPKCheck:
		if k.lookup != nil {
			// Lookup-based: reject rows whose key already exists in the
			// lookup recordset.
			for i, r := range rows {
				keep[i] = k.lookup.keys.Find(r, k.pos) < 0
			}
			break
		}
		// Group-based: reject every row of a key group with more than one
		// member — insensitive to input order, as transitions require.
		t := data.NewKeyTable(k.pos, len(rows))
		ids := make([]int32, len(rows))
		var counts []int32
		for i, r := range rows {
			id, added := t.Intern(r)
			if added {
				counts = append(counts, 0)
			}
			counts[id]++
			ids[i] = int32(id)
		}
		for i, id := range ids {
			keep[i] = counts[id] == 1
		}
	case workflow.OpDistinct:
		// Keep the first occurrence of each distinct record; survivors are
		// identical to their duplicates, so the output multiset is
		// independent of input order.
		t := data.NewKeyTable(k.pos, len(rows))
		for i, r := range rows {
			_, keep[i] = t.Intern(r)
		}
	}
	return keep, nil
}

// transform runs a 1:1 activity (project, func, surrogate key). Partition
// contract: per-row and order-preserving, so outputs inherit their input
// rows' tags.
func (k *kernel) transform(rows data.Rows) (data.Rows, error) {
	switch k.a.Sem.Op {
	case workflow.OpProject:
		return apply(k.proj, rows), nil
	case workflow.OpFunc:
		res := k.proj.Apply(rows)
		args := make([]data.Value, len(k.args))
		for i, r := range rows {
			for j, p := range k.args {
				args[j] = r[p]
			}
			v, err := k.fn.Apply(args)
			if err != nil {
				return nil, err
			}
			res[i][k.outPos] = v
		}
		return res, nil
	default: // surrogate key
		res := k.proj.Apply(rows)
		for i, r := range rows {
			id := k.lookup.keys.Find(r, k.pos)
			if id < 0 {
				return nil, fmt.Errorf("surrogate key: production key %s missing from lookup %q",
					r[k.pos[0]], k.a.Sem.Lookup)
			}
			res[i][k.outPos] = k.lookup.vals[id]
		}
		return res, nil
	}
}

// aggState accumulates one group.
type aggState struct {
	sum   float64
	count int64 // rows contributing a non-NULL aggregated value
	rows  int64 // all rows in the group
	min   data.Value
	max   data.Value
	any   bool
}

// aggregate groups rows by the grouper attributes and folds the
// aggregate. Output order is first-seen group order, which makes the
// result order-sensitive in a controlled way; first[g] is the index of
// group g's first row.
//
// Partition contract: a group's rows must be co-located, so a partitioned
// run exchanges by grouper tuple; each group's output row then carries
// the sequence tag of the group's first input row, restoring global
// first-seen order at the merge.
func (k *kernel) aggregate(rows data.Rows) (data.Rows, []int, error) {
	t := data.NewKeyTable(k.pos, 0)
	var (
		states []aggState
		first  []int
	)
	for i, r := range rows {
		id, added := t.Intern(r)
		if added {
			states = append(states, aggState{})
			first = append(first, i)
		}
		st := &states[id]
		st.rows++
		if k.aggPos < 0 {
			continue
		}
		v := r[k.aggPos]
		if v.IsNull() {
			continue
		}
		st.count++
		st.sum += v.Float()
		if !st.any || v.Compare(st.min) < 0 {
			st.min = v
		}
		if !st.any || v.Compare(st.max) > 0 {
			st.max = v
		}
		st.any = true
	}
	reps := make(data.Rows, len(first))
	for g, i := range first {
		reps[g] = rows[i]
	}
	res := k.proj.Apply(reps)
	for g := range res {
		res[g][k.outPos] = k.fold(&states[g])
	}
	return res, first, nil
}

// fold returns a finished group's aggregate value.
func (k *kernel) fold(st *aggState) data.Value {
	switch k.a.Sem.Agg {
	case workflow.AggSum:
		if st.any {
			return data.NewFloat(st.sum)
		}
	case workflow.AggCount:
		return data.NewInt(st.rows)
	case workflow.AggMin:
		if st.any {
			return st.min
		}
	case workflow.AggMax:
		if st.any {
			return st.max
		}
	case workflow.AggAvg:
		if st.count > 0 {
			return data.NewFloat(st.sum / float64(st.count))
		}
	}
	return data.Null
}

// joinLayout precomputes how one joined output record is assembled from a
// left and a right record: for each output attribute, which side supplies
// it and at what position (-1 means neither side has it — NULL).
type joinLayout struct {
	fromLeft []bool
	pos      []int
}

func newJoinLayout(out, left, right data.Schema) joinLayout {
	jl := joinLayout{fromLeft: make([]bool, len(out)), pos: make([]int, len(out))}
	for i, attr := range out {
		if p := left.Index(attr); p >= 0 {
			jl.fromLeft[i] = true
			jl.pos[i] = p
		} else {
			jl.pos[i] = right.Index(attr) // -1 when absent on both sides
		}
	}
	return jl
}

// build assembles one output record per (left, right) index pair into one
// slab, preferring left values (the layout already encoded the
// preference at construction).
func (jl joinLayout) build(left, right data.Rows, pairs [][2]int32) data.Rows {
	w := len(jl.pos)
	slab := make([]data.Value, len(pairs)*w)
	out := make(data.Rows, len(pairs))
	for i, pr := range pairs {
		l, r := left[pr[0]], right[pr[1]]
		rec := slab[i*w : (i+1)*w : (i+1)*w]
		for j, p := range jl.pos {
			switch {
			case p < 0: // NULL, the slab's zero value
			case jl.fromLeft[j]:
				rec[j] = l[p]
			default:
				rec[j] = r[p]
			}
		}
		out[i] = rec
	}
	return out
}

// join hash-joins the inputs on the key attributes. Output order is left
// order, then right-input order within a left row; pairs[i] holds the
// left and right row indices output row i was built from.
//
// Partition contract: both inputs are exchanged by the join key tuple, so
// every matching pair is co-located; a partitioned run tags each output
// row with its (left seq, right seq) pair and merges partitions in that
// lexicographic order, reproducing this nested-loop order exactly.
func (k *kernel) join(left, right data.Rows) (data.Rows, [][2]int32) {
	// Hash the right input; each key's rows form a chain in right order.
	t := data.NewKeyTable(k.rpos, len(right))
	var head, tail []int32
	next := make([]int32, len(right))
	for i, r := range right {
		next[i] = -1
		id, added := t.Intern(r)
		if added {
			head = append(head, int32(i))
			tail = append(tail, int32(i))
			continue
		}
		next[tail[id]] = int32(i)
		tail[id] = int32(i)
	}
	var pairs [][2]int32
	for li, l := range left {
		id := t.Find(l, k.pos)
		if id < 0 {
			continue
		}
		for ri := head[id]; ri >= 0; ri = next[ri] {
			pairs = append(pairs, [2]int32{int32(li), ri})
		}
	}
	return k.jl.build(left, right, pairs), pairs
}

// maskPresence marks the left rows whose key tuple does (intersect) or
// does not (diff) appear among the right rows' key tuples.
//
// Partition contract (diff/intersect): both inputs are exchanged by key
// tuple, so a left row and every right row that could veto or admit it
// share a partition; survivors keep their left sequence tags.
func (k *kernel) maskPresence(left, right data.Rows) []bool {
	t := data.NewKeyTable(k.rpos, len(right))
	for _, r := range right {
		t.Intern(r)
	}
	keepPresent := k.a.Sem.Op == workflow.OpIntersect
	keep := make([]bool, len(left))
	for i, l := range left {
		keep[i] = (t.Find(l, k.pos) >= 0) == keepPresent
	}
	return keep
}
