package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"etlopt/pkg/etl"
)

// pass records one execution of a workload's timed job: the layer calls it
// made, what they returned, and whether their outputs were right.
type pass struct {
	// tr records a span per layer call; nil in an untraced pass.
	tr *tracer

	// layerSec is the time spent inside layer calls — the pass's cost to
	// a user, without the benchmark's own output checks — and callSec
	// the same time per call, in call order.
	layerSec float64
	callSec  []float64
	// metrics are this pass's values; a run reports their medians.
	metrics map[string]float64
	// exact are counts that must repeat exactly in every pass of a seed.
	exact map[string]float64
	// nodeSec sums engine journal node times per operator template
	// (traced passes only).
	nodeSec map[string]float64

	attempted, failed int
	failures          []string
}

func newPass(tr *tracer) *pass {
	return &pass{
		tr:      tr,
		metrics: make(map[string]float64),
		exact:   make(map[string]float64),
		nodeSec: make(map[string]float64),
	}
}

// call runs one layer call under a span named layer, counts it as
// attempted and, when it errors, as failed. It returns the call's wall
// seconds and error.
func (p *pass) call(layer string, fn func() error) (float64, error) {
	sec, err := p.timed(layer, fn)
	if err != nil {
		p.fail("%s: %v", layer, err)
	}
	return sec, err
}

// timed is call for a layer call whose error the caller judges: it
// counts the call as attempted but never as failed.
func (p *pass) timed(layer string, fn func() error) (float64, error) {
	p.attempted++
	id := p.tr.begin(layer)
	t0 := time.Now()
	err := fn()
	sec := time.Since(t0).Seconds()
	p.tr.end(id)
	p.layerSec += sec
	p.callSec = append(p.callSec, sec)
	return sec, err
}

// mismatch counts a failure for a call that returned without error but
// whose output was wrong. diff == "" means the output was right.
func (p *pass) mismatch(what, diff string) {
	if diff != "" {
		p.fail("%s: %s", what, diff)
	}
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// add accumulates v into a per-pass metric.
func (p *pass) add(name string, v float64) { p.metrics[name] += v }

// count accumulates v into an exact count.
func (p *pass) count(name string, v float64) { p.exact[name] += v }

// run executes g through etl.Run as one layer call; in a traced pass the
// engine journal's node times are folded in.
func (p *pass) run(ctx context.Context, layer string, g *etl.Graph, bindings map[string]etl.Recordset, opts ...etl.Option) (*etl.RunResult, float64, error) {
	j, fold := p.journal(g)
	if j != nil {
		opts = append(opts, etl.WithJournal(j))
	}
	var res *etl.RunResult
	sec, err := p.call(layer, func() error {
		var err error
		res, err = etl.Run(ctx, g, bindings, opts...)
		return err
	})
	fold()
	return res, sec, err
}

// journal returns, in a traced pass, a journal for one engine run of g and
// the function that closes it after the run and adds its node events'
// seconds to nodeSec by operator template. Untraced, it returns nil and a
// no-op.
func (p *pass) journal(g *etl.Graph) (*etl.Journal, func()) {
	if p.tr == nil {
		return nil, func() {}
	}
	var buf bytes.Buffer
	j := etl.NewJournal(&buf, nil)
	return j, func() {
		if err := j.Close(); err != nil {
			p.fail("journal: %v", err)
			return
		}
		events, err := etl.ReadJournal(&buf)
		if err != nil {
			p.fail("journal: %v", err)
			return
		}
		for _, ev := range events {
			if ev.T == "node" {
				p.nodeSec[nodeTemplate(g, ev.Node)] += ev.Sec
			}
		}
	}
}

// nodeTemplate maps an engine node key ("<id>:<label>") to the operator
// template of that node in g, the activity's operation kind; "unknown"
// when the key names no activity of g.
func nodeTemplate(g *etl.Graph, key string) string {
	idText, _, _ := strings.Cut(key, ":")
	id, err := strconv.Atoi(idText)
	if err != nil {
		return "unknown"
	}
	if n := g.Node(etl.NodeID(id)); n != nil && n.Act != nil {
		return n.Act.Sem.Op.String()
	}
	return "unknown"
}

// digestMultiset returns the sorted row digests of rows: two row sets
// hold the same records with the same multiplicities, compared type-exact,
// exactly when their digest multisets are equal.
func digestMultiset(rows etl.Rows) []uint64 {
	out := make([]uint64, len(rows))
	for i, rec := range rows {
		out[i] = etl.Rows{rec}.Digest()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// targetMultisets maps each target to its digest multiset.
func targetMultisets(targets map[string]etl.Rows) map[string][]uint64 {
	out := make(map[string][]uint64, len(targets))
	for name, rows := range targets {
		out[name] = digestMultiset(rows)
	}
	return out
}

// multisetDiff describes the first target whose digest multiset differs
// between want and got, or "" when they agree.
func multisetDiff(want, got map[string][]uint64) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d targets, want %d", len(got), len(want))
	}
	for _, name := range sortedKeys(want) {
		w, g := want[name], got[name]
		if len(w) != len(g) {
			return fmt.Sprintf("target %s: %d rows, want %d", name, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				return fmt.Sprintf("target %s: row multisets differ", name)
			}
		}
	}
	return ""
}

// identicalDiff describes the first difference between two runs under
// bit-identity — every target's rows in the same order, and the same
// per-node row counts — or "" when they are identical.
func identicalDiff(want, got *etl.RunResult) string {
	if len(want.Targets) != len(got.Targets) {
		return fmt.Sprintf("%d targets, want %d", len(got.Targets), len(want.Targets))
	}
	for _, name := range sortedKeys(want.Targets) {
		w, g := want.Targets[name], got.Targets[name]
		if len(w) != len(g) {
			return fmt.Sprintf("target %s: %d rows, want %d", name, len(g), len(w))
		}
		if w.Digest() != g.Digest() {
			return fmt.Sprintf("target %s: rows differ in order or value", name)
		}
	}
	if len(want.NodeRows) != len(got.NodeRows) {
		return fmt.Sprintf("%d node counts, want %d", len(got.NodeRows), len(want.NodeRows))
	}
	for id, n := range want.NodeRows {
		if got.NodeRows[id] != n {
			return fmt.Sprintf("node %d: %d rows, want %d", id, got.NodeRows[id], n)
		}
	}
	return ""
}

// nodeRows sums the rows every node of a run emitted.
func nodeRows(res *etl.RunResult) int {
	total := 0
	for _, n := range res.NodeRows {
		total += n
	}
	return total
}

// sourceRows counts the rows bound to g's source recordsets.
func sourceRows(g *etl.Graph, bindings map[string]etl.Recordset) (int, error) {
	total := 0
	for _, id := range g.Sources() {
		name := g.Node(id).RS.Name
		rs, ok := bindings[name]
		if !ok {
			return 0, fmt.Errorf("source %s is not bound", name)
		}
		rows, err := rs.Scan()
		if err != nil {
			return 0, fmt.Errorf("scanning source %s: %w", name, err)
		}
		total += len(rows)
	}
	return total, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
