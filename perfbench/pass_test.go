package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"etlopt/pkg/etl"
)

func TestFailureCounting(t *testing.T) {
	p := newPass(nil)
	p.call("ok", func() error { return nil })
	p.call("broken", func() error { return errors.New("boom") })
	p.timed("crash", func() error { return errors.New("expected") })
	p.mismatch("right output", "")
	p.mismatch("wrong output", "target DW: 3 rows, want 4")
	if p.attempted != 3 || p.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2", p.attempted, p.failed)
	}
	if !strings.Contains(p.failures[0], "boom") || !strings.Contains(p.failures[1], "3 rows") {
		t.Errorf("failures = %q", p.failures)
	}
}

func TestSummarizeRatiosAndDrift(t *testing.T) {
	mk := func(layerSec, generated, visited, items float64, failed int) *pass {
		p := newPass(nil)
		p.layerSec = layerSec
		p.callSec = []float64{layerSec}
		p.attempted = 10
		p.failed = failed
		p.count("core.states_generated", generated)
		p.count("core.states_visited", visited)
		p.count("items", items)
		p.add("runtime.alloc_bytes", 1000)
		return p
	}
	rep := summarize([]float64{3, 1, 2}, []*pass{mk(2, 100, 80, 50, 0), mk(4, 100, 80, 50, 1), mk(1, 100, 80, 50, 0)}, nil)
	v := rep.values
	checks := map[string]float64{
		"setup_s":              2,
		"pass_s":               2,
		"items_per_s":          25,       // median of 50/2, 50/4, 50/1
		"alloc_bytes_per_item": 20,       // 1000 bytes over 50 items
		"core.dedup_ratio":     0.8,      // visited over generated
		"failed_ops_ratio":     1.0 / 30, // failed over attempted calls
	}
	for name, want := range checks {
		if math.Abs(v[name]-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, v[name], want)
		}
	}
	if rep.attempted != 30 || rep.failed != 1 {
		t.Errorf("attempted %d failed %d, want 30 and 1", rep.attempted, rep.failed)
	}

	drift := summarize([]float64{1}, []*pass{mk(1, 100, 80, 50, 0), mk(1, 101, 80, 50, 0)}, nil)
	if drift.failed != 1 || !strings.Contains(drift.failures[0], "core.states_generated") {
		t.Errorf("drift not flagged: failed %d, %q", drift.failed, drift.failures)
	}
}

func TestMedianCallSum(t *testing.T) {
	mk := func(calls ...float64) *pass {
		p := newPass(nil)
		for _, c := range calls {
			p.callSec = append(p.callSec, c)
			p.layerSec += c
		}
		return p
	}
	// Each call's median (2 and 2) is summed; whole passes (6, 3, 5)
	// would give 5, since a slow spell hit a different call in two passes.
	if got := medianCallSum([]*pass{mk(1, 5), mk(2, 1), mk(3, 2)}); got != 4 {
		t.Errorf("medianCallSum = %v, want 4", got)
	}
	// A pass that made other calls falls back to whole-pass medians.
	if got := medianCallSum([]*pass{mk(1, 5), mk(3), mk(3, 2)}); got != 5 {
		t.Errorf("medianCallSum with differing calls = %v, want 5", got)
	}
}

func TestTraceOverheadBase(t *testing.T) {
	plain := newPass(nil)
	plain.layerSec = 2
	traced := newPass(&tracer{})
	traced.layerSec = 2.5
	rep := summarize([]float64{1}, []*pass{plain}, []*pass{traced})
	if got := rep.values["obs.trace_overhead"]; got != 1.25 {
		t.Errorf("obs.trace_overhead = %v, want traced/untraced = 1.25", got)
	}
}

func TestOutputComparisons(t *testing.T) {
	a := etl.Rows{{etl.NewInt(1), etl.NewString("x")}, {etl.NewInt(2), etl.NewString("y")}}
	reordered := etl.Rows{a[1], a[0]}
	retyped := etl.Rows{{etl.NewFloat(1), etl.NewString("x")}, a[1]}

	want := targetMultisets(map[string]etl.Rows{"DW": a})
	if d := multisetDiff(want, targetMultisets(map[string]etl.Rows{"DW": reordered})); d != "" {
		t.Errorf("reordered rows differ as multisets: %s", d)
	}
	if d := multisetDiff(want, targetMultisets(map[string]etl.Rows{"DW": retyped})); d == "" {
		t.Error("an Int and a Float of equal value compare equal")
	}

	run := func(rows etl.Rows) *etl.RunResult {
		return &etl.RunResult{Targets: map[string]etl.Rows{"DW": rows}, NodeRows: map[etl.NodeID]int{1: len(rows)}}
	}
	if d := identicalDiff(run(a), run(a)); d != "" {
		t.Errorf("identical runs differ: %s", d)
	}
	if d := identicalDiff(run(a), run(reordered)); d == "" {
		t.Error("reordered rows are bit-identical")
	}
	other := run(a)
	other.NodeRows[1] = 5
	if d := identicalDiff(run(a), other); d == "" {
		t.Error("different node counts are bit-identical")
	}
}

func TestNodeTemplate(t *testing.T) {
	g, err := etl.Parse(`
recordset S source rows=10 schema=PKEY,COST
activity nn notnull attrs=COST sel=0.9
recordset DW target schema=PKEY,COST
flow S -> nn -> DW
`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, id := range append(append(g.Sources(), g.Activities()...), g.Targets()...) {
		got[nodeTemplate(g, fmt.Sprintf("%d:label", id))] = true
	}
	for _, want := range []string{"unknown", "notnull"} {
		if !got[want] {
			t.Errorf("templates %v lack %s", got, want)
		}
	}
	if tpl := nodeTemplate(g, "bogus"); tpl != "unknown" {
		t.Errorf("nodeTemplate(bogus) = %s", tpl)
	}
}
