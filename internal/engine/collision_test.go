package engine

import (
	"context"
	"fmt"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// The two key tuples below join to the same string under a key encoding
// that neither escapes string payloads nor records their lengths:
// ("a\x1fs:b","c") and ("a","b\x1fs:c") both read "s:a\x1fs:b\x1fs:c".
// Every key-sensitive operator must still tell them apart.
var (
	collideX = data.Record{data.NewString("a\x1fs:b"), data.NewString("c")}
	collideY = data.Record{data.NewString("a"), data.NewString("b\x1fs:c")}
)

// collisionModes runs f on the default engine, which runs at P=1 with
// every kernel on whole materialized inputs, and at explicit partition
// counts one and four.
func collisionModes(t *testing.T, f func(t *testing.T, opts ...Option)) {
	t.Run("materialized", func(t *testing.T) { f(t) })
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallel-P%d", p), func(t *testing.T) {
			f(t, WithPartitions(p))
		})
	}
}

// activityGraph builds sources → act → TGT, binding source i to a memory
// recordset S<i> holding rows[i].
func activityGraph(tb testing.TB, act *workflow.Activity, schemas []data.Schema, rows []data.Rows) (*workflow.Graph, map[string]data.Recordset) {
	tb.Helper()
	g := workflow.NewGraph()
	bindings := make(map[string]data.Recordset)
	b := g.AddActivity(act)
	for i, s := range schemas {
		name := fmt.Sprintf("S%d", i)
		src := g.AddRecordset(&workflow.RecordsetRef{Name: name, Schema: s, Rows: float64(len(rows[i])), IsSource: true})
		g.MustAddEdge(src, b)
		bindings[name] = data.NewMemoryRecordset(name, s).MustLoad(rows[i])
	}
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "TGT", Schema: data.Schema{"x"}, IsTarget: true})
	g.MustAddEdge(b, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		tb.Fatal(err)
	}
	g.Node(tgt).RS.Schema = g.Node(b).Out.Clone()
	if err := g.RegenerateSchemata(); err != nil {
		tb.Fatal(err)
	}
	return g, bindings
}

// runSources executes sources → act → TGT and returns the target rows.
func runSources(t *testing.T, act *workflow.Activity, schemas []data.Schema, rows []data.Rows, opts ...Option) data.Rows {
	t.Helper()
	g, bindings := activityGraph(t, act, schemas, rows)
	res, err := New(bindings, opts...).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	return res.Targets["TGT"]
}

func TestKeyCollisionDistinct(t *testing.T) {
	collisionModes(t, func(t *testing.T, opts ...Option) {
		got := runSources(t, templates.Distinct(1), []data.Schema{{"X", "Y"}},
			[]data.Rows{{collideX, collideY, collideX}}, opts...)
		if len(got) != 2 {
			t.Errorf("distinct kept %d rows, want 2: %v", len(got), got)
		}
	})
}

func TestKeyCollisionJoin(t *testing.T) {
	collisionModes(t, func(t *testing.T, opts ...Option) {
		left := data.Rows{append(collideX.Clone(), data.NewInt(1))}
		right := data.Rows{append(collideY.Clone(), data.NewInt(2))}
		got := runSources(t, templates.Join(1, "X", "Y"),
			[]data.Schema{{"X", "Y", "A"}, {"X", "Y", "B"}}, []data.Rows{left, right}, opts...)
		if len(got) != 0 {
			t.Errorf("join matched distinct keys: %v", got)
		}
	})
}

func TestKeyCollisionPKCheck(t *testing.T) {
	collisionModes(t, func(t *testing.T, opts ...Option) {
		got := runSources(t, templates.PKCheck(1, "X", "Y"), []data.Schema{{"X", "Y"}},
			[]data.Rows{{collideX, collideY}}, opts...)
		if len(got) != 2 {
			t.Errorf("pkcheck kept %d rows, want both distinct keys: %v", len(got), got)
		}
	})
}

func TestKeyCollisionAggregate(t *testing.T) {
	collisionModes(t, func(t *testing.T, opts ...Option) {
		got := runSources(t, templates.Aggregate([]string{"X", "Y"}, workflow.AggCount, "", "N", 1),
			[]data.Schema{{"X", "Y"}}, []data.Rows{{collideX, collideY, collideY}}, opts...)
		if len(got) != 2 {
			t.Fatalf("aggregate built %d groups, want 2: %v", len(got), got)
		}
		if got[0][2].Int() != 1 || got[1][2].Int() != 2 {
			t.Errorf("group counts = %v, want 1 then 2", got)
		}
	})
}
