package engine

import (
	"context"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// runBinary executes L(bin)R → TGT and returns the target rows.
func runBinary(t *testing.T, p int, lSchema, rSchema data.Schema, lRows, rRows data.Rows, bin *workflow.Activity) data.Rows {
	t.Helper()
	g := workflow.NewGraph()
	l := g.AddRecordset(&workflow.RecordsetRef{Name: "L", Schema: lSchema, Rows: float64(len(lRows)), IsSource: true})
	r := g.AddRecordset(&workflow.RecordsetRef{Name: "R", Schema: rSchema, Rows: float64(len(rRows)), IsSource: true})
	b := g.AddActivity(bin)
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "TGT", Schema: data.Schema{"x"}, IsTarget: true})
	g.MustAddEdge(l, b)
	g.MustAddEdge(r, b)
	g.MustAddEdge(b, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	g.Node(tgt).RS.Schema = g.Node(b).Out.Clone()
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	e := New(map[string]data.Recordset{
		"L": data.NewMemoryRecordset("L", lSchema).MustLoad(lRows),
		"R": data.NewMemoryRecordset("R", rSchema).MustLoad(rRows),
	}, WithPartitions(p))
	res, err := e.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	return res.Targets["TGT"]
}

func TestUnionExecution(t *testing.T) {
	eachPartitionCount(t, func(t *testing.T, p int) {
		schema := data.Schema{"K"}
		got := runBinary(t, p, schema, schema,
			data.Rows{{data.NewInt(1)}, {data.NewInt(2)}},
			data.Rows{{data.NewInt(2)}, {data.NewInt(3)}},
			templates.Union())
		// Bag union: duplicates preserved.
		if len(got) != 4 {
			t.Errorf("union = %v", got)
		}
	})
}

func TestUnionRealignsAttributeOrder(t *testing.T) {
	// The second branch delivers the same attributes in a different order;
	// the union must realign by name.
	got := runBinary(t, 1,
		data.Schema{"K", "V"}, data.Schema{"V", "K"},
		data.Rows{{data.NewInt(1), data.NewFloat(10)}},
		data.Rows{{data.NewFloat(20), data.NewInt(2)}},
		templates.Union())
	if len(got) != 2 {
		t.Fatalf("union = %v", got)
	}
	for _, r := range got {
		if r[0].Kind() != data.KindInt {
			t.Errorf("misaligned union row: %v", r)
		}
	}
}

func TestJoinExecution(t *testing.T) {
	eachPartitionCount(t, func(t *testing.T, p int) {
		got := runBinary(t, p,
			data.Schema{"K", "A"}, data.Schema{"K", "B"},
			data.Rows{
				{data.NewInt(1), data.NewString("a1")},
				{data.NewInt(2), data.NewString("a2")},
				{data.NewInt(2), data.NewString("a2bis")},
			},
			data.Rows{
				{data.NewInt(2), data.NewString("b2")},
				{data.NewInt(3), data.NewString("b3")},
			},
			templates.Join(0.1, "K"))
		// Equi-join on K: key 2 matches twice (two left rows × one right).
		if len(got) != 2 {
			t.Fatalf("join = %v", got)
		}
		for _, r := range got {
			if r[0].Int() != 2 {
				t.Errorf("join row key = %v", r)
			}
			if len(r) != 3 {
				t.Errorf("join row arity = %v", r)
			}
		}
	})
}

func TestDiffExecution(t *testing.T) {
	eachPartitionCount(t, func(t *testing.T, p int) {
		got := runBinary(t, p,
			data.Schema{"K", "A"}, data.Schema{"K", "B"},
			data.Rows{
				{data.NewInt(1), data.NewString("x")},
				{data.NewInt(2), data.NewString("y")},
			},
			data.Rows{{data.NewInt(1), data.NewString("z")}},
			templates.Diff(0.5, "K"))
		if len(got) != 1 || got[0][0].Int() != 2 {
			t.Errorf("diff = %v", got)
		}
	})
}

func TestIntersectExecution(t *testing.T) {
	eachPartitionCount(t, func(t *testing.T, p int) {
		got := runBinary(t, p,
			data.Schema{"K", "A"}, data.Schema{"K", "B"},
			data.Rows{
				{data.NewInt(1), data.NewString("x")},
				{data.NewInt(2), data.NewString("y")},
			},
			data.Rows{{data.NewInt(1), data.NewString("z")}},
			templates.Intersect(0.5, "K"))
		if len(got) != 1 || got[0][0].Int() != 1 {
			t.Errorf("intersect = %v", got)
		}
	})
}

// TestDiamondExecution runs one source feeding two branches that
// re-converge on a union: both branches read the source's output, so it
// must stay live until the second reader has run.
func TestDiamondExecution(t *testing.T) {
	schema := data.Schema{"K", "V"}
	g := workflow.NewGraph()
	src := g.AddRecordset(&workflow.RecordsetRef{Name: "S", Schema: schema, Rows: 500, IsSource: true})
	f1 := g.AddActivity(templates.Threshold("V", 50, 0.5))
	f2 := g.AddActivity(templates.Threshold("V", 150, 0.2))
	u := g.AddActivity(templates.Union())
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "T", Schema: schema, IsTarget: true})
	g.MustAddEdge(src, f1)
	g.MustAddEdge(src, f2)
	g.MustAddEdge(f1, u)
	g.MustAddEdge(f2, u)
	g.MustAddEdge(u, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	rows := make(data.Rows, 500)
	for i := range rows {
		rows[i] = data.Record{data.NewInt(int64(i)), data.NewFloat(float64(i % 200))}
	}
	// V cycles through 0..199: 150 of every 200 rows pass V >= 50 and 50
	// pass V >= 150, and the union keeps the left branch's rows first.
	var want data.Rows
	for _, min := range []float64{50, 150} {
		for _, r := range rows {
			if r[1].Float() >= min {
				want = append(want, r)
			}
		}
	}
	eachPartitionCount(t, func(t *testing.T, p int) {
		bind := map[string]data.Recordset{"S": data.NewMemoryRecordset("S", schema).MustLoad(rows)}
		res, err := New(bind, WithPartitions(p)).Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if !rowsIdentical(res.Targets["T"], want) {
			t.Errorf("diamond loaded %d rows, want %d in union order", len(res.Targets["T"]), len(want))
		}
	})
}

func TestUnboundSourceError(t *testing.T) {
	g := workflow.NewGraph()
	src := g.AddRecordset(&workflow.RecordsetRef{Name: "S", Schema: data.Schema{"K"}, IsSource: true})
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "T", Schema: data.Schema{"K"}, IsTarget: true})
	g.MustAddEdge(src, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	for _, c := range partitionCounts {
		if _, err := New(nil, WithPartitions(c.p)).Run(context.Background(), g); err == nil {
			t.Errorf("P=%d: unbound source should error", c.p)
		}
	}
}

func TestPipelineErrorPropagation(t *testing.T) {
	// A surrogate key with a missing lookup binding in the middle of the
	// pipeline must surface as an error of the run, not a hang, at every
	// partition count.
	g := workflow.NewGraph()
	src := g.AddRecordset(&workflow.RecordsetRef{Name: "S", Schema: data.Schema{"K"}, IsSource: true})
	sk := g.AddActivity(templates.SurrogateKey("K", "SK", "NOPE"))
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "T", Schema: data.Schema{"SK"}, IsTarget: true})
	g.MustAddEdge(src, sk)
	g.MustAddEdge(sk, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	for _, c := range partitionCounts {
		bind := map[string]data.Recordset{
			"S": data.NewMemoryRecordset("S", data.Schema{"K"}).MustLoad(data.Rows{{data.NewInt(1)}}),
		}
		if _, err := New(bind, WithPartitions(c.p)).Run(context.Background(), g); err == nil {
			t.Errorf("P=%d: missing lookup binding should error", c.p)
		}
	}
}

func TestTargetLoading(t *testing.T) {
	// When the target recordset is bound, rows are loaded into it.
	schema := data.Schema{"K"}
	g := workflow.NewGraph()
	src := g.AddRecordset(&workflow.RecordsetRef{Name: "S", Schema: schema, IsSource: true})
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "T", Schema: schema, IsTarget: true})
	g.MustAddEdge(src, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	target := data.NewMemoryRecordset("T", schema)
	e := New(map[string]data.Recordset{
		"S": data.NewMemoryRecordset("S", schema).MustLoad(data.Rows{{data.NewInt(7)}}),
		"T": target,
	})
	if _, err := e.Run(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if n, _ := target.Count(); n != 1 {
		t.Errorf("target holds %d rows, want 1", n)
	}
}

func TestNodeRowsObservability(t *testing.T) {
	sc := templates.Fig1Scenario(60, 120)
	res, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	// Every node must report a row count, and the sources must match the
	// generated data sizes.
	for _, id := range sc.Graph.Nodes() {
		if _, ok := res.NodeRows[id]; !ok {
			t.Errorf("node %d missing from NodeRows", id)
		}
	}
	srcRows := 0
	for _, id := range sc.Graph.Sources() {
		srcRows += res.NodeRows[id]
	}
	if srcRows != 180 {
		t.Errorf("source NodeRows = %d, want 180", srcRows)
	}
}
