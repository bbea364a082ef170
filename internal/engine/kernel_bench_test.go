package engine

import (
	"context"
	"fmt"
	"testing"

	"etlopt/internal/algebra"
	"etlopt/internal/data"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// benchRows is the row count of every kernel benchmark input.
const benchRows = 4096

var benchSchema = data.Schema{"K", "G", "V", "D", "N"}

// benchInput builds benchRows rows over benchSchema: K repeats every 1024
// rows (so key groups have four members), G takes 64 string values, V is
// a float, D an American-format date string and N is NULL on every tenth
// row. Rows repeat every 2048, so DISTINCT halves the input. offset
// shifts K, giving a second input that overlaps the first by half.
func benchInput(offset int) data.Rows {
	rows := make(data.Rows, benchRows)
	for i := range rows {
		j := i % 2048
		n := data.NewInt(int64(j))
		if j%10 == 0 {
			n = data.Null
		}
		rows[i] = data.Record{
			data.NewInt(int64(j%1024 + offset)),
			data.NewString(fmt.Sprintf("g%02d", j%64)),
			data.NewFloat(float64(j%200) / 2),
			data.NewString(fmt.Sprintf("%02d/%02d/2004", j%12+1, j%28+1)),
			n,
		}
	}
	return rows
}

// BenchmarkKernel runs each activity template alone, source → activity →
// target, through the engine at P=1: the kernel's compile and execution
// plus a source scan, per op.
func BenchmarkKernel(b *testing.B) {
	left, right := benchInput(0), benchInput(512)
	joinSchema := data.Schema{"K", "W"}
	joinRight := make(data.Rows, 1024)
	for i := range joinRight {
		joinRight[i] = data.Record{data.NewInt(int64(i + 512)), data.NewFloat(float64(i))}
	}
	skRows := make(data.Rows, 1024)
	for i := range skRows {
		skRows[i] = data.Record{data.NewInt(int64(i)), data.NewInt(int64(100000 + i))}
	}
	lookup := data.NewMemoryRecordset("LK", data.Schema{"K", "SK"}).MustLoad(skRows)
	unary := []data.Schema{benchSchema}
	binary := []data.Schema{benchSchema, benchSchema}
	cases := []struct {
		name    string
		act     *workflow.Activity
		schemas []data.Schema
		rows    []data.Rows
	}{
		{"filter", templates.Filter(algebra.Cmp{Op: algebra.GT, Left: algebra.Attr{Name: "V"},
			Right: algebra.Const{Value: data.NewFloat(50)}}, 0.5), unary, []data.Rows{left}},
		{"notnull", templates.NotNull(0.9, "N"), unary, []data.Rows{left}},
		{"pkcheck", templates.PKCheck(0.5, "K", "G"), unary, []data.Rows{left}},
		{"distinct", templates.Distinct(0.5), unary, []data.Rows{left}},
		{"project", templates.ProjectOut("D"), unary, []data.Rows{left}},
		{"func", templates.Reformat("a2edate", "D"), unary, []data.Rows{left}},
		{"aggregate", templates.Aggregate([]string{"G"}, workflow.AggSum, "V", "S", 0.02), unary, []data.Rows{left}},
		{"sk", templates.SurrogateKey("K", "SK", "LK"), unary, []data.Rows{left}},
		{"union", templates.Union(), binary, []data.Rows{left, right}},
		{"join", templates.Join(0.5, "K"), []data.Schema{benchSchema, joinSchema}, []data.Rows{left, joinRight}},
		{"diff", templates.Diff(0.5, "K"), binary, []data.Rows{left, right}},
		{"intersect", templates.Intersect(0.5, "K"), binary, []data.Rows{left, right}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			g, bindings := activityGraph(b, c.act, c.schemas, c.rows)
			bindings["LK"] = lookup
			e := New(bindings)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(ctx, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExchange repartitions benchRows rows across four partitions by
// a two-attribute key (an int and a string).
func BenchmarkExchange(b *testing.B) {
	g, bindings := activityGraph(b, templates.Distinct(1), []data.Schema{benchSchema}, []data.Rows{benchInput(0)})
	e := New(bindings)
	id := g.Nodes()[0]
	n := g.Node(id)
	const p = 4
	pd := scatterRows(benchInput(0), p)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.exchangeByKey(ctx, id, n, pd, p, nil, 0, []int{0, 1}); err != nil {
			b.Fatal(err)
		}
	}
}
