package dsl_test

import (
	"fmt"

	"etlopt/internal/data"
	"etlopt/internal/dsl"
)

// ExampleParse builds a workflow from its textual definition.
func ExampleParse() {
	g, err := dsl.Parse(`
recordset SRC source rows=500 schema=ID,PRICE
recordset DW target schema=ID,PRICE
activity keep filter pred="PRICE >= 10" sel=0.4
flow SRC -> keep -> DW
`)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("signature:", g.Signature())
	fmt.Println("activities:", len(g.Activities()))
	// Output:
	// signature: 1.3.2
	// activities: 1
}

// ExampleParsePredicate evaluates a parsed selection predicate against a
// record.
func ExampleParsePredicate() {
	pred, err := dsl.ParsePredicate("PRICE >= 10 and not(isnull(ID))")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	schema := data.Schema{"ID", "PRICE"}
	ok, _ := pred.Bind(schema)(data.Record{data.NewInt(1), data.NewFloat(25)})
	rejected, _ := pred.Bind(schema)(data.Record{data.Null, data.NewFloat(25)})
	fmt.Println(pred, "→", ok.Bool(), rejected.Bool())
	// Output:
	// ((PRICE>=10) and not(isnull(ID))) → true false
}
