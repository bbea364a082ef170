package dsl

import (
	"testing"

	"etlopt/internal/data"
)

// FuzzParsePredicate checks the predicate parser never panics and that
// every successfully parsed expression round-trips through its String
// form with identical evaluation on a probe record.
func FuzzParsePredicate(f *testing.F) {
	for _, seed := range []string{
		"A >= 5",
		"A = 5 and B < 3 or not(isnull(S))",
		"upper(S) = 'OK'",
		"(A + B) * 2 >= 10 - A",
		"A <> 'x'",
		"not not A > 1",
		"isnull(concat(S, S))",
		"", "(((", "A >", "'", "1 2 3",
	} {
		f.Add(seed)
	}
	schema := data.Schema{"A", "B", "S"}
	probe := data.Record{data.NewInt(3), data.NewFloat(1.5), data.NewString("ok")}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := ParsePredicate(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		e2, err := ParsePredicate(e.String())
		if err != nil {
			t.Fatalf("String() of a parsed predicate does not re-parse: %q -> %q: %v",
				src, e.String(), err)
		}
		v1, err1 := e.Bind(schema)(probe)
		v2, err2 := e2.Bind(schema)(probe)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("round trip changed evaluability: %v vs %v", err1, err2)
		}
		if err1 == nil && v1.Bool() != v2.Bool() {
			t.Fatalf("round trip changed value: %v vs %v", v1, v2)
		}
	})
}

// FuzzParseWorkflow checks the workflow parser never panics, and that
// whatever parses also serializes and re-parses.
func FuzzParseWorkflow(f *testing.F) {
	f.Add(fig1Text)
	f.Add("recordset A source schema=X\nrecordset B target schema=X\nflow A -> B\n")
	f.Add("activity a filter pred=\"X > 1\"\n")
	f.Add("flow A -> B -> C")
	f.Add("recordset \x00 source schema=")
	f.Fuzz(func(t *testing.T, src string) {
		g, err := Parse(src)
		if err != nil {
			return
		}
		text, err := Serialize(g)
		if err != nil {
			return // merged activities etc. are allowed to refuse
		}
		if _, err := Parse(text); err != nil {
			t.Fatalf("serialized form of a parsed workflow does not re-parse: %v\n%s", err, text)
		}
	})
}
