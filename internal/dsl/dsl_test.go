package dsl

import (
	"regexp"
	"sort"
	"strings"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/equiv"
	"etlopt/internal/generator"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

const fig1Text = `
# The paper's Fig. 1 workflow.
recordset PARTS1 source rows=1000 schema=PKEY,SOURCE,DATE,ECOST
recordset PARTS2 source rows=3000 schema=PKEY,SOURCE,DATE,DEPT,DCOST
recordset DW.PARTS target schema=PKEY,SOURCE,DATE,ECOST

activity nn notnull attrs=ECOST sel=0.95
activity d2e convert fn=dollar2euro args=DCOST out=ECOST_D sel=1
activity a2e reformat fn=a2edate attr=DATE sel=1
activity agg aggregate group=PKEY,SOURCE,DATE fn=sum attr=ECOST_D out=ECOST sel=0.4
activity u union
activity sig filter pred="ECOST >= 100" sel=0.5

flow PARTS1 -> nn -> u
flow PARTS2 -> d2e -> a2e -> agg -> u
flow u -> sig -> DW.PARTS
`

func TestParseFig1(t *testing.T) {
	g, err := Parse(fig1Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Activities()) != 6 {
		t.Errorf("activities = %d", len(g.Activities()))
	}
	if len(g.Sources()) != 2 || len(g.Targets()) != 1 {
		t.Errorf("sources/targets = %d/%d", len(g.Sources()), len(g.Targets()))
	}
	// The parsed workflow is symbolically equivalent to the programmatic
	// Fig. 1 construction.
	ok, why, err := equiv.Equivalent(g, templates.Fig1Workflow())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("parsed Fig. 1 differs from programmatic: %s", why)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown directive", "bogus X", "unknown directive"},
		{"dup name", "recordset A source schema=X\nrecordset A source schema=X", "duplicate node name"},
		{"missing schema", "recordset A source rows=5", "needs schema"},
		{"bad rows", "recordset A source rows=abc schema=X", "bad rows"},
		{"unknown op", "activity a frobnicate", "unknown operation"},
		{"filter needs pred", "activity a filter sel=0.5", "needs pred="},
		{"flow unknown node", "recordset A source schema=X\nflow A -> B", "unknown node"},
		{"flow too short", "flow A", "at least two nodes"},
		{"unterminated quote", `activity a filter pred="X > 1`, "unterminated quote"},
		{"bad sel", "activity a distinct sel=zz", "bad sel"},
		{"sk needs lookup", "activity a sk key=K out=S", "needs key=, out= and lookup="},
		{"aggregate incomplete", "activity a aggregate group=K", "needs group=, fn= and out="},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.wantErr)
		}
	}
}

func TestParseBinaryInputOrder(t *testing.T) {
	// The first flow line mentioning a binary activity as consumer feeds
	// its first input — order matters for diff.
	src := `
recordset NEW source rows=100 schema=K,V
recordset OLD source rows=50 schema=K,V
recordset OUT target schema=K,V
activity d diff keys=K sel=0.5
flow NEW -> d
flow OLD -> d
flow d -> OUT
`
	g, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var diffID workflow.NodeID
	for _, id := range g.Activities() {
		diffID = id
	}
	preds := g.Providers(diffID)
	if g.Node(preds[0]).RS.Name != "NEW" || g.Node(preds[1]).RS.Name != "OLD" {
		t.Errorf("diff inputs = %s,%s; want NEW,OLD",
			g.Node(preds[0]).RS.Name, g.Node(preds[1]).RS.Name)
	}
}

func TestSerializeRoundTripFig1(t *testing.T) {
	g := templates.Fig1Workflow()
	text, err := Serialize(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	ok, why, err := equiv.Equivalent(g, back)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("round trip lost equivalence: %s", why)
	}
	if back.Signature() != g.Signature() {
		t.Errorf("round trip changed structure: %q vs %q", back.Signature(), g.Signature())
	}
}

func TestSerializeRoundTripGenerated(t *testing.T) {
	for _, cat := range []generator.Category{generator.Small, generator.Medium, generator.Large} {
		sc, err := generator.Generate(generator.CategoryConfig(cat, 13))
		if err != nil {
			t.Fatal(err)
		}
		text, err := Serialize(sc.Graph)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("%s: re-parse failed: %v", cat, err)
		}
		ok, why, err := equiv.Equivalent(sc.Graph, back)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("%s: round trip lost equivalence: %s", cat, why)
		}
	}
}

func TestSerializeMergedRejected(t *testing.T) {
	g := workflow.NewGraph()
	src := g.AddRecordset(&workflow.RecordsetRef{Name: "S", Schema: data.Schema{"A"}, IsSource: true})
	m := g.AddActivity(&workflow.Activity{
		Sem: workflow.Semantics{Op: workflow.OpMerged, Components: []*workflow.Activity{
			templates.NotNull(0.9, "A"), templates.Distinct(0.8),
		}},
		Sel: 0.72,
	})
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "T", Schema: data.Schema{"A"}, IsTarget: true})
	g.MustAddEdge(src, m)
	g.MustAddEdge(m, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	if _, err := Serialize(g); err == nil {
		t.Error("serializing a merged activity should fail with a clear message")
	}
}

func TestParsePredicateForms(t *testing.T) {
	schema := data.Schema{"A", "B", "S"}
	row := data.Record{data.NewInt(5), data.NewFloat(2.5), data.NewString("ok")}
	cases := []struct {
		src  string
		want bool
	}{
		{"A >= 5", true},
		{"A > 5", false},
		{"A <> 4", true},
		{"A != 5", false},
		{"A = 5 and B < 3", true},
		{"A = 5 and B > 3", false},
		{"A = 4 or B < 3", true},
		{"not A = 4", true},
		{"not(A = 5)", false},
		{"S = 'ok'", true},
		{"S = 'no'", false},
		{"isnull(S)", false},
		{"not(isnull(S))", true},
		{"A + B > 7", true},
		{"A * 2 = 10", true},
		{"(A - 1) / 2 = 2", true},
		{"A = 4 or (A = 5 and B >= 2.5)", true},
		{"upper(S) = 'OK'", true},
		{"A >= -10", true},
	}
	for _, c := range cases {
		e, err := ParsePredicate(c.src)
		if err != nil {
			t.Errorf("ParsePredicate(%q): %v", c.src, err)
			continue
		}
		v, err := e.Bind(schema)(row)
		if err != nil {
			t.Errorf("Eval(%q): %v", c.src, err)
			continue
		}
		if v.Bool() != c.want {
			t.Errorf("%q = %v, want %v", c.src, v.Bool(), c.want)
		}
	}
}

func TestParsePredicateErrors(t *testing.T) {
	for _, src := range []string{
		"", "A >", "A > > 1", "A ??? 1", "'unterminated", "isnull(", "f(A", "(A > 1", "A > 1 extra",
	} {
		if _, err := ParsePredicate(src); err == nil {
			t.Errorf("ParsePredicate(%q) should fail", src)
		}
	}
}

func TestPredicateRoundTrip(t *testing.T) {
	// Expr.String() must parse back to an expression with identical
	// evaluation semantics.
	schema := data.Schema{"A", "B", "S"}
	rows := data.Rows{
		{data.NewInt(1), data.NewFloat(0.5), data.NewString("x")},
		{data.NewInt(10), data.NewFloat(99), data.NewString("Y")},
		{data.Null, data.NewFloat(-3), data.NewString("")},
	}
	for _, src := range []string{
		"A >= 5 and B < 50",
		"not(isnull(A)) or S = 'x'",
		"A + B * 2 >= 10",
		"upper(S) = 'X'",
	} {
		e1, err := ParsePredicate(src)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := ParsePredicate(e1.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", e1.String(), src, err)
		}
		for _, r := range rows {
			v1, err1 := e1.Bind(schema)(r)
			v2, err2 := e2.Bind(schema)(r)
			if (err1 == nil) != (err2 == nil) {
				t.Errorf("%q: error mismatch %v vs %v", src, err1, err2)
				continue
			}
			if err1 == nil && v1.Bool() != v2.Bool() {
				t.Errorf("%q on %v: %v vs %v", src, r, v1.Bool(), v2.Bool())
			}
		}
	}
}

func TestNodeNames(t *testing.T) {
	g := templates.Fig1Workflow()
	names := NodeNames(g)
	if len(names) != g.Len() {
		t.Errorf("NodeNames covers %d of %d nodes", len(names), g.Len())
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate node name %q", n)
		}
		seen[n] = true
	}
	if !seen["PARTS1"] || !seen["DW.PARTS"] {
		t.Error("recordsets should keep their names")
	}
}

// TestSerializeRoundTripAllOps builds a workflow exercising every
// operation kind the DSL supports — filter, notnull, both pkcheck
// variants, distinct, project, apply, convert, reformat, aggregate, sk,
// union, join, diff, intersect — and round-trips it: the serialized form
// re-parses to an equivalent workflow and serialization is idempotent
// (the serialized form is a normal form).
func TestSerializeRoundTripAllOps(t *testing.T) {
	src := `
recordset MAIN source rows=10000 schema=K,V,W,CODE,DATE,XTRA
recordset SIDE source rows=2000 schema=K,S
recordset EXCL source rows=50 schema=K
recordset KEEP source rows=70 schema=K
recordset OUT target schema=V,W10,CODE,UC,DATE,TOTV,S,SK

activity f   filter pred="V >= 10 or not(isnull(W))" sel=0.6
activity nn  notnull attrs=K,V sel=0.95
activity pk1 pkcheck attrs=K sel=0.9
activity pk2 pkcheck attrs=K lookup=DWK sel=0.9
activity dd  distinct sel=0.99
activity pj  project attrs=XTRA sel=1
activity ap  apply fn=upper args=CODE out=UC sel=1
activity cv  convert fn=scale10 args=W out=W10 sel=1
activity rf  reformat fn=a2edate attr=DATE sel=1
activity ag  aggregate group=K,V,W10,CODE,UC,DATE fn=sum attr=V out=TOTV sel=0.5
activity sk  sk key=K out=SK lookup=LKP sel=1
activity dx  diff keys=K sel=0.9
activity ix  intersect keys=K sel=0.8
activity jn  join keys=K sel=0.001

flow MAIN -> f -> nn -> pk1 -> pk2 -> dd -> pj -> ap -> cv -> rf -> ag -> dx
flow EXCL -> dx
flow dx -> ix
flow KEEP -> ix
flow ix -> jn
flow SIDE -> jn
flow jn -> sk -> OUT
`
	g, err := Parse(src)
	if err != nil {
		t.Fatalf("all-ops workflow should parse: %v", err)
	}
	text, err := Serialize(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("all-ops round trip failed to parse: %v\n%s", err, text)
	}
	ok, why, err := equiv.Equivalent(g, back)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("all-ops round trip lost equivalence: %s", why)
	}
	// Serializing the re-parse reproduces the same set of declarations and
	// flows (line order may differ where the topological order has ties,
	// since re-parsing renumbers nodes by topological priority).
	text2, err := Serialize(back)
	if err != nil {
		t.Fatal(err)
	}
	if normalizeLines(text2) != normalizeLines(text) {
		t.Errorf("serialization lost or changed lines:\n--- first\n%s\n--- second\n%s", text, text2)
	}
}

func TestParseRejectsIllFormed(t *testing.T) {
	// Parse validates semantics: a target whose schema the flow cannot
	// deliver is rejected up front.
	src := `
recordset S source rows=10 schema=A
recordset T target schema=A,MISSING
flow S -> T
`
	if _, err := Parse(src); err == nil {
		t.Error("target schema mismatch should fail at parse time")
	}
}

// normalizeLines sorts a serialization's lines after erasing the
// synthetic a<ID> activity names, which depend on node numbering.
func normalizeLines(text string) string {
	re := regexp.MustCompile(`\ba[0-9]+\b`)
	lines := strings.Split(re.ReplaceAllString(text, "aX"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
