package data

import (
	"testing"
	"testing/quick"
)

func TestSchemaBasics(t *testing.T) {
	s := Schema{"A", "B", "C"}
	if s.Index("B") != 1 {
		t.Errorf("Index(B) = %d", s.Index("B"))
	}
	if s.Index("Z") != -1 {
		t.Errorf("Index(Z) = %d", s.Index("Z"))
	}
	if !s.Has("A") || s.Has("Z") {
		t.Error("Has wrong")
	}
	if !s.HasAll(Schema{"A", "C"}) {
		t.Error("HasAll(A,C) = false")
	}
	if s.HasAll(Schema{"A", "Z"}) {
		t.Error("HasAll(A,Z) = true")
	}
	if !s.HasAll(nil) {
		t.Error("HasAll(nil) = false; empty set is a subset of everything")
	}
}

func TestSchemaEqualAndSameSet(t *testing.T) {
	a := Schema{"A", "B"}
	b := Schema{"B", "A"}
	if a.Equal(b) {
		t.Error("order-sensitive Equal should fail")
	}
	if !a.SameSet(b) {
		t.Error("SameSet should ignore order")
	}
	if a.SameSet(Schema{"A", "B", "C"}) {
		t.Error("SameSet with different sizes")
	}
	// SameSet compares as sets of names; duplicate attribute names do not
	// occur in well-formed schemas.
	if !a.SameSet(a) {
		t.Error("SameSet self")
	}
}

func TestSchemaSetOps(t *testing.T) {
	s := Schema{"A", "B", "C", "D"}
	if got := s.Minus(Schema{"B", "D"}); !got.Equal((Schema{"A", "C"})) {
		t.Errorf("Minus = %v", got)
	}
	if got := s.Intersect(Schema{"D", "B", "Z"}); !got.Equal((Schema{"B", "D"})) {
		t.Errorf("Intersect = %v (order should follow receiver)", got)
	}
	if got := (Schema{"A"}).Union(Schema{"B", "A", "C"}); !got.Equal((Schema{"A", "B", "C"})) {
		t.Errorf("Union = %v", got)
	}
}

func TestSchemaCloneIndependence(t *testing.T) {
	s := Schema{"A", "B"}
	c := s.Clone()
	c[0] = "X"
	if s[0] != "A" {
		t.Error("Clone shares storage")
	}
	if Schema(nil).Clone() != nil {
		t.Error("nil Clone should stay nil")
	}
}

func TestProjection(t *testing.T) {
	src := Schema{"A", "B", "C"}
	rows := Rows{
		{NewInt(1), NewInt(2), NewInt(3)},
		{NewInt(4), NewInt(5), NewInt(6)},
	}
	got := NewProjection(src, Schema{"C", "A"}).Apply(rows)
	if len(got) != 2 || len(got[0]) != 2 ||
		!got[0][0].Equal(NewInt(3)) || !got[0][1].Equal(NewInt(1)) ||
		!got[1][0].Equal(NewInt(6)) || !got[1][1].Equal(NewInt(4)) {
		t.Errorf("Apply = %v", got)
	}
	// Records share a slab but are capped: appending to one must not
	// overwrite its neighbour.
	if cap(got[0]) != 2 {
		t.Errorf("record capacity %d, want 2", cap(got[0]))
	}
	_ = append(got[0], NewInt(99))
	if !got[1][0].Equal(NewInt(6)) {
		t.Errorf("append to record 0 overwrote record 1: %v", got[1])
	}
	// The inputs are untouched.
	if !rows[0][0].Equal(NewInt(1)) || len(rows[0]) != 3 {
		t.Errorf("Apply mutated its input: %v", rows[0])
	}
	// Missing attributes project to NULL.
	got = NewProjection(src, Schema{"Z"}).Apply(rows)
	if !got[0][0].IsNull() {
		t.Errorf("missing attribute should be NULL, got %v", got[0][0])
	}
	if got := NewProjection(src, src).Apply(nil); len(got) != 0 {
		t.Errorf("Apply(nil) = %v", got)
	}
}

func TestRecordKey(t *testing.T) {
	a := Record{NewInt(1), NewString("x")}
	b := Record{NewInt(1), NewString("x")}
	c := Record{NewInt(1), NewString("y")}
	if a.Key() != b.Key() {
		t.Error("equal records should share keys")
	}
	if a.Key() == c.Key() {
		t.Error("different records should not share keys")
	}
	// Separator safety: ("ab","c") must differ from ("a","bc").
	d := Record{NewString("ab"), NewString("c")}
	e := Record{NewString("a"), NewString("bc")}
	if d.Key() == e.Key() {
		t.Error("record key is ambiguous across value boundaries")
	}
}

func TestRowsEqualMultiset(t *testing.T) {
	r1 := Record{NewInt(1)}
	r2 := Record{NewInt(2)}
	a := Rows{r1, r2, r1}
	b := Rows{r2, r1, r1}
	if !a.EqualMultiset(b) {
		t.Error("order should not matter")
	}
	if a.EqualMultiset(Rows{r1, r2}) {
		t.Error("different sizes should differ")
	}
	if a.EqualMultiset(Rows{r1, r2, r2}) {
		t.Error("different multiplicities should differ")
	}
	if !(Rows{}).EqualMultiset(Rows{}) {
		t.Error("empty multisets should be equal")
	}
}

func TestRowsEqualMultisetProperty(t *testing.T) {
	f := func(vals []int64, seed uint8) bool {
		rows := make(Rows, len(vals))
		for i, v := range vals {
			rows[i] = Record{NewInt(v)}
		}
		// Rotate as a cheap permutation.
		k := 0
		if len(rows) > 0 {
			k = int(seed) % len(rows)
		}
		perm := append(append(Rows{}, rows[k:]...), rows[:k]...)
		return rows.EqualMultiset(perm)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowsDiffMultiset(t *testing.T) {
	a := Rows{Record{NewInt(1)}, Record{NewInt(2)}}
	b := Rows{Record{NewInt(1)}, Record{NewInt(3)}}
	diffs := a.DiffMultiset(b, 10)
	if len(diffs) != 2 {
		t.Errorf("expected 2 diffs, got %v", diffs)
	}
	if got := a.DiffMultiset(a, 10); got != nil {
		t.Errorf("self-diff should be nil, got %v", got)
	}
	// Limit respected.
	if got := a.DiffMultiset(b, 1); len(got) != 1 {
		t.Errorf("limit ignored: %v", got)
	}
}

func TestSortRows(t *testing.T) {
	rows := Rows{
		{NewInt(2), NewString("b")},
		{NewInt(1), NewString("z")},
		{NewInt(2), NewString("a")},
	}
	SortRows(rows, []int{0, 1})
	want := Rows{
		{NewInt(1), NewString("z")},
		{NewInt(2), NewString("a")},
		{NewInt(2), NewString("b")},
	}
	for i := range want {
		if rows[i].Key() != want[i].Key() {
			t.Fatalf("row %d = %v, want %v", i, rows[i], want[i])
		}
	}
}

func TestSplitRoundRobin(t *testing.T) {
	rows := make(Rows, 11)
	for i := range rows {
		rows[i] = Record{NewInt(int64(i))}
	}
	for _, n := range []int{1, 2, 3, 11, 20} {
		parts := rows.SplitRoundRobin(n)
		if len(parts) != n {
			t.Fatalf("n=%d: got %d partitions", n, len(parts))
		}
		// Row i must sit in partition i mod n, in order.
		for p, part := range parts {
			for j, r := range part {
				if want := int64(p + j*n); r[0].Int() != want {
					t.Fatalf("n=%d partition %d slot %d = %v, want %d", n, p, j, r, want)
				}
			}
		}
		back := InterleaveRoundRobin(parts)
		if len(back) != len(rows) {
			t.Fatalf("n=%d: round trip lost rows: %d != %d", n, len(back), len(rows))
		}
		for i := range rows {
			if back[i].Key() != rows[i].Key() {
				t.Fatalf("n=%d: round trip reordered row %d", n, i)
			}
		}
	}
	// Degenerate counts clamp to one partition.
	if parts := rows.SplitRoundRobin(0); len(parts) != 1 || len(parts[0]) != len(rows) {
		t.Errorf("n=0 should clamp to a single full partition")
	}
	if parts := Rows(nil).SplitRoundRobin(4); len(parts) != 4 {
		t.Errorf("empty rows should still yield 4 empty partitions")
	}
	if got := InterleaveRoundRobin(nil); got != nil {
		t.Errorf("InterleaveRoundRobin(nil) = %v, want nil", got)
	}
}
