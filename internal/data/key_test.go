package data

import (
	"encoding/binary"
	"math"
	"testing"
)

// hostileValues are values whose keys are easy to get wrong: numeric
// cross-kind equality, signed zeros, NaN payloads, ints beyond float64
// precision, NULL look-alikes, bools and dates with integer payloads,
// and strings carrying key syntax.
func hostileValues() []Value {
	return []Value{
		NewInt(3), NewFloat(3.0),
		NewFloat(math.Copysign(0, -1)), NewFloat(0), NewInt(0),
		NewFloat(math.NaN()), NewFloat(math.Float64frombits(0x7ff8000000000abc)),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		NewInt(1 << 53), NewInt(1<<53 + 1), NewFloat(1 << 53),
		NewString("NULL"), Null,
		NewBool(true), NewBool(false), NewInt(1),
		NewDateFromDays(7), NewInt(7),
		NewString("a\x1fs:b"), NewString("a"), NewString("b\x1fs:c"), NewString("c"),
		NewString("s:"), NewString(""), NewString("n:3"), NewString("\x00"),
	}
}

// checkKeyEquivalence asserts the typed-key contract for two records:
// their key tuples are equal exactly when their Key strings are, and
// equal tuples hash equal and intern to one id.
func checkKeyEquivalence(t *testing.T, a, b Record) {
	t.Helper()
	want := a.Key() == b.Key()
	apos, bpos := identity(len(a)), identity(len(b))
	got := len(a) == len(b) && keyTupleEqual(a, apos, b, bpos)
	if got != want {
		t.Fatalf("typed key equality %v, Key equality %v: %v vs %v (%q vs %q)",
			got, want, a, b, a.Key(), b.Key())
	}
	if want && HashKey(a, apos) != HashKey(b, bpos) {
		t.Fatalf("equal keys hash differently: %v vs %v", a, b)
	}
	tab := NewKeyTable(apos, 1)
	tab.Intern(a)
	if found := tab.Find(b, bpos) >= 0; found != want {
		t.Fatalf("KeyTable.Find = %v, Key equality %v: %v vs %v", found, want, a, b)
	}
	if len(a) == len(b) {
		if id, added := tab.Intern(b); added == want || (id == 0) != want {
			t.Fatalf("KeyTable.Intern(b) = (%d, %v) after a, Key equality %v: %v vs %v", id, added, want, a, b)
		}
	}
}

func identity(n int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	return pos
}

func TestKeyEquivalenceProperty(t *testing.T) {
	vals := hostileValues()
	for _, a := range vals {
		for _, b := range vals {
			checkKeyEquivalence(t, Record{a}, Record{b})
			if keyEqual(a, b) != (a.Key() == b.Key()) {
				t.Fatalf("keyEqual(%v, %v) disagrees with Key", a, b)
			}
		}
	}
	// Two-value tuples over the string and NULL look-alikes, where value
	// boundaries can shift.
	var pairs []Record
	for _, a := range vals[12:] {
		for _, b := range vals[12:] {
			pairs = append(pairs, Record{a, b})
		}
	}
	for _, a := range pairs {
		for _, b := range pairs {
			checkKeyEquivalence(t, a, b)
		}
	}
	// Tuples of different widths never match.
	checkKeyEquivalence(t, Record{NewString("")}, Record{NewString(""), NewString("")})
	checkKeyEquivalence(t, Record{}, Record{Null})
}

func TestKeyEquivalenceClasses(t *testing.T) {
	cases := []struct {
		a, b Value
		same bool
	}{
		{NewInt(3), NewFloat(3), true},
		{NewFloat(math.Copysign(0, -1)), NewFloat(0), false},
		{NewFloat(math.NaN()), NewFloat(math.Float64frombits(0x7ff8000000000abc)), true},
		{NewInt(1 << 53), NewInt(1<<53 + 1), true}, // float64 cannot tell them apart
		{NewInt(1 << 53), NewInt(1<<53 + 2), false},
		{NewString("NULL"), Null, false},
		{NewBool(true), NewInt(1), false},
		{NewDateFromDays(7), NewInt(7), false},
	}
	for _, c := range cases {
		if got := keyEqual(c.a, c.b); got != c.same {
			t.Errorf("keyEqual(%v, %v) = %v, want %v", c.a, c.b, got, c.same)
		}
		if got := c.a.Key() == c.b.Key(); got != c.same {
			t.Errorf("Key(%v) == Key(%v) is %v, want %v", c.a, c.b, got, c.same)
		}
	}
}

func TestKeyTableDenseFirstSeenIDs(t *testing.T) {
	rows := Rows{
		{NewString("x"), NewInt(1)},
		{NewString("y"), NewInt(1)},
		{NewString("x"), NewFloat(1)},
		{NewString("z"), NewInt(2)},
	}
	tab := NewKeyTable([]int{0, 1}, 0)
	var ids []int
	for _, r := range rows {
		id, _ := tab.Intern(r)
		ids = append(ids, id)
	}
	if want := []int{0, 1, 0, 2}; !equalInts(ids, want) {
		t.Errorf("ids = %v, want %v", ids, want)
	}
	// Probe with another layout: (value, name).
	if id := tab.Find(Record{NewInt(2), NewString("z")}, []int{1, 0}); id != 2 {
		t.Errorf("Find with swapped positions = %d, want 2", id)
	}
	if id := tab.Find(Record{NewString("w"), NewInt(1)}, []int{0, 1}); id != -1 {
		t.Errorf("Find of an absent key = %d, want -1", id)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRowsEqualMultisetKeyCollision: records whose string payloads carry
// the key separator must not compare equal to records that merely join
// to the same text.
func TestRowsEqualMultisetKeyCollision(t *testing.T) {
	a := Rows{{NewString("a\x1fs:b"), NewString("c")}}
	b := Rows{{NewString("a"), NewString("b\x1fs:c")}}
	if a.EqualMultiset(b) {
		t.Fatal("EqualMultiset reports distinct records equal")
	}
	if a[0].Key() == b[0].Key() {
		t.Fatal("Record.Key is not injective")
	}
}

// encodeRecord is the inverse of decodeRecord, for seeding the corpus.
func encodeRecord(r Record) []byte {
	var out []byte
	for _, v := range r {
		out = append(out, byte(v.kind))
		switch v.kind {
		case KindNull:
		case KindString:
			out = append(out, byte(len(v.s)))
			out = append(out, v.s...)
		case KindFloat:
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v.f))
		default:
			out = binary.LittleEndian.AppendUint64(out, uint64(v.i))
		}
	}
	return out
}

// decodeRecord reads up to four values: a kind byte, then an 8-byte
// payload (a length byte and the bytes for strings). Truncated input
// ends the record.
func decodeRecord(b []byte) Record {
	var r Record
	for len(b) > 0 && len(r) < 4 {
		kind := Kind(b[0] % 6)
		b = b[1:]
		if kind == KindNull {
			r = append(r, Null)
			continue
		}
		if kind == KindString {
			if len(b) == 0 {
				break
			}
			n := min(int(b[0]), len(b)-1)
			r = append(r, NewString(string(b[1:1+n])))
			b = b[1+n:]
			continue
		}
		if len(b) < 8 {
			break
		}
		u := binary.LittleEndian.Uint64(b)
		b = b[8:]
		switch kind {
		case KindInt:
			r = append(r, NewInt(int64(u)))
		case KindFloat:
			r = append(r, NewFloat(math.Float64frombits(u)))
		case KindBool:
			r = append(r, NewBool(u&1 == 1))
		case KindDate:
			r = append(r, NewDateFromDays(int64(u)))
		}
	}
	return r
}

func FuzzKeyEquivalence(f *testing.F) {
	seeds := [][2]Record{
		{{NewInt(3)}, {NewFloat(3)}},
		{{NewFloat(math.Copysign(0, -1))}, {NewFloat(0)}},
		{{NewFloat(math.NaN())}, {NewFloat(math.Float64frombits(0x7ff8000000000abc))}},
		{{NewInt(1 << 53)}, {NewInt(1<<53 + 1)}},
		{{NewString("NULL")}, {Null}},
		{{NewBool(true)}, {NewInt(1)}},
		{{NewDateFromDays(7)}, {NewInt(7)}},
		{{NewString("a\x1fs:b"), NewString("c")}, {NewString("a"), NewString("b\x1fs:c")}},
		{{NewString("s:")}, {NewString("s:"), NewString("")}},
	}
	for _, s := range seeds {
		f.Add(encodeRecord(s[0]), encodeRecord(s[1]))
	}
	f.Fuzz(func(t *testing.T, x, y []byte) {
		a, b := decodeRecord(x), decodeRecord(y)
		checkKeyEquivalence(t, a, b)
		checkKeyEquivalence(t, a, a)
	})
}
