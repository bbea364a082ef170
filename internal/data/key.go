package data

import "math"

// Key equivalence without strings. Value.Key defines which values the
// engine's key-sensitive operators (DISTINCT, grouping, key checks, joins,
// set operations, surrogate-key lookup, exchange routing) treat as the same
// key: ints and floats of equal float64 value share a class, every NaN is
// one class, -0 and +0 stay apart, and ints above 2^53 collide exactly as
// their float64 conversions do. keyEqual and HashKey reproduce those
// classes over typed values, so no operator builds a key string per row.

// canonicalNaN is the one bit pattern every NaN folds to: Key renders all
// NaN payloads as "NaN".
const canonicalNaN uint64 = 0x7ff8000000000001

// numKeyBits returns the key class of a numeric value: the bits of its
// float64 value, with every NaN folded to one pattern.
func numKeyBits(v Value) uint64 {
	f := v.Float()
	if f != f {
		return canonicalNaN
	}
	return math.Float64bits(f)
}

// keyEqual reports whether a.Key() == b.Key(), without building either
// string.
func keyEqual(a, b Value) bool {
	switch a.kind {
	case KindInt, KindFloat:
		return b.IsNumeric() && numKeyBits(a) == numKeyBits(b)
	case KindString:
		return b.kind == KindString && a.s == b.s
	case KindNull:
		return b.kind == KindNull
	default: // Bool and Date carry their payload in i
		return a.kind == b.kind && a.i == b.i
	}
}

// keyValue folds one value's key class: numbers share one tag, so int 3
// and float 3 hash alike, as their Keys are equal.
func (d *digestState) keyValue(v Value) {
	switch v.kind {
	case KindInt, KindFloat:
		d.byte(byte(KindFloat))
		d.uint64(numKeyBits(v))
	case KindString:
		d.byte(byte(KindString))
		d.str(v.s)
	default:
		d.byte(byte(v.kind))
		d.uint64(uint64(v.i))
	}
}

// HashKey hashes the key tuple of r at positions pos with FNV-1a over the
// values' key classes, then avalanches the result so that every bit —
// the low ones exchange routing reduces modulo the partition count
// included — depends on every input byte. Tuples whose values are
// pairwise keyEqual hash equal.
func HashKey(r Record, pos []int) uint64 {
	d := newDigest()
	for _, p := range pos {
		d.keyValue(r[p])
	}
	h := uint64(d)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// keyTupleEqual compares the key tuple of a at apos with that of b at
// bpos value by value.
func keyTupleEqual(a Record, apos []int, b Record, bpos []int) bool {
	for i, p := range apos {
		if !keyEqual(a[p], b[bpos[i]]) {
			return false
		}
	}
	return true
}

// KeyTable interns key tuples — the values of a record at the table's
// fixed positions — to dense ids 0, 1, 2, … in first-seen order. Two
// tuples get the same id exactly when their values' Keys are pairwise
// equal; records that hash alike are told apart by walking a collision
// chain and comparing value by value. A KeyTable keeps a reference to the
// first record interned under each id and never copies values.
//
// A KeyTable is not safe for concurrent writes; once built, concurrent
// Find calls are safe.
type KeyTable struct {
	pos   []int
	heads map[uint64]int32
	next  []int32 // next id in the same hash chain; -1 ends the chain
	reps  []Record
}

// NewKeyTable returns an empty table keyed by the values at pos, sized for
// about sizeHint distinct keys.
func NewKeyTable(pos []int, sizeHint int) *KeyTable {
	return &KeyTable{
		pos:   pos,
		heads: make(map[uint64]int32, sizeHint),
		next:  make([]int32, 0, sizeHint),
		reps:  make([]Record, 0, sizeHint),
	}
}

// Intern returns the id of r's key tuple, adding the tuple under the next
// id when it is new; added reports which happened.
func (t *KeyTable) Intern(r Record) (id int, added bool) {
	h := HashKey(r, t.pos)
	head, ok := t.heads[h]
	if ok {
		for i := head; i >= 0; i = t.next[i] {
			if keyTupleEqual(r, t.pos, t.reps[i], t.pos) {
				return int(i), false
			}
		}
	} else {
		head = -1
	}
	id = len(t.reps)
	t.reps = append(t.reps, r)
	t.next = append(t.next, head)
	t.heads[h] = int32(id)
	return id, true
}

// Find returns the id of the key tuple of r at positions pos, or -1 when
// the table holds no equal tuple. A tuple of another width than the
// table's never matches.
func (t *KeyTable) Find(r Record, pos []int) int {
	if len(pos) != len(t.pos) {
		return -1
	}
	head, ok := t.heads[HashKey(r, pos)]
	if !ok {
		return -1
	}
	for i := head; i >= 0; i = t.next[i] {
		if keyTupleEqual(r, pos, t.reps[i], t.pos) {
			return int(i)
		}
	}
	return -1
}
