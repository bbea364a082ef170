package data

import (
	"fmt"
	"math"
	"strings"
)

// FNV-1a parameters. The digest below is the package's one canonical row
// hash: the shared-work cache key, the empirical equivalence oracle and the
// property suites all compare rows through it, so its definition is part of
// the bit-identity contract — change it and every content-addressed cache
// entry and recorded baseline is invalidated.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// digestState is an incremental FNV-1a fold over typed values.
type digestState uint64

func newDigest() digestState { return digestState(fnvOffset) }

func (d *digestState) byte(b byte) {
	*d = digestState((uint64(*d) ^ uint64(b)) * fnvPrime)
}

func (d *digestState) uint64(x uint64) {
	for i := 0; i < 8; i++ {
		d.byte(byte(x))
		x >>= 8
	}
}

func (d *digestState) str(s string) {
	for i := 0; i < len(s); i++ {
		d.byte(s[i])
	}
	d.byte(0xff) // terminator: ("ab","c") must differ from ("a","bc")
}

// value folds one typed value: the kind tag first, then the kind's
// canonical payload, so Int(7), Float(7) and String("7") all digest
// differently even though they render identically in CSV.
func (d *digestState) value(v Value) {
	d.byte(byte(v.kind))
	switch v.kind {
	case KindNull:
		// kind tag alone
	case KindFloat:
		d.uint64(math.Float64bits(v.f))
	case KindString:
		d.str(v.s)
	default: // Int, Bool, Date all carry their payload in i
		d.uint64(uint64(v.i))
	}
	d.byte(0xfe) // value separator
}

// Digest returns an order-sensitive FNV-1a digest of the rows: every typed
// value is folded in record order, with record separators, so two row
// slices digest equal exactly when they hold the same typed values in the
// same positions. An empty and a nil slice digest equal.
func (rows Rows) Digest() uint64 {
	d := newDigest()
	for _, rec := range rows {
		for _, v := range rec {
			d.value(v)
		}
		d.byte(0xfd) // record separator
	}
	return uint64(d)
}

// RecordsetDigest scans a recordset and returns the canonical digest of its
// schema and contents: the schema's attribute names in order, then the rows
// via Rows.Digest. It is the data half of the shared-work cache key — two
// recordsets with equal names, schemas and row-for-row equal typed contents
// are interchangeable as ETL sources.
func RecordsetDigest(rs Recordset) (uint64, error) {
	rows, err := rs.Scan()
	if err != nil {
		return 0, err
	}
	d := newDigest()
	for _, attr := range rs.Schema() {
		d.str(attr)
	}
	d.uint64(rows.Digest())
	return uint64(d), nil
}

// IdenticalDiff describes the first divergence between two row slices
// under bit-identity — the same typed values in the same positions and
// order — or returns "" when they are identical. Digest equality decides;
// a per-row digest scan only runs to locate the first divergent row.
func IdenticalDiff(want, got Rows) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	if want.Digest() == got.Digest() {
		return ""
	}
	for i := range want {
		if want[i:i+1].Digest() != got[i:i+1].Digest() {
			return fmt.Sprintf("row %d: %s, want %s", i, typedString(got[i]), typedString(want[i]))
		}
	}
	return "rows digest differently"
}

// typedString renders a record with each value's kind, so diagnostics
// tell int 3 from float 3 and the string "NULL" from NULL.
func typedString(r Record) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = fmt.Sprintf("%s %q", v.kind, v.String())
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
