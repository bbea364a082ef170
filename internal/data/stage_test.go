package data

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// hostileStageRows holds values a type-inferring text format changes:
// integral and signed-zero floats, strings that read as an int, a float,
// NULL, a bool or a date, empty strings, and NaN.
func hostileStageRows() (Schema, Rows) {
	schema := Schema{"K", "V", "W"}
	return schema, Rows{
		{NewString("42"), NewFloat(3), NewInt(3)},
		{NewString("NULL"), Null, NewFloat(math.Copysign(0, -1))},
		{NewString("true"), NewBool(true), NewBool(false)},
		{NewString("2021-01-02"), NewDate(2021, time.January, 2), NewString("")},
		{NewString(""), NewFloat(math.NaN()), NewInt(math.MinInt64)},
		{NewString("1e3"), NewFloat(1e300), NewString("comma, \"quote\"\nnewline")},
	}
}

func encodeStageBytes(t testing.TB, schema Schema, rows Rows) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeStage(&buf, schema, rows); err != nil {
		t.Fatalf("encodeStage: %v", err)
	}
	return buf.Bytes()
}

// checkStageRoundTrip writes rows to a stage file and reads them back,
// requiring Digest-equal rows.
func checkStageRoundTrip(t *testing.T, schema Schema, rows Rows) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "node-1.csv")
	if err := WriteStage(path, schema, rows); err != nil {
		t.Fatalf("WriteStage: %v", err)
	}
	got, err := ReadStage(path, schema)
	if err != nil {
		t.Fatalf("ReadStage: %v", err)
	}
	if diff := IdenticalDiff(rows, got); diff != "" {
		t.Fatalf("round trip changed rows: %s", diff)
	}
}

func TestStageRoundTrip(t *testing.T) {
	schema, rows := hostileStageRows()
	checkStageRoundTrip(t, schema, rows)
	checkStageRoundTrip(t, Schema{"S"}, Rows{{NewString("")}, {NewString("42")}, {NewString("")}})
	checkStageRoundTrip(t, schema, nil)
	checkStageRoundTrip(t, Schema{}, nil)
}

func TestWriteStageRejectsMalformedRows(t *testing.T) {
	dir := t.TempDir()
	if err := WriteStage(filepath.Join(dir, "a.csv"), Schema{"A", "B"}, Rows{{NewInt(1)}}); err == nil {
		t.Error("a row narrower than the schema was staged")
	}
	if err := WriteStage(filepath.Join(dir, "b.csv"), Schema{}, Rows{{}}); err == nil {
		t.Error("a row without attributes was staged")
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "*")); len(matches) != 0 {
		t.Errorf("failed writes left files behind: %v", matches)
	}
}

func TestReadStageDamage(t *testing.T) {
	schema, rows := hostileStageRows()
	good := encodeStageBytes(t, schema, rows)
	if _, err := decodeStage(good, schema); err != nil {
		t.Fatalf("undamaged stage: %v", err)
	}
	for n := 0; n < len(good); n++ {
		if _, err := decodeStage(good[:n], schema); err == nil {
			t.Fatalf("stage truncated to %d of %d bytes decoded", n, len(good))
		}
	}
	for i := range good {
		bad := bytes.Clone(good)
		bad[i] ^= 0x04
		if _, err := decodeStage(bad, schema); err == nil {
			t.Fatalf("stage with byte %d flipped decoded", i)
		}
	}
	if _, err := decodeStage(good, Schema{"K", "V", "X"}); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("stage read against another schema: err %v", err)
	}
	if _, err := decodeStage([]byte("K,V,W\n42,3,3\n"), schema); err == nil {
		t.Fatal("a CSV file decoded as a stage")
	}
	if _, err := ReadStage(filepath.Join(t.TempDir(), "missing.csv"), schema); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing stage: err %v, want fs.ErrNotExist", err)
	}
}

// withCRC frames body (everything but the trailer) with a valid checksum.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
}

// stageHeader returns a stage body up to and including the schema.
func stageHeader(schema Schema) []byte {
	b := append([]byte(stageMagic), StageVersion)
	b = binary.AppendUvarint(b, uint64(len(schema)))
	for _, a := range schema {
		b = binary.AppendUvarint(b, uint64(len(a)))
		b = append(b, a...)
	}
	return b
}

// TestReadStageRejectsOversizedCounts decodes checksummed stages whose
// counts and lengths claim more than the remaining bytes hold: each is
// rejected before the claimed size is allocated.
func TestReadStageRejectsOversizedCounts(t *testing.T) {
	schema := Schema{"A"}
	cases := map[string][]byte{
		"row count":               binary.AppendUvarint(stageHeader(schema), 1<<20),
		"huge row count":          binary.AppendUvarint(stageHeader(schema), math.MaxUint64),
		"attribute count":         binary.AppendUvarint(append([]byte(stageMagic), StageVersion), 1<<20),
		"attribute name":          binary.AppendUvarint(append([]byte(stageMagic), StageVersion, 1), 1<<20),
		"string length":           binary.AppendUvarint(append(binary.AppendUvarint(stageHeader(schema), 1), byte(KindString)), 1<<20),
		"rows without attributes": binary.AppendUvarint(stageHeader(Schema{}), 3),
	}
	for name, body := range cases {
		b := withCRC(body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeStage(b, schema)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: decoding allocated %d bytes before rejecting", name, grew)
		}
	}
}

func TestIdenticalDiff(t *testing.T) {
	a := Rows{{NewInt(1), NewString("x")}, {NewFloat(3), Null}}
	if d := IdenticalDiff(a, a.Clone()); d != "" {
		t.Fatalf("identical rows: %q", d)
	}
	cases := []struct {
		got  Rows
		want string
	}{
		{Rows{{NewInt(1), NewString("x")}}, "1 rows, want 2"},
		{Rows{{NewInt(1), NewString("x")}, {NewInt(3), Null}}, `row 1: (int "3", null "NULL"), want (float "3", null "NULL")`},
		{Rows{{NewInt(1), NewString("x")}, {NewFloat(3), NewString("NULL")}}, `row 1: (float "3", string "NULL")`},
		{Rows{{NewFloat(3), Null}, {NewInt(1), NewString("x")}}, "row 0:"},
	}
	for _, c := range cases {
		if d := IdenticalDiff(a, c.got); !strings.HasPrefix(d, c.want) {
			t.Errorf("IdenticalDiff(%v) = %q, want prefix %q", c.got, d, c.want)
		}
	}
}

// FuzzStageRoundTrip writes arbitrary typed values, and a one-column row
// of an arbitrary string next to one holding "", and requires them back
// Digest-equal.
func FuzzStageRoundTrip(f *testing.F) {
	_, rows := hostileStageRows()
	for _, rec := range rows {
		f.Add(encodeRecord(rec), "")
	}
	f.Add(encodeRecord(Record{NewFloat(3), NewString("42"), NewString("NULL"), NewString("true")}), "2021-01-02")
	f.Fuzz(func(t *testing.T, x []byte, s string) {
		rec := decodeRecord(x)
		schema := make(Schema, len(rec))
		for i := range schema {
			schema[i] = string(rune('A' + i))
		}
		stages := []struct {
			schema Schema
			rows   Rows
		}{
			{schema, Rows{rec, rec}},
			{Schema{"S"}, Rows{{NewString(s)}, {NewString("")}}},
		}
		for _, st := range stages {
			if len(st.schema) == 0 {
				continue
			}
			got, err := decodeStage(encodeStageBytes(t, st.schema, st.rows), st.schema)
			if err != nil {
				t.Fatalf("decoding %v: %v", st.rows, err)
			}
			if st.rows.Digest() != got.Digest() {
				t.Fatalf("round trip changed rows: %s", IdenticalDiff(st.rows, got))
			}
		}
	})
}

// FuzzReadStage decodes arbitrary bytes, as found and with a valid
// checksum appended so the fuzzer reaches past the checksum: decoding
// never panics, and whatever decodes survives a second round trip
// Digest-equal.
func FuzzReadStage(f *testing.F) {
	schema, rows := hostileStageRows()
	good := encodeStageBytes(f, schema, rows)
	f.Add(good)
	f.Add(good[:len(good)-4])
	f.Add(binary.AppendUvarint(stageHeader(schema), 1<<40))
	f.Add([]byte("K,V,W\n42,3,3\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, withCRC(b)} {
			got, err := decodeStage(in, schema)
			if err != nil {
				continue
			}
			again, err := decodeStage(encodeStageBytes(t, schema, got), schema)
			if err != nil || again.Digest() != got.Digest() {
				t.Fatalf("decoded %d rows that do not survive a round trip (err %v)", len(got), err)
			}
		}
	})
}
