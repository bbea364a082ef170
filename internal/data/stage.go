package data

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Stage files carry rows between runs: checkpoint staging and shared-cache
// spill both go through WriteStage and ReadStage, so a staged row comes
// back with exactly the typed values it was written with (Digest-equal).
// The layout, with varints as in encoding/binary:
//
//	"ETLSTAGE", uvarint StageVersion
//	uvarint attribute count, each attribute as uvarint length + bytes
//	uvarint row count
//	per value: one Kind byte, then nothing for NULL, a varint for int,
//	  bool and date, 8 little-endian bytes of the float64 bits, or a
//	  uvarint length + bytes for a string
//	4 little-endian bytes: CRC-32 (IEEE) of everything before them
const stageMagic = "ETLSTAGE"

// StageVersion is the stage format's version. Readers reject any other
// version, and the checkpoint manifest records it so a staging area left
// by a build with another format is discarded rather than read.
const StageVersion = 1

// WriteStage atomically persists rows with the given schema at path: the
// file is written beside path under a temporary name and renamed into
// place, so a torn write never leaves a readable stage behind.
func WriteStage(path string, schema Schema, rows Rows) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("data: writing stage %s: %w", path, err)
	}
	err = encodeStage(f, schema, rows)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("data: writing stage %s: %w", path, err)
	}
	return nil
}

// ReadStage reads the stage at path, whose header must carry schema. A
// missing file returns an error satisfying errors.Is(err, fs.ErrNotExist);
// a truncated or damaged file, another format or version, or another
// schema is an error, never rows.
func ReadStage(path string, schema Schema) (Rows, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rows, err := decodeStage(b, schema)
	if err != nil {
		return nil, fmt.Errorf("data: stage %s: %w", path, err)
	}
	return rows, nil
}

func encodeStage(w io.Writer, schema Schema, rows Rows) error {
	if len(schema) == 0 && len(rows) > 0 {
		return errors.New("rows without attributes cannot be staged")
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 64<<10)
	var scratch [binary.MaxVarintLen64]byte
	uvarint := func(x int) { bw.Write(binary.AppendUvarint(scratch[:0], uint64(x))) }
	bw.WriteString(stageMagic)
	uvarint(StageVersion)
	uvarint(len(schema))
	for _, attr := range schema {
		uvarint(len(attr))
		bw.WriteString(attr)
	}
	uvarint(len(rows))
	for i, rec := range rows {
		if len(rec) != len(schema) {
			return fmt.Errorf("row %d has %d values, schema %v has %d", i, len(rec), schema, len(schema))
		}
		for _, v := range rec {
			bw.WriteByte(byte(v.kind))
			switch v.kind {
			case KindNull:
			case KindFloat:
				bw.Write(binary.LittleEndian.AppendUint64(scratch[:0], math.Float64bits(v.f)))
			case KindString:
				uvarint(len(v.s))
				bw.WriteString(v.s)
			default: // Int, Bool, Date all carry their payload in i
				bw.Write(binary.AppendVarint(scratch[:0], v.i))
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(scratch[:0], crc.Sum32()))
	return err
}

// stageDecoder reads a checksummed stage body. The first error sticks;
// later reads stay in bounds and return zero values.
type stageDecoder struct {
	b   []byte
	off int
	// str holds b[base:] as one string; string values are slices of it.
	str  string
	base int
	err  error
}

func (d *stageDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%s at byte %d", what, d.off)
	}
}

func (d *stageDecoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.off += n
	return x
}

// length reads a count of items that take at least unit bytes each and
// rejects one the remaining bytes cannot hold, before anything is
// allocated for it.
func (d *stageDecoder) length(unit int) int {
	x := d.uvarint()
	if x > uint64((len(d.b)-d.off)/unit) {
		d.fail("count beyond the remaining bytes")
		return 0
	}
	return int(x)
}

func (d *stageDecoder) value() Value {
	if d.off == len(d.b) {
		d.fail("truncated row")
		return Null
	}
	k := Kind(d.b[d.off])
	d.off++
	switch k {
	case KindNull:
		return Null
	case KindFloat:
		if len(d.b)-d.off < 8 {
			d.fail("truncated float")
			return Null
		}
		d.off += 8
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off-8:])))
	case KindString:
		n := d.length(1)
		d.off += n
		return NewString(d.str[d.off-n-d.base : d.off-d.base])
	case KindInt, KindBool, KindDate:
		u := d.uvarint()
		v := Value{kind: k, i: int64(u>>1) ^ -int64(u&1)} // zigzag, as binary.AppendVarint writes
		if k == KindBool && v.i != 0 && v.i != 1 {
			d.fail("bool payload out of range")
		}
		return v
	}
	d.fail("unknown kind")
	return Null
}

// decodeStage checks a stage file's framing, checksum and schema header,
// then decodes its rows, which share one backing array of values.
func decodeStage(b []byte, schema Schema) (Rows, error) {
	if len(b) < len(stageMagic)+4 || string(b[:len(stageMagic)]) != stageMagic {
		return nil, errors.New("not a stage file")
	}
	body := b[:len(b)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[len(body):]) {
		return nil, errors.New("checksum mismatch: the file is torn or damaged")
	}
	d := &stageDecoder{b: body, off: len(stageMagic)}
	if v := d.uvarint(); v != StageVersion {
		return nil, fmt.Errorf("format version %d, want %d", v, StageVersion)
	}
	header := make(Schema, d.length(1))
	for i := range header {
		n := d.length(1)
		header[i] = string(d.b[d.off : d.off+n])
		d.off += n
	}
	if d.err == nil && !header.Equal(schema) {
		return nil, fmt.Errorf("header %v does not match schema %v", header, schema)
	}
	w := len(schema)
	count := d.length(max(w, 1))
	if w == 0 && count > 0 {
		d.fail("rows without attributes")
	}
	if d.err != nil {
		return nil, d.err
	}
	d.str, d.base = string(d.b[d.off:]), d.off
	vals := make([]Value, count*w)
	rows := make(Rows, count)
	for r := range rows {
		rows[r] = vals[r*w : (r+1)*w : (r+1)*w]
		for c := range rows[r] {
			rows[r][c] = d.value()
		}
	}
	if d.off != len(d.b) {
		d.fail("trailing bytes")
	}
	if d.err != nil {
		return nil, d.err
	}
	return rows, nil
}
