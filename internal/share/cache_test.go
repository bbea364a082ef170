package share

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etlopt/internal/data"
)

// intRows returns n single-int records; rowsBytes charges 40 bytes each
// (24 for the record header, 16 for the value), so budgets in the tests
// below are exact multiples of record counts.
func intRows(n int) data.Rows {
	rows := make(data.Rows, n)
	for i := range rows {
		rows[i] = data.Record{data.NewInt(int64(i))}
	}
	return rows
}

func TestRowsBytesEstimate(t *testing.T) {
	if got := rowsBytes(intRows(3)); got != 120 {
		t.Fatalf("rowsBytes(3 int records) = %d, want 120", got)
	}
	rows := data.Rows{{data.NewString("abcde"), data.NewInt(1)}}
	if got := rowsBytes(rows); got != 24+16+5+16 {
		t.Fatalf("rowsBytes(string record) = %d, want %d", got, 24+16+5+16)
	}
}

// get runs one GetOrCompute that serves intRows(1) and counts invocations.
func get(t *testing.T, c *cache, key string, computes *int) data.Rows {
	t.Helper()
	rows, _, err := c.GetOrCompute(key, data.Schema{"V"}, func() (data.Rows, error) {
		*computes++
		return intRows(1), nil
	})
	if err != nil {
		t.Fatalf("GetOrCompute(%s): %v", key, err)
	}
	return rows
}

func TestCacheLRUEvictsAtByteBoundary(t *testing.T) {
	// Budget 80 holds exactly two 40-byte entries: admission is only over
	// budget at the third, and the least recently used entry goes.
	c := newCache(80, "", nil, nil)
	nA, nB, nC := 0, 0, 0
	get(t, c, "a", &nA)
	get(t, c, "b", &nB)
	get(t, c, "a", &nA) // memory hit; moves a ahead of b
	get(t, c, "c", &nC) // 120 > 80: evicts b, keeps a and c
	get(t, c, "c", &nC) // hit; moves c ahead of a
	get(t, c, "b", &nB) // recomputed; evicts the LRU tail (a)
	get(t, c, "a", &nA) // recomputed; evicts c

	if nA != 2 || nB != 2 || nC != 1 {
		t.Fatalf("compute counts a=%d b=%d c=%d, want 2/2/1", nA, nB, nC)
	}
	st := c.Stats()
	want := CacheStats{
		Lookups: 7, Hits: 2, Misses: 5,
		Admissions: 5, Evictions: 3,
		HitBytes: 80, AdmittedBytes: 200, EvictedBytes: 120,
	}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if st.Hits > st.Lookups {
		t.Fatalf("integrity: hits %d > lookups %d", st.Hits, st.Lookups)
	}
	if st.EvictedBytes > st.AdmittedBytes {
		t.Fatalf("integrity: evicted bytes %d > admitted bytes %d", st.EvictedBytes, st.AdmittedBytes)
	}
}

func TestCacheBudgetOneUnderEvictsImmediately(t *testing.T) {
	// Budget 79 cannot hold two 40-byte entries: admitting b pushes a out,
	// proving the boundary is used > budget, not >=.
	c := newCache(79, "", nil, nil)
	nA, nB := 0, 0
	get(t, c, "a", &nA)
	get(t, c, "b", &nB)
	get(t, c, "b", &nB) // b survived the eviction pass
	get(t, c, "a", &nA) // a did not
	if nA != 2 || nB != 1 {
		t.Fatalf("compute counts a=%d b=%d, want 2/1", nA, nB)
	}
}

func TestCacheZeroBudgetAdmitsThenEvicts(t *testing.T) {
	c := newCache(0, "", nil, nil)
	n := 0
	get(t, c, "k", &n)
	get(t, c, "k", &n)
	if n != 2 {
		t.Fatalf("compute count = %d, want 2 (budget 0 keeps nothing)", n)
	}
	st := c.Stats()
	if st.Admissions != 2 || st.Evictions != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 admissions, 2 evictions, 0 hits", st)
	}
}

func TestCacheUnboundedNeverEvicts(t *testing.T) {
	c := newCache(-1, "", nil, nil)
	for i := 0; i < 50; i++ {
		n := 0
		get(t, c, fmt.Sprintf("k%d", i), &n)
	}
	if st := c.Stats(); st.Evictions != 0 || st.Admissions != 50 {
		t.Fatalf("stats = %+v, want 50 admissions and no evictions", st)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := newCache(-1, "", nil, nil)
	const waiters = 10
	var computes int32
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]data.Rows, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows, _, err := c.GetOrCompute("k", data.Schema{"V"}, func() (data.Rows, error) {
				atomic.AddInt32(&computes, 1)
				<-release
				return intRows(2), nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = rows
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := atomic.LoadInt32(&computes); n != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", n)
	}
	for i, rows := range results {
		if len(rows) != 2 {
			t.Fatalf("waiter %d got %d rows, want 2", i, len(rows))
		}
	}
	st := c.Stats()
	if st.Lookups != waiters || st.Misses != 1 || st.Hits != waiters-1 {
		t.Fatalf("stats = %+v, want %d lookups, 1 miss, %d hits", st, waiters, waiters-1)
	}
}

func TestCacheSingleFlightErrorPropagates(t *testing.T) {
	c := newCache(-1, "", nil, nil)
	n := 0
	_, _, err := c.GetOrCompute("k", data.Schema{"V"}, func() (data.Rows, error) {
		n++
		return nil, fmt.Errorf("boom")
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	// A failed flight leaves nothing behind; the next caller recomputes.
	get(t, c, "k", &n)
	if n != 2 {
		t.Fatalf("compute count = %d, want 2", n)
	}
}

// hostileRows holds values a type-inferring text format would change:
// an integral float, strings that read as an int, NULL, a bool and a
// date, and empty strings.
func hostileRows() data.Rows {
	return data.Rows{
		{data.NewInt(-7), data.NewFloat(2.5), data.NewString("héllo, \"world\"\n"), data.NewBool(true), data.NewDate(2021, 3, 4), data.Null},
		{data.NewInt(42), data.NewFloat(3), data.NewString("42"), data.NewBool(false), data.NewDate(1999, 12, 31), data.NewString("x")},
		{data.NewInt(0), data.NewFloat(-0.125), data.NewString("NULL"), data.NewString("true"), data.NewString("2021-01-02"), data.NewString("")},
	}
}

func TestCacheSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := newCache(0, dir, nil, nil)
	schema := data.Schema{"I", "F", "S", "B", "D", "N"}
	orig := hostileRows()
	n := 0
	compute := func() (data.Rows, error) { n++; return orig, nil }

	rows, avoided, err := c.GetOrCompute("k", schema, compute)
	if err != nil || avoided {
		t.Fatalf("first get: rows=%d avoided=%v err=%v", len(rows), avoided, err)
	}
	// Budget 0 evicted the entry immediately; with a spill dir configured it
	// must now live on disk and stay addressable.
	if st := c.Stats(); st.Spills != 1 || st.SpilledBytes == 0 {
		t.Fatalf("stats after first get = %+v, want one spill", st)
	}
	files, err := os.ReadDir(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("spill dir has %d files (err %v), want 1", len(files), err)
	}

	rows2, avoided, err := c.GetOrCompute("k", schema, compute)
	if err != nil || !avoided {
		t.Fatalf("second get: avoided=%v err=%v", avoided, err)
	}
	if n != 1 {
		t.Fatalf("compute ran %d times, want 1 (spill load must not recompute)", n)
	}
	if diff := data.IdenticalDiff(orig, rows2); diff != "" {
		t.Fatalf("spill round-trip changed rows: %s", diff)
	}

	// The re-admitted entry was evicted again (budget 0) but keeps its
	// existing spill file instead of rewriting it.
	if _, _, err := c.GetOrCompute("k", schema, compute); err != nil {
		t.Fatalf("third get: %v", err)
	}
	st := c.Stats()
	if st.Spills != 1 || st.SpillLoads != 2 || st.Hits != 2 {
		t.Fatalf("stats after third get = %+v, want 1 spill, 2 spill loads, 2 hits", st)
	}
}

// TestSpillRoundTripDirect reads the cache's spill files back with the
// stage codec: hostile typed values and a one-column row holding "" come
// back Digest-equal, and a read against another schema fails.
func TestSpillRoundTripDirect(t *testing.T) {
	dir := t.TempDir()
	c := newCache(0, dir, nil, nil)
	cases := []struct {
		key    string
		schema data.Schema
		rows   data.Rows
	}{
		{"deadbeef", data.Schema{"I", "F", "S", "B", "D", "N"}, hostileRows()},
		{"feedface", data.Schema{"S"}, data.Rows{{data.NewString("")}, {data.NewString("")}}},
	}
	for _, tc := range cases {
		if _, _, err := c.GetOrCompute(tc.key, tc.schema, func() (data.Rows, error) { return tc.rows, nil }); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, tc.key+".csv")
		got, err := data.ReadStage(path, tc.schema)
		if err != nil {
			t.Fatalf("reading spill %s: %v", tc.key, err)
		}
		if diff := data.IdenticalDiff(tc.rows, got); diff != "" {
			t.Fatalf("spill %s round trip: %s", tc.key, diff)
		}
		if _, err := data.ReadStage(path, data.Schema{"A", "WRONG"}); err == nil {
			t.Fatalf("spill %s read against a mismatched schema", tc.key)
		}
	}
}

// TestCacheSpillDamage loads spill files damaged on disk: a torn file and
// a file with one flipped byte each make the lookup fail with an error,
// never serve rows.
func TestCacheSpillDamage(t *testing.T) {
	cases := []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"torn", func(b []byte) []byte { return b[:len(b)-3] }},
		{"bit flip", func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c := newCache(0, dir, nil, nil)
			schema := data.Schema{"I", "F", "S", "B", "D", "N"}
			compute := func() (data.Rows, error) { return hostileRows(), nil }
			if _, _, err := c.GetOrCompute("k", schema, compute); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "k.csv")
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(b), 0o644); err != nil {
				t.Fatal(err)
			}
			rows, _, err := c.GetOrCompute("k", schema, compute)
			if err == nil || rows != nil {
				t.Fatalf("damaged spill served %d rows, err %v; want an error", len(rows), err)
			}
		})
	}
}
