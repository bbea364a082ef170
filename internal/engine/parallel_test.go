package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/generator"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// rowsIdentical reports bit-identity: same typed values in the same rows
// and order. This is deliberately stricter than EqualMultiset — a
// partitioned run promises the P=1 row order, not just the multiset.
func rowsIdentical(a, b data.Rows) bool { return data.IdenticalDiff(a, b) == "" }

// TestParallelMatchesMaterialized is the partitioned operators' core
// contract: for generated scenarios across all three size categories,
// every target is byte-identical to the P=1 run, whose kernels execute on
// whole materialized inputs, at P ∈ {2, 4, 8}, and the per-node row
// counts agree.
func TestParallelMatchesMaterialized(t *testing.T) {
	cats := []generator.Category{generator.Small, generator.Medium, generator.Large}
	for _, cat := range cats {
		for seed := int64(0); seed < 4; seed++ {
			sc, err := generator.Generate(generator.CategoryConfig(cat, 7100+seed))
			if err != nil {
				t.Fatal(err)
			}
			mat, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
			if err != nil {
				t.Fatalf("cat %v seed %d materialized: %v", cat, seed, err)
			}
			for _, p := range []int{2, 4, 8} {
				par, err := New(sc.Bind(), WithPartitions(p)).Run(context.Background(), sc.Graph)
				if err != nil {
					t.Fatalf("cat %v seed %d P=%d: %v", cat, seed, p, err)
				}
				for name, want := range mat.Targets {
					if !rowsIdentical(want, par.Targets[name]) {
						t.Errorf("cat %v seed %d P=%d: target %s not bit-identical to materialized",
							cat, seed, p, name)
					}
				}
				for id, want := range mat.NodeRows {
					if got := par.NodeRows[id]; got != want {
						t.Errorf("cat %v seed %d P=%d: node %d rows = %d, want %d",
							cat, seed, p, id, got, want)
					}
				}
			}
		}
	}
}

// TestParallelCancelNamesPartition verifies the partition-worker
// cancellation contract: the error wraps ctx.Err() and identifies the
// node and the partition index.
func TestParallelCancelNamesPartition(t *testing.T) {
	sc := templates.Fig1Scenario(40, 120)
	e := New(sc.Bind(), WithPartitions(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var id workflow.NodeID
	for _, nid := range sc.Graph.Nodes() {
		if sc.Graph.Node(nid).Kind == workflow.KindActivity {
			id = nid
			break
		}
	}
	n := sc.Graph.Node(id)
	err := e.forEachPartition(ctx, id, n, 4, nil, 17, func(q int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	msg := err.Error()
	for _, want := range []string{"run cancelled at node", "partition 0", "after 17 rows", n.Label()} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

// TestForEachPartitionFirstErrorWins verifies deterministic error
// selection: the lowest-indexed failing partition's error is returned
// regardless of goroutine scheduling.
func TestForEachPartitionFirstErrorWins(t *testing.T) {
	sc := templates.Fig1Scenario(10, 30)
	e := New(sc.Bind())
	id := sc.Graph.Nodes()[0]
	n := sc.Graph.Node(id)
	for i := 0; i < 20; i++ {
		err := e.forEachPartition(context.Background(), id, n, 8, nil, 0, func(q int) error {
			if q >= 3 {
				return errors.New("boom " + string(rune('0'+q)))
			}
			return nil
		})
		if err == nil || err.Error() != "boom 3" {
			t.Fatalf("err = %v, want boom 3", err)
		}
	}
}

// TestParallelSharedLookupCache verifies the run-scoped cache: with 8
// partitions all consulting a surrogate-key lookup, the lookup recordset
// is scanned exactly once per run, and the engine value itself stays
// reusable (a second run scans once more, not zero — the cache is per
// run, not per engine).
func TestParallelSharedLookupCache(t *testing.T) {
	sc, err := generator.Generate(generator.CategoryConfig(generator.Medium, 4242))
	if err != nil {
		t.Fatal(err)
	}
	bindings := sc.Bind()
	scans := make(map[string]*int)
	for name := range sc.Lookups {
		n := new(int)
		bindings[name] = countingRecordset{Recordset: bindings[name], scans: n}
		scans[name] = n
	}
	if len(scans) == 0 {
		t.Fatal("scenario has no lookups to count")
	}
	e := New(bindings, WithPartitions(8))
	if _, err := e.Run(context.Background(), sc.Graph); err != nil {
		t.Fatal(err)
	}
	before := make(map[string]int)
	for name, n := range scans {
		if *n > 1 {
			t.Errorf("lookup %s scanned %d times in one partitioned run, want at most 1", name, *n)
		}
		before[name] = *n
	}
	if _, err := e.Run(context.Background(), sc.Graph); err != nil {
		t.Fatal(err)
	}
	for name, n := range scans {
		if *n != 2*before[name] {
			t.Errorf("lookup %s: second run reused the first run's cache (scans %d → %d)",
				name, before[name], *n)
		}
	}
}

// TestPartitionCount covers the default and the option.
func TestPartitionCount(t *testing.T) {
	if got := New(nil).partitions; got != 1 {
		t.Errorf("default partition count = %d, want 1", got)
	}
	if got := New(nil, WithPartitions(5)).partitions; got != 5 {
		t.Errorf("partition count = %d, want 5", got)
	}
	if got := New(nil, WithPartitions(0)).partitions; got != 1 {
		t.Errorf("WithPartitions(0) should keep the default, got %d", got)
	}
}

// TestScatterExchangeGatherRoundTrip covers the tag machinery directly:
// scatter establishes the invariants, an exchange by any key preserves
// them, and gather restores the original order.
func TestScatterExchangeGatherRoundTrip(t *testing.T) {
	rows := make(data.Rows, 97)
	for i := range rows {
		rows[i] = data.Record{data.NewInt(int64(i % 7)), data.NewInt(int64(i))}
	}
	sc := templates.Fig1Scenario(10, 30)
	e := New(sc.Bind())
	id := sc.Graph.Nodes()[0]
	n := sc.Graph.Node(id)
	for _, p := range []int{1, 2, 3, 8, 97, 200} {
		pd := scatterRows(rows, p)
		if got := pd.total(); got != len(rows) {
			t.Fatalf("P=%d: scatter lost rows: %d != %d", p, got, len(rows))
		}
		if !rowsIdentical(gather(pd), rows) {
			t.Fatalf("P=%d: gather(scatter(rows)) != rows", p)
		}
		ex, err := e.exchangeByKey(context.Background(), id, n, pd, p, nil, 0, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		// Every row with the same key must land in the same partition.
		where := map[string]int{}
		for q, ps := range ex.parts {
			for i, r := range ps.rows {
				k := r[0].Key()
				if prev, ok := where[k]; ok && prev != q {
					t.Fatalf("P=%d: key %s split across partitions %d and %d", p, k, prev, q)
				}
				where[k] = q
				if i > 0 && ps.seqs[i] <= ps.seqs[i-1] {
					t.Fatalf("P=%d partition %d: tags not strictly increasing", p, q)
				}
			}
		}
		if !rowsIdentical(gather(ex), rows) {
			t.Fatalf("P=%d: gather(exchange(rows)) != rows", p)
		}
	}
}
