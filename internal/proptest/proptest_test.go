package proptest_test

import (
	"fmt"
	"testing"

	"etlopt/internal/cost"
	"etlopt/internal/generator"
	"etlopt/internal/proptest"
	"etlopt/internal/templates"
)

// propSeed anchors the generated population; changing it changes every
// workflow in the suite, so keep it stable to keep failures reproducible.
const propSeed = 0x5eed

// suiteFor generates n scenarios of one category, failing the test on
// generator errors.
func suiteFor(t testing.TB, cat generator.Category, n int, seed int64) []*templates.Scenario {
	t.Helper()
	scs, err := generator.Suite(cat, n, seed)
	if err != nil {
		t.Fatalf("generating %s suite: %v", cat, err)
	}
	return scs
}

// TestMetamorphicExpansion is the core property-based guard of the
// incremental successor machinery: ~200 seeded random workflows, every
// applicable transition applied to each, asserting that (a) delta cost
// recomputation equals from-scratch evaluation, (b) spliced signatures
// equal full re-renderings, (c) sampled derived states are empirically
// equivalent to their parents on generated data, and (d) copy-on-write
// derivation never leaks a mutation back into the parent state.
func TestMetamorphicExpansion(t *testing.T) {
	counts := []struct {
		cat    generator.Category
		n      int
		verify int // successors to verify empirically per workflow
	}{
		{generator.Small, 140, 2},
		{generator.Medium, 40, 1},
		{generator.Large, 20, 1},
	}
	if testing.Short() {
		counts[0].n, counts[1].n, counts[2].n = 24, 6, 2
	}
	model := cost.RowModel{}
	total := 0
	for _, c := range counts {
		scs := suiteFor(t, c.cat, c.n, propSeed+int64(c.cat)*104729)
		for i, sc := range scs {
			sc, i, c := sc, i, c
			t.Run(fmt.Sprintf("%s-%02d", c.cat, i+1), func(t *testing.T) {
				t.Parallel()
				if err := proptest.CheckExpansion(sc, model, c.verify); err != nil {
					t.Fatalf("scenario %s seed base %d index %d: %v", c.cat, propSeed, i, err)
				}
			})
		}
		total += len(scs)
	}
	t.Logf("checked %d generated workflows", total)
}

// TestPartitionInvariance is the metamorphic guard for the partitioned
// engine: ~200 seeded random workflows, each executed at P=1 as the
// reference and again at P ∈ {1, 2, 8}, asserting
// that every target's multiset agrees and the rows are byte-identical in
// order — the partition count must be observationally invisible. Run
// under -race this also exercises the exchange and gather machinery for
// data races.
func TestPartitionInvariance(t *testing.T) {
	counts := []struct {
		cat generator.Category
		n   int
	}{
		{generator.Small, 140},
		{generator.Medium, 40},
		{generator.Large, 20},
	}
	if testing.Short() {
		counts[0].n, counts[1].n, counts[2].n = 24, 6, 2
	}
	partitions := []int{1, 2, 8}
	total := 0
	for _, c := range counts {
		scs := suiteFor(t, c.cat, c.n, propSeed+int64(c.cat)*104729)
		for i, sc := range scs {
			sc, i, c := sc, i, c
			t.Run(fmt.Sprintf("%s-%02d", c.cat, i+1), func(t *testing.T) {
				t.Parallel()
				if err := proptest.CheckPartitionInvariance(sc, partitions); err != nil {
					t.Fatalf("scenario %s seed base %d index %d: %v", c.cat, propSeed, i, err)
				}
			})
		}
		total += len(scs)
	}
	t.Logf("checked %d generated workflows at P=%v", total, partitions)
}

// TestJournalInvariance is the metamorphic guard for the flight
// recorder: seeded random workflows searched and executed with and
// without a journal attached, at W ∈ {1, 4} and P ∈ {1, 8}, asserting
// results are bit-identical either way and every recorded journal is
// well-formed. Under -race this also exercises concurrent emitters
// against the single writer goroutine.
func TestJournalInvariance(t *testing.T) {
	counts := []struct {
		cat generator.Category
		n   int
	}{
		{generator.Small, 12},
		{generator.Medium, 4},
	}
	if testing.Short() {
		counts[0].n, counts[1].n = 4, 1
	}
	workers := []int{1, 4}
	partitions := []int{1, 8}
	total := 0
	for _, c := range counts {
		scs := suiteFor(t, c.cat, c.n, propSeed+int64(c.cat)*104729)
		for i, sc := range scs {
			sc, i, c := sc, i, c
			t.Run(fmt.Sprintf("%s-%02d", c.cat, i+1), func(t *testing.T) {
				t.Parallel()
				if err := proptest.CheckJournalInvariance(sc, workers, partitions); err != nil {
					t.Fatalf("scenario %s seed base %d index %d: %v", c.cat, propSeed, i, err)
				}
			})
		}
		total += len(scs)
	}
	t.Logf("checked %d generated workflows at W=%v, P=%v", total, workers, partitions)
}

// TestFaultRecoveryEquivalence is the metamorphic guard for the fault
// subsystem: ~200 seeded random workflows, each run clean and then under
// a seeded transient fault plan with retries at P ∈ {1, 8}, under a
// rate-1 permanent plan (must fail with a typed, attributed error), and
// through a crash-restart resume of the checkpoint runner at P ∈ {1, 8}.
// Any faulty run that ultimately succeeds must be bit-identical to the
// clean run — row order, per-node row counts, and the journal's row
// counters. Under -race this also exercises the injection points'
// concurrent occurrence accounting inside the partition workers.
func TestFaultRecoveryEquivalence(t *testing.T) {
	counts := []struct {
		cat generator.Category
		n   int
	}{
		{generator.Small, 140},
		{generator.Medium, 40},
		{generator.Large, 20},
	}
	if testing.Short() {
		counts[0].n, counts[1].n, counts[2].n = 24, 6, 2
	}
	partitions := []int{1, 8}
	total := 0
	for _, c := range counts {
		scs := suiteFor(t, c.cat, c.n, propSeed+int64(c.cat)*104729)
		for i, sc := range scs {
			sc, i, c := sc, i, c
			t.Run(fmt.Sprintf("%s-%02d", c.cat, i+1), func(t *testing.T) {
				t.Parallel()
				// Derive the fault seed from the scenario index so each
				// workflow sees a different — but fixed — schedule.
				if err := proptest.CheckFaultRecoveryEquivalence(sc, propSeed+int64(c.cat)*104729+int64(i), partitions); err != nil {
					t.Fatalf("scenario %s seed base %d index %d: %v", c.cat, propSeed, i, err)
				}
			})
		}
		total += len(scs)
	}
	t.Logf("checked %d generated workflows at P=%v", total, partitions)
}

// TestSharedRunEquivalence is the metamorphic guard for the shared-work
// suite scheduler: ~200 seeded shared-prefix suites, each run through
// share.RunSuite across worker counts W ∈ {1, 4}, cache budgets
// {unbounded, zero, tiny}, a zero-budget disk-spill configuration, and
// partition counts P ∈ {1, 8}, asserting every member comes out
// bit-identical to its own solo engine run — the scheduler, cache and
// eviction policy must be observationally invisible. Under -race this also
// exercises the stage scheduler's single-flight population and the cache's
// locking against concurrent residual runs.
func TestSharedRunEquivalence(t *testing.T) {
	configs := []struct {
		name    string
		workers int
		budget  int64
		spill   bool
	}{
		{"serial-unbounded", 1, -1, false},
		{"parallel-unbounded", 4, -1, false},
		{"parallel-zero", 4, 0, false},
		{"serial-zero-spill", 1, 0, true},
		{"parallel-tiny", 4, 4096, false},
		{"serial-tiny", 1, 4096, false},
	}
	counts := []struct {
		cat generator.Category
		n   int
	}{
		{generator.Small, 30},
		{generator.Medium, 4},
	}
	if testing.Short() {
		counts[0].n, counts[1].n = 4, 1
	}
	const suiteSize = 3
	total := 0
	for _, c := range counts {
		for s := 0; s < c.n; s++ {
			seed := propSeed + int64(c.cat)*104729 + int64(s)*7919
			// Alternate the partition count by suite so both engine modes
			// see every cache configuration.
			partitions := 1
			if s%2 == 1 {
				partitions = 8
			}
			for _, cfg := range configs {
				cfg, cat, seed, partitions := cfg, c.cat, seed, partitions
				t.Run(fmt.Sprintf("%s-%02d-%s-P%d", cat, s+1, cfg.name, partitions), func(t *testing.T) {
					t.Parallel()
					// Each subtest generates its own scenarios so parallel
					// configurations never share graphs or bindings.
					scs, err := generator.SharedSuite(cat, suiteSize, seed)
					if err != nil {
						t.Fatalf("generating shared %s suite: %v", cat, err)
					}
					spillDir := ""
					if cfg.spill {
						spillDir = t.TempDir()
					}
					if err := proptest.CheckSharedRunEquivalence(scs, cfg.workers, partitions, cfg.budget, spillDir); err != nil {
						t.Fatalf("shared %s suite seed %d: %v", cat, seed, err)
					}
				})
				total++
			}
		}
	}
	t.Logf("checked %d suite configurations of %d workflows each", total, suiteSize)
}

// TestSearchMutationLeak byte-compares every expanded parent's serialized
// form before and after expansion across several search depths — the
// aliasing regression the race detector can't catch, because no data race
// is involved when a single goroutine corrupts a shared parent.
func TestSearchMutationLeak(t *testing.T) {
	t.Run("fig1", func(t *testing.T) {
		t.Parallel()
		if err := proptest.CheckSearchMutationLeak(templates.Fig1Workflow(), 5, 6); err != nil {
			t.Fatal(err)
		}
	})
	n := 8
	if testing.Short() {
		n = 3
	}
	scs := suiteFor(t, generator.Small, n, propSeed+7)
	for i, sc := range scs {
		sc, i := sc, i
		t.Run(fmt.Sprintf("small-%02d", i+1), func(t *testing.T) {
			t.Parallel()
			if err := proptest.CheckSearchMutationLeak(sc.Graph, 4, 5); err != nil {
				t.Fatal(err)
			}
		})
	}
}
