package proptest

import (
	"context"
	"fmt"

	"etlopt/internal/engine"
	"etlopt/internal/share"
	"etlopt/internal/templates"
)

// CheckSharedRunEquivalence asserts the shared-work scheduler's headline
// invariant on one suite of scenarios: running the members through
// share.RunSuite — at any worker count, cache budget (including zero),
// spill configuration and partition count — must be observationally
// identical to running each member alone with the same engine
// configuration. For every workflow that means the same targets with
// byte-identical row order and the same per-node row counts, and the
// suite's cache statistics must satisfy their integrity invariants
// (hits never exceed lookups, eviction never frees more bytes than
// admission recorded).
func CheckSharedRunEquivalence(scs []*templates.Scenario, workers, partitions int, cacheBytes int64, spillDir string) error {
	ctx := context.Background()
	eopts := []engine.Option{engine.WithPartitions(partitions)}
	solos := make([]*engine.RunResult, len(scs))
	wfs := make([]share.Workflow, len(scs))
	for i, sc := range scs {
		solo, err := engine.New(sc.Bind(), eopts...).Run(ctx, sc.Graph)
		if err != nil {
			return fmt.Errorf("workflow %d solo run: %w", i+1, err)
		}
		solos[i] = solo
		wfs[i] = share.Workflow{
			Name:     fmt.Sprintf("wf-%02d", i+1),
			Graph:    sc.Graph,
			Bindings: sc.Bind(),
		}
	}
	res, err := share.RunSuite(ctx, wfs, share.Options{
		Workers: workers, CacheBytes: cacheBytes, SpillDir: spillDir, Engine: eopts,
	})
	if err != nil {
		return fmt.Errorf("suite run (W=%d, P=%d, budget=%d): %w", workers, partitions, cacheBytes, err)
	}
	for i, wr := range res.Workflows {
		if wr.Err != nil {
			return fmt.Errorf("%s failed in suite mode (W=%d, P=%d, budget=%d): %w",
				wr.Name, workers, partitions, cacheBytes, wr.Err)
		}
		if err := sameRunResult(solos[i], wr.Result); err != nil {
			return fmt.Errorf("%s diverges from its solo run (W=%d, P=%d, budget=%d): %w",
				wr.Name, workers, partitions, cacheBytes, err)
		}
	}
	st := res.Stats
	if st.Workflows != len(scs) {
		return fmt.Errorf("stats cover %d workflows, suite has %d", st.Workflows, len(scs))
	}
	if st.Cache.Hits > st.Cache.Lookups {
		return fmt.Errorf("cache stats corrupt: %d hits exceed %d lookups", st.Cache.Hits, st.Cache.Lookups)
	}
	if st.Cache.EvictedBytes > st.Cache.AdmittedBytes {
		return fmt.Errorf("cache stats corrupt: eviction freed %d bytes, admission recorded %d",
			st.Cache.EvictedBytes, st.Cache.AdmittedBytes)
	}
	return nil
}
