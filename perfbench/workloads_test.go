package main

import (
	"context"
	"math"
	"testing"
	"time"
)

// TestWorkloadRatioBases runs one traced pass of every workload and checks
// that each headline ratio is computed over the base the README gives it:
// the spans around the layer calls time the same calls the ratios use.
func TestWorkloadRatioBases(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	near := func(t *testing.T, name string, got, want float64) {
		t.Helper()
		if !(want > 0) || math.IsInf(want, 0) || math.Abs(got-want) > 0.02*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for name, setup := range workloads {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			j, err := setup(ctx, config{seed: 7, nproc: 2, workDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			p := newPass(&tracer{t0: time.Now()})
			j.pass(ctx, p)
			if p.failed != 0 || p.attempted == 0 {
				t.Fatalf("attempted %d failed %d: %q", p.attempted, p.failed, p.failures)
			}
			self := selfSeconds(p.tr.spans)
			m, x := p.metrics, p.exact
			switch name {
			case "optimize":
				near(t, "search_states_per_s", m["search_states_per_s"],
					x["core.states_generated"]/(self["core.hs"]+self["core.hsg"]+self["core.es"]))
				near(t, "optimize_s", m["optimize_s"], p.layerSec)
			case "nightly-load":
				near(t, "plan_speedup", m["plan_speedup"], self["engine.exec.initial"]/self["engine.exec.optimized"])
				near(t, "load_rows_per_s", m["load_rows_per_s"], x["engine.source_rows"]/self["engine.exec.optimized"])
				near(t, "load_rows_per_s_p1", m["load_rows_per_s_p1"], x["engine.source_rows"]/self["engine.exec.optimized_p1"])
			case "suite-window":
				near(t, "suite_s", m["suite_s"], self["share.run_suite"])
				if r := m["share.cache_hit_ratio"]; r <= 0 || r > 1 {
					t.Errorf("share.cache_hit_ratio = %v, want hits over lookups in (0, 1]", r)
				}
			case "restart-load":
				restart := self["checkpoint.crash_run"] + self["checkpoint.resume"]
				near(t, "restart_s", m["restart_s"], restart)
				near(t, "checkpoint.overhead_ratio", m["checkpoint.overhead_ratio"], restart/self["engine.exec.clean"])
			}
			if x["items"] <= 0 {
				t.Error("no items of work counted")
			}
		})
	}
}
