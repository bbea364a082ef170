package main

import "strings"

// metricDef declares one reported metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// endToEnd are the metrics every workload reports with -trace 0, each
// with the share of the parent's median by which it may worsen.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"items_per_s", "1/s", "higher", 0.25},
	{"alloc_bytes_per_item", "bytes", "lower", 0.2},
	{"max_rss_bytes", "bytes", "lower", 0.25},
}

// layerSpans maps the spans around layer calls to the per-layer metric of
// their self time.
var layerSpans = []struct{ span, metric string }{
	{"dsl.parse", "dsl.parse_s"},
	{"analysis.interpret", "analysis.interpret_s"},
	{"core.hs", "core.hs_s"},
	{"core.hsg", "core.hsg_s"},
	{"core.es", "core.es_s"},
	{"equiv.verify", "equiv.verify_s"},
	{"engine.exec.initial", "engine.exec_s.initial"},
	{"engine.exec.optimized", "engine.exec_s.optimized"},
	{"engine.exec.optimized_p1", "engine.exec_s.optimized_p1"},
	{"checkpoint.crash_run", "checkpoint.crash_run_s"},
	{"checkpoint.resume", "checkpoint.resume_s"},
}

// operatorTemplates are the operator templates engine.node_s.<template>
// reports: every activity operation kind. The engine journals node times
// for activities only.
var operatorTemplates = []string{
	"filter", "notnull", "pkcheck", "distinct", "project", "func",
	"aggregate", "sk", "merged", "union", "join", "diff", "intersect",
}

// perLayer are the metrics every workload reports with -trace 1; a layer
// a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// The workloads' own headline figures, measured untraced.
		{name: "optimize_s", unit: "s", better: "lower"},
		{name: "search_states_per_s", unit: "1/s", better: "higher"},
		{name: "modeled_cost_ratio", unit: "ratio", better: "lower"},
		{name: "load_rows_per_s", unit: "1/s", better: "higher"},
		{name: "load_rows_per_s_p1", unit: "1/s", better: "higher"},
		{name: "plan_speedup", unit: "ratio", better: "higher"},
		{name: "alloc_bytes_per_row", unit: "bytes", better: "lower"},
		{name: "suite_s", unit: "s", better: "lower"},
		{name: "restart_s", unit: "s", better: "lower"},
		{name: "failed_ops_ratio", unit: "ratio", better: "lower"},
	}
	for _, l := range layerSpans {
		defs = append(defs, metricDef{name: l.metric, unit: "s", better: "lower"})
	}
	defs = append(defs,
		metricDef{name: "core.states_generated", unit: "count", better: "lower"},
		metricDef{name: "core.states_visited", unit: "count", better: "lower"},
		metricDef{name: "core.dedup_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "cost.modeled_cost_ratio.small", unit: "ratio", better: "lower"},
		metricDef{name: "cost.modeled_cost_ratio.medium", unit: "ratio", better: "lower"},
		metricDef{name: "cost.modeled_cost_ratio.large", unit: "ratio", better: "lower"},
		metricDef{name: "cost.model_error", unit: "ratio", better: "lower"},
		metricDef{name: "engine.mallocs_per_row", unit: "count", better: "lower"},
	)
	for _, t := range operatorTemplates {
		defs = append(defs, metricDef{name: "engine.node_s." + t, unit: "s", better: "lower"})
	}
	return append(defs,
		metricDef{name: "share.nodes_executed", unit: "count", better: "lower"},
		metricDef{name: "share.nodes_independent", unit: "count", better: "lower"},
		metricDef{name: "share.cache_hit_ratio", unit: "ratio", better: "higher"},
		metricDef{name: "share.hit_bytes", unit: "bytes", better: "higher"},
		metricDef{name: "share.evicted_bytes", unit: "bytes", better: "lower"},
		metricDef{name: "share.spilled_bytes", unit: "bytes", better: "lower"},
		metricDef{name: "share.spill_loads", unit: "count", better: "lower"},
		metricDef{name: "checkpoint.staged_nodes", unit: "count", better: "lower"},
		metricDef{name: "checkpoint.staged_bytes", unit: "bytes", better: "lower"},
		metricDef{name: "checkpoint.overhead_ratio", unit: "ratio", better: "lower"},
		metricDef{name: "runtime.gc_cycles", unit: "count", better: "lower"},
		metricDef{name: "runtime.gc_pause_s", unit: "s", better: "lower"},
		metricDef{name: "runtime.alloc_bytes", unit: "bytes", better: "lower"},
		metricDef{name: "obs.trace_overhead", unit: "ratio", better: "lower"},
	)
}()

// unitOf returns the unit of a declared metric; of the benchmark's other
// figures, names ending in _s are seconds and the rest counts.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	if strings.HasSuffix(name, "_s") {
		return "s"
	}
	return "count"
}
