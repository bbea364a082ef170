// Command perfbench is the repository's benchmark: one command that
// generates seeded inputs, drives one workload through the optimizer's and
// the engine's public functions, checks every output, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 they are the per-layer ones, from a traced
// run beside an untraced one. See README.md for the workloads and the
// layer → end-to-end map.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload optimize --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"etlopt/internal/generator"
	"etlopt/internal/templates"
)

// config is what every workload's set-up receives.
type config struct {
	seed    int64
	nproc   int    // the concurrency every layer is given
	workDir string // scratch space for spill and staging files
}

// job is a workload after set-up: its timed part runs once per pass.
// Files it writes go under config.workDir, which the run removes.
type job interface {
	pass(ctx context.Context, p *pass)
}

// workloads maps each workload name to its set-up.
var workloads = map[string]func(context.Context, config) (job, error){
	"optimize":     setupOptimize,
	"nightly-load": setupNightly,
	"suite-window": setupSuite,
	"restart-load": setupRestart,
}

// A run sets its workload up at least minSetups times, and more while the
// set-ups have taken less than setupFloor in all (at most maxSetups);
// setup_s is their median.
const (
	minSetups, maxSetups = 3, 50
	setupFloor           = time.Second
)

// buildDir holds build products and the runs' scratch files.
const buildDir = ".bench_build"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload to run: optimize, nightly-load, suite-window or restart-load")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long the run measures, in seconds")
	traced := flag.Int("trace", 0, "0: report end-to-end metrics; 1: report per-layer metrics from a traced run")
	traceOut := flag.String("trace-out", "", "trace-event JSON file of the traced run (default "+buildDir+"/trace-<workload>-<seed>.json)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the measured passes to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	flag.Parse()

	setup, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(sortedKeys(workloads), ", "))
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	cfg := config{seed: *seed, nproc: runtime.NumCPU(), workDir: workDir}
	ctx := context.Background()

	fmt.Println("provenance", provenance(cfg, *workload))
	var setupSecs []float64
	var setupTotal time.Duration
	var j job
	for len(setupSecs) < minSetups || (setupTotal < setupFloor && len(setupSecs) < maxSetups) {
		j = nil // let the previous set-up's inputs be collected
		runtime.GC()
		t0 := time.Now()
		if j, err = setup(ctx, cfg); err != nil {
			return fmt.Errorf("setting up %s: %w", *workload, err)
		}
		d := time.Since(t0)
		setupTotal += d
		setupSecs = append(setupSecs, d.Seconds())
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
	}
	budget := time.Duration(*seconds) * time.Second
	var plain, tracedPasses []*pass
	runtime.GC()
	if *traced == 0 {
		plain = measure(ctx, j, budget, 3, false)
	} else {
		plain = measure(ctx, j, budget/2, 2, false)
		tracedPasses = measure(ctx, j, budget/2, 2, true)
	}
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		if err := writeHeapProfile(*memProfile); err != nil {
			return err
		}
	}

	rep := summarize(setupSecs, plain, tracedPasses)
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	names := sortedKeys(rep.values)
	for _, name := range names {
		fmt.Printf("metric %-34s %.6g %s\n", name, rep.values[name], unitOf(name))
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
		path := *traceOut
		if path == "" {
			path = filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
		}
		if err := writeTraceFile(path, tracedPasses); err != nil {
			return err
		}
		fmt.Println("trace written to", path)
	}
	return printResult(os.Stdout, rep, defs)
}

// measure runs passes until budget has passed and at least minPasses
// have run. Traced passes record spans on one timeline.
func measure(ctx context.Context, j job, budget time.Duration, minPasses int, traced bool) []*pass {
	var out []*pass
	start := time.Now()
	for len(out) < minPasses || time.Since(start) < budget {
		var tr *tracer
		if traced {
			tr = &tracer{t0: start}
		}
		p := newPass(tr)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		root := tr.begin("pass")
		j.pass(ctx, p)
		tr.end(root)
		runtime.ReadMemStats(&after)
		p.add("runtime.gc_cycles", float64(after.NumGC-before.NumGC))
		p.add("runtime.gc_pause_s", float64(after.PauseTotalNs-before.PauseTotalNs)/1e9)
		p.add("runtime.alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
		fmt.Printf("pass %d traced=%v layer_s=%.4f attempted=%d failed=%d\n",
			len(out)+1, tr != nil, p.layerSec, p.attempted, p.failed)
		out = append(out, p)
	}
	return out
}

// report is a run's result: every metric it measured, and its checks.
type report struct {
	values            map[string]float64
	attempted, failed int
	failures          []string
}

// summarize reduces a run's passes to one value per metric: medians of
// per-pass values over the untraced passes, per-layer self times and node
// times over the traced ones, and exact counts, which must agree across
// every pass — a count that drifts is a failure.
func summarize(setupSecs []float64, plain, traced []*pass) report {
	rep := report{values: map[string]float64{}}
	all := append(append([]*pass(nil), plain...), traced...)
	for _, p := range all {
		rep.attempted += p.attempted
		rep.failed += p.failed
		rep.failures = append(rep.failures, p.failures...)
	}
	for _, p := range all[1:] {
		if diff := exactDiff(all[0].exact, p.exact); diff != "" {
			rep.failed++
			rep.failures = append(rep.failures, "determinism: "+diff)
			break
		}
	}

	v := rep.values
	v["setup_s"] = median(setupSecs)
	v["pass_s"] = medianOf(plain, func(p *pass) float64 { return p.layerSec })
	v["max_rss_bytes"] = maxRSS()
	v["items_per_s"] = ratio(all[0].exact["items"], medianCallSum(plain))
	v["alloc_bytes_per_item"] = medianOf(plain, func(p *pass) float64 {
		return ratio(p.metrics["runtime.alloc_bytes"], p.exact["items"])
	})
	for name := range plain[0].metrics {
		v[name] = medianOf(plain, func(p *pass) float64 { return p.metrics[name] })
	}
	for name, x := range all[0].exact {
		v[name] = x
	}
	v["core.dedup_ratio"] = ratio(v["core.states_visited"], v["core.states_generated"])
	v["failed_ops_ratio"] = ratio(float64(rep.failed), float64(rep.attempted))

	if len(traced) > 0 {
		samples := map[string][]float64{}
		for _, p := range traced {
			self := selfSeconds(p.tr.spans)
			for _, l := range layerSpans {
				samples[l.metric] = append(samples[l.metric], self[l.span])
			}
			for _, t := range operatorTemplates {
				samples["engine.node_s."+t] = append(samples["engine.node_s."+t], p.nodeSec[t])
			}
		}
		for name, xs := range samples {
			v[name] = median(xs)
		}
		v["obs.trace_overhead"] = ratio(medianOf(traced, func(p *pass) float64 { return p.layerSec }), v["pass_s"])
	}
	return rep
}

// medianCallSum is the layer time of a typical pass: every pass makes
// the same calls in the same order, so each call's median over the passes
// is taken before they are summed. A slow spell of the host then inflates
// only the calls it overlaps, not a whole pass. Passes whose calls differ
// (a call failed) fall back to the median of whole passes.
func medianCallSum(ps []*pass) float64 {
	n := len(ps[0].callSec)
	for _, p := range ps {
		if len(p.callSec) != n {
			return medianOf(ps, func(p *pass) float64 { return p.layerSec })
		}
	}
	var sum float64
	xs := make([]float64, len(ps))
	for i := 0; i < n; i++ {
		for k, p := range ps {
			xs[k] = p.callSec[i]
		}
		sum += median(xs)
	}
	return sum
}

func medianOf(ps []*pass, f func(*pass) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

// exactDiff names the first exact count that differs between two passes,
// or returns "".
func exactDiff(want, got map[string]float64) string {
	for _, name := range sortedKeys(want) {
		if got[name] != want[name] {
			return fmt.Sprintf("%s = %v, first pass %v", name, got[name], want[name])
		}
	}
	for _, name := range sortedKeys(got) {
		if _, ok := want[name]; !ok {
			return fmt.Sprintf("%s appeared after the first pass", name)
		}
	}
	return ""
}

// printResult writes the result line: the contract's JSON object with
// every metric of defs, idle layers reading 0.
func printResult(w io.Writer, rep report, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.name] = value{rep.values[d.name], d.unit}
	}
	return json.NewEncoder(w).Encode(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
}

// provenance describes the host and the run.
func provenance(cfg config, workload string) string {
	b, _ := json.Marshal(map[string]any{
		"workload":   workload,
		"seed":       cfg.seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	})
	return string(b)
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// maxRSS returns the process's peak resident set size in bytes.
func maxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// drawSeed derives the generator seed of one drawn input from the run's
// seed, so workloads and draws do not share inputs.
func drawSeed(seed int64, workload string, band generator.Category, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d/%d", seed, workload, band, i)
	return int64(h.Sum64() >> 2)
}

// draw generates perBand workflows of each band with rows generated rows
// per source (0 keeps the generator's default).
func draw(seed int64, workload string, bands []generator.Category, perBand, rows int) ([]*templates.Scenario, error) {
	var out []*templates.Scenario
	for _, band := range bands {
		for i := 0; i < perBand; i++ {
			gcfg := generator.CategoryConfig(band, drawSeed(seed, workload, band, i))
			if rows > 0 {
				gcfg.DataRows = rows
			}
			sc, err := generator.Generate(gcfg)
			if err != nil {
				return nil, fmt.Errorf("generating %s workflow %d: %w", band, i, err)
			}
			out = append(out, sc)
		}
	}
	return out, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTraceFile writes every traced pass's spans, one track per pass.
func writeTraceFile(path string, traced []*pass) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	spans := make([][]span, len(traced))
	for i, p := range traced {
		spans[i] = p.tr.spans
	}
	if err := writeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
