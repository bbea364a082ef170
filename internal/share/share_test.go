package share

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/engine"
	"etlopt/internal/generator"
	"etlopt/internal/templates"
)

// suiteWorkflows wraps generated scenarios as suite members, each with a
// fresh set of bindings.
func suiteWorkflows(scs []*templates.Scenario) []Workflow {
	wfs := make([]Workflow, len(scs))
	for i, sc := range scs {
		wfs[i] = Workflow{
			Name:     fmt.Sprintf("wf%d", i),
			Graph:    sc.Graph,
			Bindings: sc.Bind(),
		}
	}
	return wfs
}

func soloRun(t *testing.T, sc *templates.Scenario) *engine.RunResult {
	t.Helper()
	res, err := engine.New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatalf("solo run: %v", err)
	}
	return res
}

// sameRows reports bit-identity: the same typed values in the same order,
// also for rows that crossed the spill codec.
func sameRows(a, b data.Rows) bool { return data.IdenticalDiff(a, b) == "" }

func checkSameResult(t *testing.T, name string, solo, suite *engine.RunResult) {
	t.Helper()
	if suite == nil {
		t.Fatalf("%s: suite run missing", name)
	}
	if len(solo.Targets) != len(suite.Targets) {
		t.Fatalf("%s: target count %d vs %d", name, len(suite.Targets), len(solo.Targets))
	}
	for tgt, want := range solo.Targets {
		got, ok := suite.Targets[tgt]
		if !ok {
			t.Fatalf("%s: suite run lost target %s", name, tgt)
		}
		if !sameRows(want, got) {
			t.Fatalf("%s: target %s differs from solo run (%d vs %d rows)", name, tgt, len(got), len(want))
		}
	}
	if !reflect.DeepEqual(solo.NodeRows, suite.NodeRows) {
		t.Fatalf("%s: NodeRows differ\n  solo  %v\n  suite %v", name, solo.NodeRows, suite.NodeRows)
	}
}

func TestRunSuiteMatchesSoloRuns(t *testing.T) {
	scs, err := generator.SharedSuite(generator.Small, 3, 4242)
	if err != nil {
		t.Fatal(err)
	}
	solos := make([]*engine.RunResult, len(scs))
	for i, sc := range scs {
		solos[i] = soloRun(t, sc)
	}

	for _, tc := range []struct {
		name    string
		workers int
		budget  int64
		spill   bool
	}{
		{"serial-unbounded", 1, -1, false},
		{"parallel-unbounded", 4, -1, false},
		{"parallel-zero-budget", 4, 0, false},
		{"parallel-tiny-budget", 4, 512, false},
		{"parallel-zero-budget-spill", 4, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Workers: tc.workers, CacheBytes: tc.budget}
			if tc.spill {
				opts.SpillDir = t.TempDir()
			}
			res, err := RunSuite(context.Background(), suiteWorkflows(scs), opts)
			if err != nil {
				t.Fatalf("RunSuite: %v", err)
			}
			for i, wr := range res.Workflows {
				if wr.Err != nil {
					t.Fatalf("workflow %s failed: %v", wr.Name, wr.Err)
				}
				checkSameResult(t, wr.Name, solos[i], wr.Result)
			}
			if res.Stats.Stages == 0 {
				t.Fatal("shared-prefix suite planned no stages")
			}
		})
	}
}

func TestRunSuiteSavesWork(t *testing.T) {
	scs, err := generator.SharedSuite(generator.Small, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSuite(context.Background(), suiteWorkflows(scs), Options{Workers: 2, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.NodesExecuted >= st.NodesIndependent {
		t.Fatalf("no work saved: executed %d of %d independent nodes", st.NodesExecuted, st.NodesIndependent)
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("no cache hits with an unbounded budget: %+v", st.Cache)
	}
	if st.StageRuns != int64(st.Stages) {
		t.Fatalf("unbounded budget ran %d stage executions for %d stages", st.StageRuns, st.Stages)
	}
}

// TestRunSuiteSingleWorkflowHomologousTwins exercises sharing inside one
// workflow: homologous branch activities have equal closures and must still
// reproduce the solo run exactly when factored through the cache.
func TestRunSuiteSingleWorkflowHomologousTwins(t *testing.T) {
	scs, err := generator.SharedSuite(generator.Small, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	solo := soloRun(t, scs[0])
	res, err := RunSuite(context.Background(), suiteWorkflows(scs), Options{Workers: 4, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workflows[0].Err != nil {
		t.Fatal(res.Workflows[0].Err)
	}
	checkSameResult(t, "wf0", solo, res.Workflows[0].Result)
}

func TestRunSuiteFailureIsolation(t *testing.T) {
	scs, err := generator.SharedSuite(generator.Small, 2, 777)
	if err != nil {
		t.Fatal(err)
	}
	indep, err := generator.Generate(generator.CategoryConfig(generator.Small, 31415))
	if err != nil {
		t.Fatal(err)
	}
	wfs := suiteWorkflows(append(scs, indep))

	// Poison one shared source in both sharing members: the bound recordset
	// digests fine during planning but its schema no longer matches the
	// graph's declaration, so the producer stage fails at scan time.
	srcs := scs[0].Graph.Sources()
	if len(srcs) == 0 {
		t.Fatal("scenario has no sources")
	}
	name := scs[0].Graph.Node(srcs[0]).RS.Name
	for i := 0; i < 2; i++ {
		bad := data.NewMemoryRecordset(name, data.Schema{"__bogus"})
		if err := bad.Load(data.Rows{{data.NewInt(1)}}); err != nil {
			t.Fatal(err)
		}
		wfs[i].Bindings[name] = bad
	}

	res, err := RunSuite(context.Background(), wfs, Options{Workers: 4, CacheBytes: -1})
	if err != nil {
		t.Fatalf("RunSuite must isolate execution failures, got: %v", err)
	}
	if res.Workflows[0].Err == nil || res.Workflows[1].Err == nil {
		t.Fatalf("poisoned workflows did not fail: %v / %v", res.Workflows[0].Err, res.Workflows[1].Err)
	}
	if res.Workflows[0].Err.Error() != res.Workflows[1].Err.Error() {
		t.Fatalf("sharing members failed differently:\n  %v\n  %v", res.Workflows[0].Err, res.Workflows[1].Err)
	}
	if res.Workflows[2].Err != nil {
		t.Fatalf("independent workflow poisoned by a sibling failure: %v", res.Workflows[2].Err)
	}
	if res.Workflows[2].Result == nil || len(res.Workflows[2].Result.Targets) == 0 {
		t.Fatal("independent workflow produced no targets")
	}
}

func TestSharedSuitePrefixesActuallyShare(t *testing.T) {
	scs, err := generator.SharedSuite(generator.Medium, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	wfs := suiteWorkflows(scs)
	p, err := newPlan(wfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stages) == 0 {
		t.Fatal("SharedSuite members share no closures")
	}
	// Post-union pipelines diverge by seed, so the workflows must not be
	// wholesale copies of each other: at least one node stays residual.
	for i, pw := range p.workflows {
		if pw.residual.Len() <= 1+len(pw.injected) {
			t.Fatalf("workflow %d reduced to nothing but injected sources", i)
		}
	}
}
