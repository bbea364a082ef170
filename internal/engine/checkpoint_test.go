package engine

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/fault"
	"etlopt/internal/obs"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// failingRecordset wraps a recordset and fails Scan after a set number of
// successful scans — a deterministic failure injector.
type failingRecordset struct {
	data.Recordset
	failuresLeft *int
}

var errInjected = errors.New("injected source failure")

func (f failingRecordset) Scan() (data.Rows, error) {
	if *f.failuresLeft > 0 {
		*f.failuresLeft--
		return nil, errInjected
	}
	return f.Recordset.Scan()
}

func TestCheckpointRunCompletes(t *testing.T) {
	sc := templates.Fig1Scenario(80, 240)
	dir := filepath.Join(t.TempDir(), "stage")
	cr, err := NewCheckpointRunner(New(sc.Bind()), dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cr.Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	// Matches a plain run exactly.
	plain, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Targets["DW.PARTS"].EqualMultiset(plain.Targets["DW.PARTS"]) {
		t.Error("checkpointed run differs from plain run")
	}
	// Success cleans the staging area.
	staged, err := cr.Staged()
	if err != nil {
		t.Fatal(err)
	}
	if len(staged) != 0 {
		t.Errorf("staging not cleared after success: %v", staged)
	}
}

func TestCheckpointResumeAfterFailure(t *testing.T) {
	sc := templates.Fig1Scenario(80, 240)
	bindings := sc.Bind()

	// PARTS2 fails on its first scan; PARTS1 succeeds, so branch 1 and the
	// PARTS1 scan are staged before the run dies.
	failures := 1
	bindings["PARTS2"] = failingRecordset{Recordset: bindings["PARTS2"], failuresLeft: &failures}

	dir := filepath.Join(t.TempDir(), "stage")
	cr, err := NewCheckpointRunner(New(bindings), dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Run(context.Background(), sc.Graph); !errors.Is(err, errInjected) {
		t.Fatalf("first run should fail with the injected error, got %v", err)
	}
	staged, err := cr.Staged()
	if err != nil {
		t.Fatal(err)
	}
	if len(staged) == 0 {
		t.Fatal("nothing staged before the failure")
	}

	// The resume run must not re-scan PARTS1 (its stage exists) and must
	// complete, producing exactly the plain result.
	res, err := cr.Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	plain, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Targets["DW.PARTS"].EqualMultiset(plain.Targets["DW.PARTS"]) {
		t.Error("resumed run differs from a clean run")
	}
}

func TestCheckpointResumeSkipsCompletedWork(t *testing.T) {
	// countingRecordset counts scans; after a failure mid-graph, resuming
	// must not re-scan the already-staged source.
	sc := templates.Fig1Scenario(50, 150)
	bindings := sc.Bind()
	scans := 0
	bindings["PARTS1"] = countingRecordset{Recordset: bindings["PARTS1"], scans: &scans}
	failures := 1
	bindings["PARTS2"] = failingRecordset{Recordset: bindings["PARTS2"], failuresLeft: &failures}

	dir := filepath.Join(t.TempDir(), "stage")
	cr, err := NewCheckpointRunner(New(bindings), dir)
	if err != nil {
		t.Fatal(err)
	}
	cr.Run(context.Background(), sc.Graph) // fails after staging PARTS1's scan
	if scans != 1 {
		t.Fatalf("PARTS1 scanned %d times before failure", scans)
	}
	if _, err := cr.Run(context.Background(), sc.Graph); err != nil {
		t.Fatal(err)
	}
	if scans != 1 {
		t.Errorf("resume re-scanned PARTS1 (%d scans); staged output should be reused", scans)
	}
}

type countingRecordset struct {
	data.Recordset
	scans *int
}

func (c countingRecordset) Scan() (data.Rows, error) {
	*c.scans++
	return c.Recordset.Scan()
}

func TestCheckpointSignatureMismatchClearsStage(t *testing.T) {
	sc := templates.Fig1Scenario(40, 120)
	bindings := sc.Bind()
	failures := 1
	bindings["PARTS2"] = failingRecordset{Recordset: bindings["PARTS2"], failuresLeft: &failures}

	dir := filepath.Join(t.TempDir(), "stage")
	cr, err := NewCheckpointRunner(New(bindings), dir)
	if err != nil {
		t.Fatal(err)
	}
	cr.Run(context.Background(), sc.Graph) // leaves stages behind

	// A *different* workflow (one more activity) must not consume them.
	g2 := sc.Graph.Clone()
	var sigma workflow.NodeID
	for _, id := range g2.Activities() {
		if g2.Node(id).Act.Sem.Op == workflow.OpFilter {
			sigma = id
		}
	}
	extra := g2.AddActivity(templates.NotNull(0.99, "ECOST"))
	consumer := g2.Consumers(sigma)[0]
	g2.MustReplaceProvider(consumer, sigma, extra)
	g2.MustAddEdge(sigma, extra)
	if err := g2.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}

	res, err := cr.Run(context.Background(), g2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(sc.Bind()).Run(context.Background(), g2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Targets["DW.PARTS"].EqualMultiset(plain.Targets["DW.PARTS"]) {
		t.Error("stale stages leaked into a different workflow's run")
	}
}

func TestCheckpointNullsSurviveStaging(t *testing.T) {
	// NULLs and typed values must round-trip through the CSV stage. Use a
	// workflow whose intermediate rows carry NULLs (no NN filter).
	schema := data.Schema{"K", "V"}
	g := workflow.NewGraph()
	src := g.AddRecordset(&workflow.RecordsetRef{Name: "S", Schema: schema, Rows: 4, IsSource: true})
	ref := g.AddActivity(templates.Reformat("a2edate", "K")) // pass-through on strings
	tgt := g.AddRecordset(&workflow.RecordsetRef{Name: "T", Schema: schema, IsTarget: true})
	g.MustAddEdge(src, ref)
	g.MustAddEdge(ref, tgt)
	if err := g.RegenerateSchemata(); err != nil {
		t.Fatal(err)
	}
	rows := data.Rows{
		{data.NewString("01/02/2004"), data.Null},
		{data.NewString("03/04/2004"), data.NewFloat(2.5)},
	}
	bindings := map[string]data.Recordset{
		"S": data.NewMemoryRecordset("S", schema).MustLoad(rows),
	}
	dir := filepath.Join(t.TempDir(), "stage")
	cr, err := NewCheckpointRunner(New(bindings), dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cr.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Targets["T"]
	if len(got) != 2 {
		t.Fatalf("rows = %v", got)
	}
	foundNull := false
	for _, r := range got {
		if r[1].IsNull() {
			foundNull = true
		}
	}
	if !foundNull {
		t.Error("NULL lost in staging round trip")
	}
}

// TestCheckpointRunnerPartitioned runs the checkpoint runner over a
// four-partition engine: the run really executes at P=4 (every partition
// journals batch events) and loads targets bit-identical to the P=1 run.
// A run crashed by a permanent fault at a mid-graph node resumes at P=4
// from its staged outputs to the same answer.
func TestCheckpointRunnerPartitioned(t *testing.T) {
	const parts = 4
	sc := templates.Fig1Scenario(80, 240)
	clean, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	// checkpointed runs g at P=4 through a checkpoint runner on dir and
	// returns its result, error and journal.
	checkpointed := func(dir string, opts ...Option) (*RunResult, error, []obs.Event) {
		t.Helper()
		var buf bytes.Buffer
		j := obs.NewJournal(&buf, nil)
		cr, err := NewCheckpointRunner(New(sc.Bind(), append(opts, WithPartitions(parts), WithJournal(j))...), dir)
		if err != nil {
			t.Fatal(err)
		}
		res, runErr := cr.Run(context.Background(), sc.Graph)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		evs, err := obs.ReadJournal(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return res, runErr, evs
	}
	sameAsClean := func(res *RunResult) {
		t.Helper()
		for name, want := range clean.Targets {
			if !rowsIdentical(want, res.Targets[name]) {
				t.Errorf("target %s not bit-identical to the P=1 run", name)
			}
		}
		for id, want := range clean.NodeRows {
			if got := res.NodeRows[id]; got != want {
				t.Errorf("node %d emitted %d rows, P=1 run %d", id, got, want)
			}
		}
	}

	res, err, evs := checkpointed(filepath.Join(t.TempDir(), "stage"))
	if err != nil {
		t.Fatal(err)
	}
	sameAsClean(res)
	seen := map[int]bool{}
	for _, e := range evs {
		if e.T == obs.EventBatch {
			seen[e.Part] = true
		}
	}
	for q := 0; q < parts; q++ {
		if !seen[q] {
			t.Errorf("no batch events for partition %d; journaled partitions %v", q, seen)
		}
	}

	// Crash: a permanent node-start fault whose first firing node lies in
	// the middle of the topological order.
	order, err := sc.Graph.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	rate := 1 / float64(len(order))
	var crashAt workflow.NodeID = -1
	var seed int64
	for seed = 1; seed < 10_000 && crashAt < 0; seed++ {
		plan := fault.NewPlan(seed, rate, fault.WithKind(fault.Permanent), fault.WithSites(fault.SiteNodeStart))
		for i, id := range order {
			if plan.Check(context.Background(), fault.SiteNodeStart, int(id), 0) != nil {
				if i >= len(order)/3 && i < 2*len(order)/3 {
					crashAt = id
				}
				break
			}
		}
	}
	if crashAt < 0 {
		t.Fatal("no fault plan crashes the workflow mid-graph")
	}
	seed--
	dir := filepath.Join(t.TempDir(), "crash")
	_, err, _ = checkpointed(dir, WithFaultPlan(
		fault.NewPlan(seed, rate, fault.WithKind(fault.Permanent), fault.WithSites(fault.SiteNodeStart))))
	var inj *fault.Injected
	if !errors.As(err, &inj) || inj.Node != int(crashAt) {
		t.Fatalf("crash run: want the permanent fault at node %d, got %v", crashAt, err)
	}
	res, err, evs = checkpointed(dir)
	if err != nil {
		t.Fatalf("resume at P=%d: %v", parts, err)
	}
	sameAsClean(res)
	resumed := 0
	for _, e := range evs {
		if e.T == obs.EventResume {
			resumed++
		}
	}
	if resumed == 0 {
		t.Error("resumed run journaled no resume events")
	}
}
