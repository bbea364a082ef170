package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/dsl"
	"etlopt/internal/templates"
)

func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "etlrun")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building etlrun: %v\n%s", err, out)
	}
	return bin
}

// setupFig1 writes the Fig. 1 workflow file and its source CSVs into dir.
func setupFig1(t *testing.T, dir string) string {
	t.Helper()
	sc := templates.Fig1Scenario(40, 120)
	text, err := dsl.Serialize(sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	wf := filepath.Join(dir, "fig1.etl")
	if err := os.WriteFile(wf, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, rows := range sc.Sources {
		rs, err := data.NewFileRecordset(name, sc.Schemas[name], filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Load(rows); err != nil {
			t.Fatal(err)
		}
	}
	return wf
}

func TestCLIRunFig1(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	wf := setupFig1(t, dir)

	out, err := exec.Command(bin, "-in", wf, "-data", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "target DW.PARTS:") {
		t.Errorf("missing target report:\n%s", out)
	}
	// The target CSV was created and holds rows.
	rs, err := data.NewFileRecordset("DW.PARTS",
		data.Schema{"PKEY", "SOURCE", "DATE", "ECOST"}, filepath.Join(dir, "DW.PARTS.csv"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := rs.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("no rows written to the target CSV")
	}
}

// TestCLIRunOptimizedPartitionedMatchesPlain runs the HS plan at four
// partitions, and at -partitions 0 (GOMAXPROCS), and requires the same
// target rows as the plain initial workflow at the default P=1.
func TestCLIRunOptimizedPartitionedMatchesPlain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	schema := data.Schema{"PKEY", "SOURCE", "DATE", "ECOST"}
	// run executes etlrun on a fresh copy of the Fig. 1 data with args and
	// returns the target rows it wrote.
	run := func(args ...string) data.Rows {
		t.Helper()
		dir := t.TempDir()
		wf := setupFig1(t, dir)
		out, err := exec.Command(bin, append([]string{"-in", wf, "-data", dir}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		if len(args) > 0 && !strings.Contains(string(out), "optimized with HS") {
			t.Errorf("%v: missing optimization report:\n%s", args, out)
		}
		rs, err := data.NewFileRecordset("DW.PARTS", schema, filepath.Join(dir, "DW.PARTS.csv"))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := rs.Scan()
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	plain := run()
	for _, p := range []string{"4", "0"} {
		if got := run("-optimize", "hs", "-partitions", p); !plain.EqualMultiset(got) {
			t.Errorf("optimized run at -partitions %s wrote different data: %d vs %d rows", p, len(plain), len(got))
		}
	}
}

func TestCLIImpact(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	wf := setupFig1(t, dir)
	out, err := exec.Command(bin, "-in", wf, "-impact", "PARTS2").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "downstream (must re-run)") ||
		!strings.Contains(text, "stale targets: [DW.PARTS]") {
		t.Errorf("impact output unexpected:\n%s", text)
	}
	if err := exec.Command(bin, "-in", wf, "-impact", "NOPE").Run(); err == nil {
		t.Error("unknown impact node should fail")
	}
}

func TestCLIMissingSource(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	wf := setupFig1(t, dir)
	os.Remove(filepath.Join(dir, "PARTS2.csv"))
	if err := exec.Command(bin, "-in", wf, "-data", dir).Run(); err == nil {
		t.Error("missing source CSV should fail")
	}
}

func TestCLICheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	wf := setupFig1(t, dir)
	stage := filepath.Join(dir, "stage")
	out, err := exec.Command(bin, "-in", wf, "-data", dir, "-checkpoint", stage).CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// Successful completion clears the staging directory.
	if _, err := os.Stat(stage); !os.IsNotExist(err) {
		t.Errorf("staging dir should be removed after success, stat err = %v", err)
	}
}

func TestCLIExplainAndCalibrate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildTool(t)
	dir := t.TempDir()
	wf := setupFig1(t, dir)
	out, err := exec.Command(bin, "-in", wf, "-data", dir, "-explain", "-calibrate").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "estimated vs actual cardinalities") {
		t.Errorf("missing explain table:\n%s", text)
	}
	if !strings.Contains(text, "calibrated re-optimization") {
		t.Errorf("missing calibration report:\n%s", text)
	}
}
