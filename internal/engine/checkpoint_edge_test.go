package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"etlopt/internal/data"
	"etlopt/internal/templates"
	"etlopt/internal/workflow"
)

// crashStaging runs the scenario with a once-failing PARTS2 so the run
// dies mid-workflow, leaving a partially populated staging area, and
// returns the staging dir. The damage functions below then corrupt it.
func crashStaging(t *testing.T, sc *templates.Scenario) string {
	t.Helper()
	bindings := sc.Bind()
	failures := 1
	bindings["PARTS2"] = failingRecordset{Recordset: bindings["PARTS2"], failuresLeft: &failures}
	dir := filepath.Join(t.TempDir(), "stage")
	cr, err := NewCheckpointRunner(New(bindings), dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Run(context.Background(), sc.Graph); !errors.Is(err, errInjected) {
		t.Fatalf("setup run should fail with the injected error, got %v", err)
	}
	staged, err := cr.Staged()
	if err != nil {
		t.Fatal(err)
	}
	if len(staged) == 0 {
		t.Fatal("setup crash staged nothing")
	}
	return dir
}

// firstStage returns the path and node ID of the lowest-numbered staged
// output in dir.
func firstStage(t *testing.T, dir string) (string, workflow.NodeID) {
	t.Helper()
	cr, err := NewCheckpointRunner(New(nil), dir)
	if err != nil {
		t.Fatal(err)
	}
	staged, err := cr.Staged()
	if err != nil || len(staged) == 0 {
		t.Fatalf("no staged files to damage: %v", err)
	}
	return filepath.Join(dir, nodeFile(staged[0])), staged[0]
}

// rewriteFirstStage replaces the first staged output's bytes with
// edit(bytes).
func rewriteFirstStage(t *testing.T, dir string, edit func([]byte) []byte) {
	t.Helper()
	path, _ := firstStage(t, dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointStagingDamage drives the resume path through every way a
// staging area can be wrong on disk. A manifest that is corrupt,
// truncated, empty, or written by a build with another stage format
// reads as a mismatch: the stale stages are discarded and the run
// recomputes everything, bit-identical to a clean run. Orphan node files
// for IDs the workflow doesn't have, and temp files a torn write left
// behind, are ignored. A staged output damaged after the manifest was
// accepted is the one unrecoverable case: the resume surfaces an error
// naming the node rather than loading garbage.
func TestCheckpointStagingDamage(t *testing.T) {
	cases := []struct {
		name    string
		damage  func(t *testing.T, dir string)
		wantErr bool
	}{
		{
			name: "corrupt manifest",
			damage: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte("garbage signature\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "truncated manifest",
			damage: func(t *testing.T, dir string) {
				b, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), b[:len(b)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "empty manifest",
			damage: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "orphan stage files",
			damage: func(t *testing.T, dir string) {
				// IDs far outside the graph: present on disk, never consulted.
				for _, name := range []string{"node-999.csv", "node-1000.csv"} {
					if err := os.WriteFile(filepath.Join(dir, name), []byte("A,B\n1,2\n"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
		{
			name: "leftover temp files",
			damage: func(t *testing.T, dir string) {
				_, id := firstStage(t, dir)
				cr, err := NewCheckpointRunner(New(nil), dir)
				if err != nil {
					t.Fatal(err)
				}
				before, err := cr.Staged()
				if err != nil {
					t.Fatal(err)
				}
				// Torn writes of a staged node and of a node never staged.
				for _, name := range []string{nodeFile(id) + ".tmp", nodeFile(id) + ".tmp-123", "node-998.csv.tmp"} {
					if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				after, err := cr.Staged()
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(after) != fmt.Sprint(before) {
					t.Fatalf("temp files changed Staged(): %v, want %v", after, before)
				}
			},
		},
		{
			name: "old csv staging area",
			damage: func(t *testing.T, dir string) {
				// The manifest and stages an older build wrote: the bare
				// signature, and CSV node files.
				sig := templates.Fig1Scenario(50, 150).Graph.Signature()
				if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte(sig+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				matches, err := filepath.Glob(filepath.Join(dir, "node-*.csv"))
				if err != nil {
					t.Fatal(err)
				}
				for _, path := range matches {
					if err := os.WriteFile(path, []byte("A,B\n1,2\n"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
		{
			name: "corrupt staged csv",
			damage: func(t *testing.T, dir string) {
				rewriteFirstStage(t, dir, func([]byte) []byte { return []byte("A,B\n\"unclosed,1\n2,3\n") })
			},
			wantErr: true,
		},
		{
			name: "truncated stage",
			damage: func(t *testing.T, dir string) {
				rewriteFirstStage(t, dir, func(b []byte) []byte { return b[:len(b)/2] })
			},
			wantErr: true,
		},
		{
			name: "flipped byte in stage",
			damage: func(t *testing.T, dir string) {
				rewriteFirstStage(t, dir, func(b []byte) []byte {
					b[len(b)/2] ^= 0x10
					return b
				})
			},
			wantErr: true,
		},
		{
			name: "stage with another schema",
			damage: func(t *testing.T, dir string) {
				path, _ := firstStage(t, dir)
				if err := data.WriteStage(path, data.Schema{"OTHER"}, data.Rows{{data.NewInt(1)}}); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: true,
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sc := templates.Fig1Scenario(50, 150)
			dir := crashStaging(t, sc)
			_, damaged := firstStage(t, dir)
			c.damage(t, dir)
			cr, err := NewCheckpointRunner(New(sc.Bind()), dir)
			if err != nil {
				t.Fatal(err)
			}
			res, err := cr.Run(context.Background(), sc.Graph)
			if c.wantErr {
				if err == nil {
					t.Fatal("resume over damaged stage should fail, succeeded instead")
				}
				if want := fmt.Sprintf("restoring node %d:", damaged); !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name the damaged node (%q)", err, want)
				}
				return
			}
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			plain, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
			if err != nil {
				t.Fatal(err)
			}
			if diff := data.IdenticalDiff(plain.Targets["DW.PARTS"], res.Targets["DW.PARTS"]); diff != "" {
				t.Errorf("resumed run differs from a clean run: %s", diff)
			}
			staged, err := cr.Staged()
			if err != nil {
				t.Fatal(err)
			}
			if len(staged) != 0 {
				t.Errorf("staging not cleared after success: %v", staged)
			}
		})
	}
}

// cancellingRecordset cancels the run's context from inside its own scan
// — the scan itself succeeds, so the node is staged before the runner
// notices the cancellation at the next node boundary.
type cancellingRecordset struct {
	data.Recordset
	cancel context.CancelFunc
	scans  *int
}

func (c cancellingRecordset) Scan() (data.Rows, error) {
	*c.scans++
	c.cancel()
	return c.Recordset.Scan()
}

// Cancellation mid-run behaves exactly like the crash the runner exists
// to survive: the staging area stays intact and a later run resumes from
// it without repeating the completed scans.
func TestCheckpointResumeAfterCancellation(t *testing.T) {
	sc := templates.Fig1Scenario(50, 150)
	bindings := sc.Bind()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	scans := 0
	bindings["PARTS2"] = cancellingRecordset{Recordset: bindings["PARTS2"], cancel: cancel, scans: &scans}

	dir := filepath.Join(t.TempDir(), "stage")
	cr, err := NewCheckpointRunner(New(bindings), dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Run(ctx, sc.Graph); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run should return context.Canceled, got %v", err)
	}
	staged, err := cr.Staged()
	if err != nil {
		t.Fatal(err)
	}
	if len(staged) == 0 {
		t.Fatal("cancellation left nothing staged")
	}

	// Resume with a fresh context: completes, reuses the staged scan.
	res, err := cr.Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatalf("resume after cancellation failed: %v", err)
	}
	if scans != 1 {
		t.Errorf("PARTS2 scanned %d times; the staged output should have been reused", scans)
	}
	plain, err := New(sc.Bind()).Run(context.Background(), sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Targets["DW.PARTS"].EqualMultiset(plain.Targets["DW.PARTS"]) {
		t.Error("resumed run differs from a clean run")
	}
}
