package daemon

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/twig-sched/twig/internal/checkpoint"
	"github.com/twig-sched/twig/internal/mat/tiertest"
)

// TestParentCheckpointResumesHexIdentical restores a checkpoint the
// commit before the live-column GEMM kernels wrote — the e2e scenario cut
// at t=40, ten intervals after xapian's admission — and requires the
// next fifty intervals (through the drain at t=60) to match, in hex
// floats, the rows that commit's own uninterrupted run produced. The
// learner trains every interval of it through the tiled products, the
// vector Adam step and the branch-free epilogues, so a single differing
// bit anywhere in them moves a decision and shows here — under every
// kernel tier the host has, which is what lets a checkpoint written on
// one machine resume on another.
//
// testdata/parent_pr14 holds the checkpoint and the rows; both were
// written by a throwaway test on the parent commit that ran this
// scenario with e2eConfig and e2eScript (DESIGN.md, "Determinism and
// the non-finite contract", on parent-written fixtures).
func TestParentCheckpointResumesHexIdentical(t *testing.T) {
	resumeParentCheckpoint(t, "parent_pr14", e2eConfig)
}

// TestParentPR17CheckpointResumesHexIdentical is the same cut of the same
// scenario written by the commit before the live × live backward pass
// (DESIGN.md, "The training step and its kernel tiers"), at a scale
// where that pass has something to leave out:
// two trunk layers of 32 and 24 units with dropout, 16-unit branches,
// minibatches of 16 — dead units take whole panels out of dW and whole
// columns out of the input gradients from the first training step on.
func TestParentPR17CheckpointResumesHexIdentical(t *testing.T) {
	resumeParentCheckpoint(t, "parent_pr17", func(store *checkpoint.Store) Config {
		cfg := e2eConfig(store)
		cfg.Scale.Name = "pr17"
		cfg.Scale.Spec.SharedHidden = []int{32, 24}
		cfg.Scale.Spec.BranchHidden = 16
		cfg.Scale.BatchSize = 16
		cfg.Scale.Spec.Dropout = 0.5
		return cfg
	})
}

func resumeParentCheckpoint(t *testing.T, fixture string, config func(*checkpoint.Store) Config) {
	tiertest.EachLower(t)
	const cut, total = 40, 90
	raw, err := os.ReadFile(filepath.Join("testdata", fixture, "ckpt-000000000040.twig"))
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, err := os.ReadFile(filepath.Join("testdata", fixture, "rows.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(wantRaw)), "\n")

	store, err := checkpoint.NewStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(cut), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	e, seq, err := RestoreLatest(config(store))
	if err != nil {
		t.Fatalf("restoring the parent's checkpoint: %v", err)
	}
	if seq != cut || e.Next() != cut {
		t.Fatalf("restored seq %d, resumes at t=%d, want %d", seq, e.Next(), cut)
	}
	// The daemon section's tail is ctrl.Loop's codec since the interval
	// kernel: the restored engine must write back the parent's bytes.
	if !bytes.Equal(e.marshal(nil), raw) {
		t.Fatal("re-marshalling the restored engine does not reproduce the parent's bytes")
	}
	got := runScripted(t, e, total, e2eScript())
	if err := e.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	if last := want[len(want)-1]; strings.HasPrefix(last, "final ") {
		// Since parent_pr17 the rows end with the hash of the parent's whole
		// state at the end of its run: every weight and moment, not only
		// the decisions they led to.
		got = append(got, fmt.Sprintf("final sha256=%x", sha256.Sum256(e.marshal(nil))))
	}
	if len(got) != len(want) {
		t.Fatalf("resumed run produced %d rows, the parent's %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diverged from the parent's run at t=%d:\n  parent: %s\n  resumed: %s", cut+i, want[i], got[i])
		}
	}
}
