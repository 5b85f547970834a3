package mc

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fingerprintedColored wraps the synthetic colored model with a model
// fingerprint, standing in for a parameterized model whose encodings are
// configuration-dependent.
type fingerprintedColored struct {
	coloredModel
	fp uint64
}

func (m fingerprintedColored) Fingerprint() uint64 { return m.fp }

// TestResumeFingerprintMismatch: a checkpoint taken under one model
// fingerprint must refuse to resume under a different one — the typed
// ErrModelMismatch, mirroring the reduced-mode mismatch — while a
// matching or absent fingerprint resumes normally.
func TestResumeFingerprintMismatch(t *testing.T) {
	inv := func(from, to State) bool { return true }
	path := filepath.Join(t.TempDir(), "cp")
	a := fingerprintedColored{coloredModel{max: 400}, 0x1111}
	ctx, cancel := context.WithCancel(context.Background())
	_, err := CheckTransitionInvariant(a, inv, Options{
		Context:        ctx,
		CheckpointPath: path,
		Progress:       cancelAfterLevels(3, cancel),
	})
	cancel()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run: got %v, want ErrInterrupted", err)
	}
	if fp := readEngineSnap(t, path).Fingerprint; fp != 0x1111 {
		t.Fatalf("checkpoint fingerprint = %#x, want 0x1111", fp)
	}

	// Mismatched fingerprint: typed failure, checkpoint left intact.
	b := fingerprintedColored{coloredModel{max: 400}, 0x2222}
	if _, err := CheckTransitionInvariant(b, inv, Options{ResumePath: path}); !errors.Is(err, ErrModelMismatch) {
		t.Fatalf("mismatched resume: got %v, want ErrModelMismatch", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint gone after refused resume: %v", err)
	}

	// A model with no fingerprint loads best-effort.
	plain := coloredModel{max: 400}
	if _, err := CheckTransitionInvariant(plain, inv, Options{ResumePath: path}); err != nil {
		t.Fatalf("fingerprint-less resume: %v", err)
	}

	// Matching fingerprint resumes to the full space.
	res, err := CheckTransitionInvariant(a, inv, Options{ResumePath: path})
	if err != nil {
		t.Fatalf("matched resume: %v", err)
	}
	// The default resume runs reduced: the color quotient halves the
	// space to max+1 states.
	if want := 400 + 1; res.StatesExplored != want {
		t.Fatalf("resumed to %d states, want %d", res.StatesExplored, want)
	}
}

// TestCheckpointLegacyV3Load: a version-3 file (pre-fingerprint), as a
// pre-v4 build wrote it from a real reduced search, no longer loads. The
// reader refuses it as corrupt (unsupported version), and a fingerprinted
// model resuming from it gets the same refusal — not ErrModelMismatch,
// since a v3 file carries no fingerprint to compare — with the file left
// in place.
func TestCheckpointLegacyV3Load(t *testing.T) {
	inv := func(from, to State) bool { return true }
	a := fingerprintedColored{coloredModel{max: 5}, 0x1111}
	path := filepath.Join(t.TempDir(), "cp")
	ctx, cancel := context.WithCancel(context.Background())
	_, err := CheckTransitionInvariant(a, inv, Options{
		Context:        ctx,
		CheckpointPath: path,
		Progress:       cancelAfterLevels(2, cancel),
	})
	cancel()
	_ = err // only the checkpoint matters; rewrite its live tier as v3 below
	s5 := readEngineSnap(t, path)
	if !s5.Reduced || len(s5.live) == 0 {
		t.Fatalf("interrupted search left reduced=%v with %d live, want a reduced non-empty snapshot", s5.Reduced, len(s5.live))
	}
	lc := &legacyCheckpoint{Depth: s5.Depth, ResultDepth: s5.ResultDepth, Transitions: s5.Transitions, Reduced: true}
	for _, le := range s5.live {
		lc.Frontier = append(lc.Frontier, State(le.enc))
		lc.Visited = append(lc.Visited, legacyEntry{State: State(le.enc)})
	}
	payload := legacyBytes(3, lc)
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = readSealedSnap(path)
	if !errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), "unsupported version 3") {
		t.Fatalf("v3 read: got %v, want ErrCheckpointCorrupt (unsupported version 3)", err)
	}
	_, err = CheckTransitionInvariant(a, inv, Options{ResumePath: path})
	if !errors.Is(err, ErrCheckpointCorrupt) || errors.Is(err, ErrModelMismatch) {
		t.Fatalf("v3 resume under a fingerprinted model: got %v, want ErrCheckpointCorrupt", err)
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(payload) {
		t.Fatalf("refused v3 file was modified or removed (%v)", err)
	}
}
