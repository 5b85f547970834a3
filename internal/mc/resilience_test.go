package mc

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// cancelAfterLevels returns a Progress callback that cancels the context
// once n levels have completed.
func cancelAfterLevels(n int, cancel context.CancelFunc) func(Progress) {
	calls := 0
	return func(Progress) {
		calls++
		if calls == n {
			cancel()
		}
	}
}

// interruptThenResume runs the check with cancellation after cutAt levels
// (flushing a checkpoint), asserts the partial result, then resumes from
// the checkpoint file and returns the resumed result.
func interruptThenResume(t *testing.T, run func(Options) (Result, error),
	workers, cutAt int) Result {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cp")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := run(Options{
		Workers:        workers,
		Context:        ctx,
		CheckpointPath: path,
		Progress:       cancelAfterLevels(cutAt, cancel),
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("workers=%d cut=%d: got err %v, want ErrInterrupted", workers, cutAt, err)
	}
	if !res.Interrupted {
		t.Fatalf("workers=%d cut=%d: Interrupted not set on partial result", workers, cutAt)
	}
	if res.StatesExplored == 0 {
		t.Fatalf("workers=%d cut=%d: partial result discarded states-so-far", workers, cutAt)
	}
	if !strings.Contains(res.String(), "INTERRUPTED") {
		t.Fatalf("partial result string %q lacks INTERRUPTED", res.String())
	}
	resumed, err := run(Options{Workers: workers, ResumePath: path, CheckpointPath: path})
	if err != nil {
		t.Fatalf("workers=%d cut=%d: resume: %v", workers, cutAt, err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("workers=%d cut=%d: checkpoint not removed after conclusive resume", workers, cutAt)
	}
	return resumed
}

func TestInterruptResumeEquivalenceHolds(t *testing.T) {
	m := diamondModel{k: 40}
	inv := func(from, to State) bool { return true }
	run := func(opts Options) (Result, error) { return CheckTransitionInvariant(m, inv, opts) }
	clean, err := run(Options{Workers: 1})
	if err != nil || !clean.Holds {
		t.Fatalf("clean run: %+v, %v", clean, err)
	}
	for _, w := range workerCounts {
		for _, cutAt := range []int{1, 5, 20} {
			resumed := interruptThenResume(t, run, w, cutAt)
			if !equalResults(resumed, clean) {
				t.Fatalf("workers=%d cut=%d: resumed %+v differs from clean %+v", w, cutAt, resumed, clean)
			}
		}
	}
}

func TestInterruptResumeEquivalenceViolation(t *testing.T) {
	m := diamondModel{k: 30}
	inv := func(from, to State) bool { return to != encodeXY(17, 17) }
	run := func(opts Options) (Result, error) { return CheckTransitionInvariant(m, inv, opts) }
	clean, err := run(Options{Workers: 1})
	if err != nil || clean.Holds {
		t.Fatalf("clean run: %+v, %v", clean, err)
	}
	for _, w := range workerCounts {
		resumed := interruptThenResume(t, run, w, 9)
		if !equalResults(resumed, clean) {
			t.Fatalf("workers=%d: resumed %+v differs from clean %+v", w, resumed, clean)
		}
	}
}

func TestInterruptResumeStateInvariant(t *testing.T) {
	m := diamondModel{k: 25}
	inv := func(s State) bool { return s != encodeXY(9, 13) }
	run := func(opts Options) (Result, error) { return CheckInvariant(m, inv, opts) }
	clean, err := run(Options{Workers: 1})
	if err != nil || clean.Holds {
		t.Fatalf("clean run: %+v, %v", clean, err)
	}
	for _, w := range workerCounts {
		resumed := interruptThenResume(t, run, w, 6)
		if !equalResults(resumed, clean) {
			t.Fatalf("workers=%d: resumed %+v differs from clean %+v", w, resumed, clean)
		}
	}
}

// TestDoubleInterruptResume interrupts a run, resumes, interrupts the
// resumed run again, and resumes once more — the final result must still
// be byte-identical to a clean sweep.
func TestDoubleInterruptResume(t *testing.T) {
	m := diamondModel{k: 40}
	inv := func(from, to State) bool { return true }
	clean, err := CheckTransitionInvariant(m, inv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp")
	for _, cutAt := range []int{4, 11} {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := CheckTransitionInvariant(m, inv, Options{
			Context:        ctx,
			CheckpointPath: path,
			ResumePath:     path,
			Progress:       cancelAfterLevels(cutAt, cancel),
		})
		cancel()
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("cut=%d: got %v, want ErrInterrupted", cutAt, err)
		}
	}
	resumed, err := CheckTransitionInvariant(m, inv, Options{ResumePath: path, CheckpointPath: path})
	if err != nil {
		t.Fatalf("final resume: %v", err)
	}
	if !equalResults(resumed, clean) {
		t.Fatalf("resumed %+v differs from clean %+v", resumed, clean)
	}
}

// TestPeriodicCheckpointResume snapshots a periodic (not interrupt-driven)
// checkpoint mid-run and verifies a run resumed from it matches the clean
// result.
func TestPeriodicCheckpointResume(t *testing.T) {
	m := diamondModel{k: 25}
	inv := func(from, to State) bool { return true }
	clean, err := CheckTransitionInvariant(m, inv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(t.TempDir(), "cp")
	saved := filepath.Join(t.TempDir(), "cp")
	copied := false
	res, err := CheckTransitionInvariant(m, inv, Options{
		CheckpointPath:  cp,
		CheckpointEvery: 3,
		Progress: func(p Progress) {
			if p.Depth == 10 && !copied {
				copyChain(t, cp, saved)
				copied = true
			}
		},
	})
	if err != nil || !equalResults(res, clean) {
		t.Fatalf("checkpointing run diverged: %+v, %v", res, err)
	}
	if names := dirNames(t, filepath.Dir(cp)); len(names) != 0 {
		t.Fatalf("checkpoint files %v left after conclusive run", names)
	}
	if !copied {
		t.Fatal("periodic checkpoint was never observed")
	}
	resumed, err := CheckTransitionInvariant(m, inv, Options{ResumePath: saved})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !equalResults(resumed, clean) {
		t.Fatalf("resumed %+v differs from clean %+v", resumed, clean)
	}
}

func TestResumeMissingFileStartsFresh(t *testing.T) {
	m := diamondModel{k: 10}
	inv := func(from, to State) bool { return true }
	clean, err := CheckTransitionInvariant(m, inv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckTransitionInvariant(m, inv, Options{
		ResumePath: filepath.Join(t.TempDir(), "absent"),
	})
	if err != nil {
		t.Fatalf("missing resume file must not be an error: %v", err)
	}
	if !equalResults(res, clean) {
		t.Fatalf("fresh-start result %+v differs from clean %+v", res, clean)
	}
}

func TestDeadlineSurfacesErrDeadline(t *testing.T) {
	m := diamondModel{k: 10}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := CheckTransitionInvariant(m, func(from, to State) bool { return true },
		Options{Context: ctx})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	if !errors.Is(err, ErrDeadline) || errors.Is(err, ErrInterrupted) {
		t.Fatalf("deadline must surface as ErrDeadline, not ErrInterrupted: %v", err)
	}
	if !res.Interrupted {
		t.Fatal("Interrupted not set on deadline")
	}
}

func TestFallbackInconclusive(t *testing.T) {
	m := counterModel{max: 1000}
	res, err := CheckTransitionInvariant(m, func(from, to State) bool { return true },
		Options{MaxStates: 10, FallbackWalks: 8, FallbackDepth: 64, FallbackSeed: 7})
	if err != nil {
		t.Fatalf("fallback must degrade, not fail: %v", err)
	}
	if !res.Inconclusive || !res.Holds {
		t.Fatalf("want inconclusive holds, got %+v", res)
	}
	if res.SampledWalks != 8 || res.SampledDepth != 64 {
		t.Fatalf("coverage stats wrong: %+v", res)
	}
	if !strings.Contains(res.String(), "INCONCLUSIVE") {
		t.Fatalf("result string %q lacks INCONCLUSIVE", res.String())
	}
}

func TestFallbackDefaultDepth(t *testing.T) {
	m := counterModel{max: 1000}
	res, err := CheckTransitionInvariant(m, func(from, to State) bool { return true },
		Options{MaxStates: 10, FallbackWalks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.SampledDepth != 1024 {
		t.Fatalf("default fallback depth = %d, want 1024", res.SampledDepth)
	}
}

func TestFallbackFindsTransitionViolation(t *testing.T) {
	m := counterModel{max: 100}
	inv := func(from, to State) bool { return decodeInt(to) < 50 }
	res, err := CheckTransitionInvariant(m, inv, Options{
		MaxStates: 5, FallbackWalks: 4, FallbackSeed: 1,
	})
	if err != nil {
		t.Fatalf("fallback must degrade, not fail: %v", err)
	}
	if res.Holds || res.Inconclusive {
		t.Fatalf("fallback missed the violation: %+v", res)
	}
	assertGenuineCounterTrace(t, res.Counterexample)
	if decodeInt(res.Counterexample[len(res.Counterexample)-1]) < 50 {
		t.Fatalf("trace does not end in a violation: %v", res.Counterexample)
	}
}

func TestFallbackFindsStateViolation(t *testing.T) {
	m := counterModel{max: 100}
	inv := func(s State) bool { return decodeInt(s) < 50 }
	res, err := CheckInvariant(m, inv, Options{
		MaxStates: 5, FallbackWalks: 4, FallbackSeed: 3,
	})
	if err != nil {
		t.Fatalf("fallback must degrade, not fail: %v", err)
	}
	if res.Holds || res.Inconclusive {
		t.Fatalf("fallback missed the violation: %+v", res)
	}
	assertGenuineCounterTrace(t, res.Counterexample)
}

// assertGenuineCounterTrace checks a fallback counterexample is a real
// path of the counter model: rooted at the initial state, every step a
// legal +1/+2 transition.
func assertGenuineCounterTrace(t *testing.T, trace []State) {
	t.Helper()
	if len(trace) == 0 || trace[0] != encodeInt(0) {
		t.Fatalf("trace %v is not rooted at the initial state", trace)
	}
	for i := 1; i < len(trace); i++ {
		d := decodeInt(trace[i]) - decodeInt(trace[i-1])
		if d != 1 && d != 2 {
			t.Fatalf("trace step %d→%d is not a legal transition", decodeInt(trace[i-1]), decodeInt(trace[i]))
		}
	}
}

func TestNoFallbackKeepsStateLimitError(t *testing.T) {
	m := counterModel{max: 1000}
	_, err := CheckTransitionInvariant(m, func(from, to State) bool { return true },
		Options{MaxStates: 10})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("got %v, want ErrStateLimit without fallback", err)
	}
}
