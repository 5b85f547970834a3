package mc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// coloredModel is the minimal reducible system: a counter that steps +1
// or +2 up to max, dragging along a color bit the dynamics ignore —
// "Na" and "Nb" have identical successor sets, so the quotient that
// forces the color to 'a' is an exact bisimulation and halves the
// space. Exactly the structure of the TTA model's dead coupler tail, in
// four bytes.
type coloredModel struct {
	max         int
	irreducible bool // report Reducible() == false (gating tests)
}

func encodeVC(v int, c byte) State { return State(fmt.Sprintf("%03d%c", v, c)) }

func decodeVC(s State) int {
	v, err := strconv.Atoi(string(s[:len(s)-1]))
	if err != nil {
		panic(err)
	}
	return v
}

func (m coloredModel) Initial() []State { return []State{encodeVC(0, 'a')} }

func (m coloredModel) Successors(s State) []State {
	v := decodeVC(s)
	var out []State
	for _, d := range []int{1, 2} {
		if v+d <= m.max {
			out = append(out, encodeVC(v+d, 'a'), encodeVC(v+d, 'b'))
		}
	}
	return out
}

func (m coloredModel) NewExpander() Expander { return &sliceExpander{m: m} }

func (m coloredModel) Reducible() bool { return !m.irreducible }

type coloredCanonExpander struct{ sliceExpander }

func (e *coloredCanonExpander) Canonicalize(enc []byte) {
	if len(enc) > 0 {
		enc[len(enc)-1] = 'a'
	}
}

func (m coloredModel) NewReducedExpander() CanonicalExpander {
	return &coloredCanonExpander{sliceExpander{m: m}}
}

var _ ReducibleModel = coloredModel{}

// TestReducedSyntheticEquivalence: the reduced search halves the colored
// space, keeps the verdict, and marks the Result — identically for any
// worker count.
func TestReducedSyntheticEquivalence(t *testing.T) {
	m := coloredModel{max: 30}
	inv := func(from, to State) bool { return true }
	oracle, err := CheckTransitionInvariant(m, inv, Options{NoReduce: true})
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Reduced {
		t.Fatal("NoReduce run marked Reduced")
	}
	if oracle.StatesExplored != 2*m.max+1 {
		t.Fatalf("oracle states = %d, want %d", oracle.StatesExplored, 2*m.max+1)
	}
	red := acrossWorkers(t, func(workers int) (Result, error) {
		return CheckTransitionInvariant(m, inv, Options{Workers: workers})
	})
	if !red.Reduced {
		t.Fatal("reduced run not marked Reduced")
	}
	if red.Holds != oracle.Holds {
		t.Fatalf("verdicts differ: reduced %v, oracle %v", red.Holds, oracle.Holds)
	}
	if red.StatesExplored != m.max+1 {
		t.Fatalf("reduced states = %d, want %d", red.StatesExplored, m.max+1)
	}
}

// TestReduceGates: the reduction must stand down for state invariants
// (evaluated per concrete state), for models whose configuration is not
// reducible, and under NoReduce — each falls back to oracle semantics.
func TestReduceGates(t *testing.T) {
	m := coloredModel{max: 20}
	res, err := CheckInvariant(m, func(s State) bool { return true }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduced || res.StatesExplored != 2*m.max+1 {
		t.Fatalf("state-invariant check must not reduce: %+v", res)
	}
	// A state-invariant violation that only a non-representative class
	// member exhibits must still be found.
	viol, err := CheckInvariant(m, func(s State) bool { return s != encodeVC(5, 'b') }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if viol.Holds {
		t.Fatal("state-invariant violation on a non-canonical state missed")
	}
	ir := coloredModel{max: 20, irreducible: true}
	res, err = CheckTransitionInvariant(ir, func(from, to State) bool { return true }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduced || res.StatesExplored != 2*ir.max+1 {
		t.Fatalf("irreducible model must not reduce: %+v", res)
	}
}

// TestReducedConcretizeWitness: a violation found in the quotient comes
// back as a concrete trace — rooted at the initial state, every step a
// real transition, final step violating — with Depth matching.
func TestReducedConcretizeWitness(t *testing.T) {
	m := coloredModel{max: 30}
	inv := func(from, to State) bool { return decodeVC(to) != 7 }
	oracle, err := CheckTransitionInvariant(m, inv, Options{NoReduce: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		res, err := CheckTransitionInvariant(m, inv, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Holds || !res.Reduced {
			t.Fatalf("workers=%d: want reduced FAILS, got %+v", workers, res)
		}
		if res.Holds != oracle.Holds {
			t.Fatalf("workers=%d: verdict differs from oracle", workers)
		}
		cex := res.Counterexample
		if len(cex) < 2 || cex[0] != encodeVC(0, 'a') {
			t.Fatalf("workers=%d: witness not rooted at the initial state: %v", workers, cex)
		}
		for i := 1; i < len(cex); i++ {
			legal := false
			for _, s := range m.Successors(cex[i-1]) {
				if s == cex[i] {
					legal = true
					break
				}
			}
			if !legal {
				t.Fatalf("workers=%d: witness step %v -> %v is not a transition", workers, cex[i-1], cex[i])
			}
		}
		if inv(cex[len(cex)-2], cex[len(cex)-1]) {
			t.Fatalf("workers=%d: witness does not end in a violation: %v", workers, cex)
		}
		if res.Depth != len(cex)-1 {
			t.Fatalf("workers=%d: Depth %d != len(witness)-1 %d", workers, res.Depth, len(cex)-1)
		}
	}
}

// TestResumeModeMismatch: a checkpoint records whether its states are
// canonical representatives; resuming it in the other mode must fail
// loudly instead of silently mixing the two state spaces.
func TestResumeModeMismatch(t *testing.T) {
	m := coloredModel{max: 400}
	inv := func(from, to State) bool { return true }
	for _, first := range []bool{false, true} { // NoReduce of the interrupted run
		path := filepath.Join(t.TempDir(), "cp")
		ctx, cancel := context.WithCancel(context.Background())
		_, err := CheckTransitionInvariant(m, inv, Options{
			NoReduce:       first,
			Context:        ctx,
			CheckpointPath: path,
			Progress:       cancelAfterLevels(3, cancel),
		})
		cancel()
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("NoReduce=%v: got %v, want ErrInterrupted", first, err)
		}
		if reduced := readEngineSnap(t, path).Reduced; reduced != !first {
			t.Fatalf("NoReduce=%v: checkpoint Reduced=%v", first, reduced)
		}
		if _, err := CheckTransitionInvariant(m, inv, Options{
			NoReduce:   !first,
			ResumePath: path,
		}); err == nil || !strings.Contains(err.Error(), "no-reduce") {
			t.Fatalf("NoReduce=%v: mode-mismatched resume: got %v, want a mode error", first, err)
		}
		res, err := CheckTransitionInvariant(m, inv, Options{
			NoReduce:       first,
			ResumePath:     path,
			CheckpointPath: path,
		})
		if err != nil {
			t.Fatalf("NoReduce=%v: matched resume: %v", first, err)
		}
		want := m.max + 1
		if first {
			want = 2*m.max + 1
		}
		if res.StatesExplored != want {
			t.Fatalf("NoReduce=%v: resumed to %d states, want %d", first, res.StatesExplored, want)
		}
	}
}

// TestCheckpointReducedRoundTrip: the search-flags word survives the
// disk format, in the file a reduced (or plain) search really writes.
func TestCheckpointReducedRoundTrip(t *testing.T) {
	for _, noReduce := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "cp")
		interruptSearch(t, coloredModel{max: 30}, 3, path, Options{NoReduce: noReduce})
		if got := readEngineSnap(t, path).Reduced; got == noReduce {
			t.Fatalf("NoReduce=%v search wrote reduced=%v", noReduce, got)
		}
	}
}

// TestInconclusiveKeepsCheckpoint is the regression test for the
// checkpoint-lifecycle bug: an interrupt leaves a checkpoint, a resumed
// run that degrades to an Inconclusive fallback verdict must KEEP it —
// it is the only resumable state exactly when a re-run with a larger
// budget is wanted — and that re-run must then complete and match the
// clean result, removing the checkpoint only then.
func TestInconclusiveKeepsCheckpoint(t *testing.T) {
	m := counterModel{max: 500}
	inv := func(from, to State) bool { return true }
	clean, err := CheckTransitionInvariant(m, inv, Options{})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "cp")
	ctx, cancel := context.WithCancel(context.Background())
	_, err = CheckTransitionInvariant(m, inv, Options{
		Context:        ctx,
		CheckpointPath: path,
		Progress:       cancelAfterLevels(3, cancel),
	})
	cancel()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("got %v, want ErrInterrupted", err)
	}

	res, err := CheckTransitionInvariant(m, inv, Options{
		ResumePath:     path,
		CheckpointPath: path,
		MaxStates:      20,
		FallbackWalks:  4,
		FallbackDepth:  8,
	})
	if err != nil {
		t.Fatalf("degraded run must not fail: %v", err)
	}
	if !res.Inconclusive {
		t.Fatalf("want Inconclusive, got %+v", res)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint destroyed on Inconclusive verdict: %v", err)
	}

	resumed, err := CheckTransitionInvariant(m, inv, Options{
		ResumePath:     path,
		CheckpointPath: path,
	})
	if err != nil {
		t.Fatalf("re-run with larger budget: %v", err)
	}
	if resumed.Inconclusive || !equalResults(resumed, clean) {
		t.Fatalf("re-run %+v differs from clean %+v", resumed, clean)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("checkpoint not removed after the conclusive re-run")
	}
}

// TestFallbackViolationRemovesCheckpoint: a fallback FAILS is a definite
// verdict, so — unlike Inconclusive — it still clears the checkpoint.
func TestFallbackViolationRemovesCheckpoint(t *testing.T) {
	m := counterModel{max: 100}
	path := filepath.Join(t.TempDir(), "cp")
	if err := os.WriteFile(path, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := CheckTransitionInvariant(m, func(from, to State) bool { return decodeInt(to) < 50 },
		Options{MaxStates: 5, FallbackWalks: 4, FallbackSeed: 1, CheckpointPath: path})
	if err != nil {
		t.Fatalf("fallback must degrade, not fail: %v", err)
	}
	if res.Holds || res.Inconclusive {
		t.Fatalf("fallback missed the violation: %+v", res)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("checkpoint not removed after definite fallback verdict")
	}
}

// TestConclusiveRemoveErrorSurfaced is the regression test for the
// swallowed os.Remove error: when the stale checkpoint cannot be
// removed, the search must say so — a survivor would silently shadow a
// later -resume run. The checkpoint path descends through a regular
// file, so removal fails with ENOTDIR even when the tests run as root
// (a chmod-based unwritable directory would not stop root).
func TestConclusiveRemoveErrorSurfaced(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := counterModel{max: 10}
	res, err := CheckTransitionInvariant(m, func(from, to State) bool { return true },
		Options{CheckpointPath: filepath.Join(blocker, "cp")})
	if err == nil || !strings.Contains(err.Error(), "removing stale checkpoint") {
		t.Fatalf("got %v, want a checkpoint-removal error", err)
	}
	if !res.Holds {
		t.Fatalf("the verdict itself must survive the removal failure: %+v", res)
	}
}

// TestConclusiveMissingCheckpointIsFine: a conclusive search whose
// checkpoint was never written (no interrupt, no periodic snapshots)
// must not report the absent file as an error.
func TestConclusiveMissingCheckpointIsFine(t *testing.T) {
	m := counterModel{max: 10}
	_, err := CheckTransitionInvariant(m, func(from, to State) bool { return true },
		Options{CheckpointPath: filepath.Join(t.TempDir(), "never-written")})
	if err != nil {
		t.Fatalf("missing checkpoint at conclusive exit must be ignored: %v", err)
	}
}
