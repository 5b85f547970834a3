package experiments

// Tests for the campaign engine's resilience layer: cooperative
// cancellation with ordered partial results, panic isolation with bounded
// retry on derived seed streams, and the checkpoint store that makes a
// resumed campaign byte-identical to an uninterrupted one.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ttastar/internal/cluster"
	"ttastar/internal/guardian"
)

// TestRunSeededContextCancellation cuts a serial campaign after run 2 and
// checks the partial contract: completed verdicts survive in index order,
// unstarted runs carry ErrRunSkipped, and the campaign error is the typed
// interrupt.
func TestRunSeededContextCancellation(t *testing.T) {
	SetParallelism(1)
	defer SetParallelism(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const runs = 12
	out, errs, st, err := RunSeededContext(ctx, "cancel cell", runs, 1, func(r int, s RunSeeds) (int, error) {
		if r == 2 {
			cancel()
		}
		return r * 10, nil
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("got %v, want ErrInterrupted", err)
	}
	for i := 0; i <= 2; i++ {
		if errs[i] != nil || out[i] != i*10 {
			t.Errorf("run %d: verdict %d err %v, want %d nil", i, out[i], errs[i], i*10)
		}
	}
	for i := 3; i < runs; i++ {
		if !errors.Is(errs[i], ErrRunSkipped) {
			t.Errorf("run %d: err %v, want ErrRunSkipped", i, errs[i])
		}
	}
	if st.Completed != 3 || st.Skipped != runs-3 {
		t.Errorf("stats completed=%d skipped=%d, want 3 and %d", st.Completed, st.Skipped, runs-3)
	}
}

// TestRunSeededContextCancellationNoLeak: after a cancelled parallel
// campaign returns, every worker goroutine has exited.
func TestRunSeededContextCancellationNoLeak(t *testing.T) {
	SetParallelism(8)
	defer SetParallelism(0)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, _, err := RunSeededContext(ctx, "leak cell", 64, 1, func(r int, s RunSeeds) (int, error) {
		if r == 5 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return r, nil
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("got %v, want ErrInterrupted", err)
	}
	// Give the runtime a moment to retire exiting goroutines.
	for i := 0; i < 100 && runtime.NumGoroutine() > before+2; i++ {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d after cancelled campaign", before, after)
	}
}

// TestRunSeededContextDeadline maps an expired deadline to ErrDeadline.
func TestRunSeededContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, st, err := RunSeededContext(ctx, "deadline cell", 4, 1, func(r int, s RunSeeds) (int, error) {
		return r, nil
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	if st.Skipped != 4 {
		t.Errorf("skipped=%d, want 4", st.Skipped)
	}
}

// TestPanicIsolationAllAttempts: a run that panics on every attempt is a
// per-run failure with a full stack trace, never a campaign failure.
func TestPanicIsolationAllAttempts(t *testing.T) {
	SetMaxRetries(2)
	defer SetMaxRetries(DefaultMaxRetries)
	const runs = 4
	out, errs, st, err := RunSeededContext(context.Background(), "boom cell", runs, 1, func(r int, s RunSeeds) (int, error) {
		if r == 1 {
			panic("kaboom")
		}
		return r * 7, nil
	})
	if err != nil {
		t.Fatalf("panicking run failed the campaign: %v", err)
	}
	var pe *RunPanicError
	if !errors.As(errs[1], &pe) {
		t.Fatalf("run 1 err = %v, want *RunPanicError", errs[1])
	}
	if pe.Run != 1 || pe.Attempts != 3 || pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Errorf("panic record %+v (stack %d bytes)", pe, len(pe.Stack))
	}
	if !strings.Contains(pe.Error(), "run 1 panicked on all 3 attempts") {
		t.Errorf("panic error text: %v", pe)
	}
	for _, i := range []int{0, 2, 3} {
		if errs[i] != nil || out[i] != i*7 {
			t.Errorf("run %d: verdict %d err %v", i, out[i], errs[i])
		}
	}
	if st.Failed != 1 || st.Panics != 3 || st.Completed != runs-1 || st.Attempts != (runs-1)+3 {
		t.Errorf("stats %+v", st)
	}
}

// TestPanicIsolationRetrySucceeds: a once-panicking run recovers on the
// retry attempt, whose seed stream differs from attempt 0's.
func TestPanicIsolationRetrySucceeds(t *testing.T) {
	SetMaxRetries(2)
	defer SetMaxRetries(DefaultMaxRetries)
	var mu sync.Mutex
	calls := map[int]int{}
	seen := map[int][]uint64{}
	out, errs, st, err := RunSeededContext(context.Background(), "flaky cell", 4, 1, func(r int, s RunSeeds) (int, error) {
		mu.Lock()
		calls[r]++
		n := calls[r]
		seen[r] = append(seen[r], s.Cluster)
		mu.Unlock()
		if r == 2 && n == 1 {
			panic("transient")
		}
		return r, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs[2] != nil || out[2] != 2 {
		t.Errorf("retried run: verdict %d err %v", out[2], errs[2])
	}
	if st.Retried != 1 || st.Panics != 1 || st.Failed != 0 || st.Completed != 4 {
		t.Errorf("stats %+v", st)
	}
	if len(seen[2]) != 2 || seen[2][0] == seen[2][1] {
		t.Errorf("retry reused the attempt-0 cluster seed: %v", seen[2])
	}
}

// TestSeedsForAttemptDomains: attempt 0 is the historical derivation the
// published tables depend on; retries draw from distinct streams per
// attempt, per run.
func TestSeedsForAttemptDomains(t *testing.T) {
	if a, b := seedsFor(1, "cell", 3), seedsForAttempt(1, "cell", 3, 0); a.Cluster != b.Cluster {
		t.Error("attempt 0 diverged from the historical seedsFor derivation")
	}
	seen := map[uint64]bool{}
	for r := 0; r < 4; r++ {
		for a := 0; a < 3; a++ {
			s := seedsForAttempt(1, "cell", r, a).Cluster
			if seen[s] {
				t.Fatalf("run %d attempt %d repeats a cluster seed", r, a)
			}
			seen[s] = true
		}
	}
}

// TestCheckpointStoreRoundTrip: recorded verdicts survive a flush/reopen
// and replay into equal values.
func TestCheckpointStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.json")
	cp, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	type verdict struct {
		X int    `json:"x"`
		S string `json:"s"`
	}
	want := verdict{X: 41, S: "hello\x00world"}
	if err := cp.record("cell A", 7, want); err != nil {
		t.Fatal(err)
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	var got verdict
	hit, err := re.lookup("cell A", 7, &got)
	if err != nil || !hit || got != want {
		t.Errorf("lookup hit=%v err=%v got=%+v want=%+v", hit, err, got, want)
	}
	if hit, _ := re.lookup("cell A", 8, &got); hit {
		t.Error("phantom hit for unrecorded run")
	}
	if hit, _ := re.lookup("cell B", 7, &got); hit {
		t.Error("phantom hit for unrecorded cell")
	}
	// Opening without resume ignores the recorded progress.
	fresh, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if hit, _ := fresh.lookup("cell A", 7, &got); hit {
		t.Error("resume=false replayed recorded progress")
	}
}

// TestCheckpointStoreValidation: a damaged body, a future version, a
// foreign magic, a version-1 JSON file and a truncated file are each
// refused with ErrBadCheckpoint; a missing file starts fresh.
func TestCheckpointStoreValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp")
	cp, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.record("cell", 0, 42); err != nil {
		t.Fatal(err)
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	re, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatalf("intact checkpoint: %v", err)
	}
	var got int
	if hit, _ := re.lookup("cell", 0, &got); !hit || got != 42 {
		t.Fatalf("intact checkpoint replays hit=%v %d, want 42", hit, got)
	}
	// reseal gives a payload a valid checksum, so the check under test is
	// not the checksum's.
	reseal := func(payload []byte) []byte {
		h := fnv.New64a()
		h.Write(payload)
		return binary.BigEndian.AppendUint64(append([]byte(nil), payload...), h.Sum64())
	}
	payload := data[:len(data)-8]
	future := append([]byte(nil), payload...)
	future[len(campaignFormat.Magic)]++ // the version, one uvarint byte
	foreign := append([]byte("TTAMCCP\x00"), payload[len(campaignFormat.Magic):]...)
	// A version-1 file: JSON whose checksum is the FNV-64a of its cells.
	cells := `{"cell":{"0":42}}`
	h := fnv.New64a()
	h.Write([]byte(cells))
	v1 := fmt.Sprintf(`{"version":1,"checksum":"%016x","cells":%s}`+"\n", h.Sum64(), cells)
	damaged := strings.Replace(string(data), "42", "43", 1)
	if damaged == string(data) {
		t.Fatal("corruption did not change the file")
	}
	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"damaged body", []byte(damaged)},
		{"future version", reseal(future)},
		{"foreign magic", reseal(foreign)},
		{"version-1 JSON", []byte(v1)},
		{"truncated", data[:len(data)-3]},
		{"shorter than its envelope", data[:4]},
	} {
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCheckpoint(path, true); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: got %v, want ErrBadCheckpoint", tc.name, err)
		}
	}
	// Missing file with resume: start fresh.
	missing := filepath.Join(dir, "nope")
	if _, err := OpenCheckpoint(missing, true); err != nil {
		t.Errorf("missing checkpoint should start fresh: %v", err)
	}
	// Remove is idempotent.
	fresh, _ := OpenCheckpoint(missing, false)
	if err := fresh.Remove(); err != nil {
		t.Errorf("removing a never-flushed checkpoint: %v", err)
	}
}

// TestRunSeededContextCheckpointReplay: a second pass over a populated
// store replays every verdict without calling runOne.
func TestRunSeededContextCheckpointReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.json")
	cp, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	SetCheckpoint(cp)
	defer SetCheckpoint(nil)
	const runs = 5
	first, _, st1, err := RunSeededContext(context.Background(), "replay cell", runs, 1, func(r int, s RunSeeds) (int, error) {
		return r * 100, nil
	})
	if err != nil || st1.Cached != 0 {
		t.Fatalf("first pass: err=%v cached=%d", err, st1.Cached)
	}
	second, errs, st2, err := RunSeededContext(context.Background(), "replay cell", runs, 1, func(r int, s RunSeeds) (int, error) {
		return -1, errors.New("runOne called despite recorded verdict")
	})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached != runs || st2.Attempts != 0 {
		t.Errorf("second pass: cached=%d attempts=%d, want %d and 0", st2.Cached, st2.Attempts, runs)
	}
	for i := range second {
		if errs[i] != nil || second[i] != first[i] {
			t.Errorf("run %d: replayed %d (err %v), recorded %d", i, second[i], errs[i], first[i])
		}
	}
}

// TestCampaignResumeEquivalence is the tentpole guarantee end to end: a
// campaign resumed from a partial checkpoint renders tables byte-identical
// to an uninterrupted campaign's.
func TestCampaignResumeEquivalence(t *testing.T) {
	const runs = 6
	small := guardian.AuthoritySmallShift
	clean, err := SOSTimingCampaign(context.Background(), cluster.TopologyBus, small, runs, 1)
	if err != nil {
		t.Fatal(err)
	}
	cleanStartup, err := StartupLatency(context.Background(), cluster.TopologyBus, small, runs, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: a cut campaign records only the first 3 runs. Seeds derive
	// from (base, label, run index), so these verdicts are exactly the
	// first 3 an uninterrupted campaign would have produced.
	path := filepath.Join(t.TempDir(), "cp.json")
	cp, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	SetCheckpoint(cp)
	defer SetCheckpoint(nil)
	if _, err := SOSTimingCampaign(context.Background(), cluster.TopologyBus, small, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := StartupLatency(context.Background(), cluster.TopologyBus, small, 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := cp.Flush(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume from disk and run the full campaign.
	re, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	SetCheckpoint(re)
	resumed, err := SOSTimingCampaign(context.Background(), cluster.TopologyBus, small, runs, 1)
	if err != nil {
		t.Fatal(err)
	}
	resumedStartup, err := StartupLatency(context.Background(), cluster.TopologyBus, small, runs, 1)
	if err != nil {
		t.Fatal(err)
	}

	cleanTable := FormatCampaign([]CampaignCell{clean})
	resumedTable := FormatCampaign([]CampaignCell{resumed})
	if cleanTable != resumedTable {
		t.Errorf("resumed campaign table differs:\n%s\nvs clean:\n%s", resumedTable, cleanTable)
	}
	if resumed.Attempts >= clean.Attempts {
		t.Errorf("resume re-simulated everything: %d attempts vs clean %d", resumed.Attempts, clean.Attempts)
	}
	c, r := cleanStartup.Latency, resumedStartup.Latency
	cLo, cHi := c.CI95()
	rLo, rHi := r.CI95()
	if c.N() != r.N() || c.Mean() != r.Mean() || cLo != rLo || cHi != rHi {
		t.Errorf("resumed startup latency sample differs: n=%d mean=%v ci95=[%v,%v] vs n=%d mean=%v ci95=[%v,%v]",
			r.N(), r.Mean(), rLo, rHi, c.N(), c.Mean(), cLo, cHi)
	}
}
