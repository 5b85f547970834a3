package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ttastar/internal/experiments"
)

func TestRunSingleCampaigns(t *testing.T) {
	for _, exp := range []string{"sos-timing", "sos-value", "masquerade", "badcstate", "babbling", "failover", "replay", "startup", "ablation"} {
		if err := run([]string{"-experiment", exp, "-runs", "2"}); err != nil {
			t.Errorf("-experiment %s: %v", exp, err)
		}
	}
}

func TestRunParallelFlag(t *testing.T) {
	for _, p := range []string{"1", "4"} {
		if err := run([]string{"-experiment", "sos-timing", "-runs", "2", "-parallel", p}); err != nil {
			t.Errorf("-parallel %s: %v", p, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-experiment", "bogus"}); err == nil {
		t.Error("bogus experiment accepted")
	}
	if err := run([]string{"-bad-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-experiment", "sos-timing", "-resume"}); err == nil {
		t.Error("-resume without -checkpoint accepted")
	}
	if err := run([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h returned %v, want flag.ErrHelp", err)
	}
}

// TestRunTimeoutPartial: a hopeless deadline surfaces the typed deadline
// error and, with -checkpoint, leaves a resumable progress file behind.
func TestRunTimeoutPartial(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "fi.cp")
	err := run([]string{"-experiment", "sos-timing", "-runs", "4", "-timeout", "1ns", "-checkpoint", cp})
	if !errors.Is(err, experiments.ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
	if _, err := os.Stat(cp); err != nil {
		t.Errorf("interrupted campaign left no checkpoint: %v", err)
	}
	// Resuming with the deadline lifted completes and removes the file.
	if err := run([]string{"-experiment", "sos-timing", "-runs", "4", "-checkpoint", cp, "-resume"}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if _, err := os.Stat(cp); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("completed campaign left its checkpoint behind (stat err=%v)", err)
	}
}

func TestRunRetriesFlag(t *testing.T) {
	defer experiments.SetMaxRetries(experiments.DefaultMaxRetries)
	if err := run([]string{"-experiment", "sos-timing", "-runs", "2", "-retries", "0"}); err != nil {
		t.Errorf("-retries 0: %v", err)
	}
	if got := experiments.MaxRetries(); got != 0 {
		t.Errorf("MaxRetries() = %d after -retries 0", got)
	}
}

// allRuns4Seed1SHA256 is the SHA-256 of `ttafi -experiment all -runs 4
// -seed 1` stdout. Campaign tables are deterministic for a seed set and
// worker count, so any change to simulation, encoding or decoding that
// alters a single table byte shows up here.
const allRuns4Seed1SHA256 = "0a0e54830665084b0aa53f14870c880b57129f9082d8392bb0db7b910595c476"

// TestAllCampaignOutputPinned runs the full campaign sequence and compares
// its stdout byte for byte (by digest) with the pinned tables.
func TestAllCampaignOutputPinned(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	digest := make(chan string)
	go func() {
		h := sha256.New()
		io.Copy(h, r)
		digest <- hex.EncodeToString(h.Sum(nil))
	}()
	runErr := run([]string{"-experiment", "all", "-runs", "4", "-seed", "1"})
	os.Stdout = stdout
	w.Close()
	got := <-digest
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if got != allRuns4Seed1SHA256 {
		t.Errorf("-experiment all -runs 4 -seed 1 stdout SHA-256 = %s, want %s", got, allRuns4Seed1SHA256)
	}
}
