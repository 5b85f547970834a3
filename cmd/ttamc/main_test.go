package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ttastar/internal/dist"
	"ttastar/internal/guardian"
	"ttastar/internal/mc"
	"ttastar/internal/model"
)

// TestMain lets the test binary serve as its own dist worker:
// -dist-workers re-executes the running binary with -dist-worker.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-dist-worker" {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "ttamc:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// captureStdout returns what f prints to os.Stdout.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = f()
	os.Stdout = stdout
	w.Close()
	s := <-out
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDistLongTMPDIR: the dist worker mesh does not depend on TMPDIR.
// Under a TMPDIR longer than a Unix socket path may be (107 bytes), a
// pipe-launcher check equals the engine's result and the -dist-workers
// subprocess path prints what -parallel prints.
func TestDistLongTMPDIR(t *testing.T) {
	tmp := filepath.Join(t.TempDir(), strings.Repeat("t", 120))
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", tmp)

	m, err := model.New(model.Config{Nodes: 3, Authority: guardian.AuthoritySmallShift})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ck := &dist.Checker{Opts: dist.Options{Workers: 2, Launcher: dist.NewPipeLauncher()}}
	got, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), mc.Options{Dist: ck})
	if err != nil {
		t.Fatalf("pipe workers: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pipe workers: %+v, engine %+v", got, want)
	}

	sp := captureStdout(t, func() error { return run([]string{"-nodes", "3", "-parallel", "2"}) })
	d2 := captureStdout(t, func() error { return run([]string{"-nodes", "3", "-dist-workers", "2"}) })
	if sp == "" || d2 != sp {
		t.Fatalf("-dist-workers 2 printed\n%s\n-parallel 2 printed\n%s", d2, sp)
	}
}

func TestRunMatrix(t *testing.T) {
	if err := run([]string{"-matrix"}); err != nil {
		t.Fatalf("-matrix: %v", err)
	}
}

func TestRunTraces(t *testing.T) {
	for _, kind := range []string{"coldstart", "cstate", "unconstrained"} {
		if err := run([]string{"-trace", kind}); err != nil {
			t.Errorf("-trace %s: %v", kind, err)
		}
	}
	if err := run([]string{"-trace", "bogus"}); err == nil {
		t.Error("bogus trace kind accepted")
	}
}

func TestRunParallelAndVerbose(t *testing.T) {
	if err := run([]string{"-matrix", "-parallel", "2"}); err != nil {
		t.Errorf("-matrix -parallel 2: %v", err)
	}
	if err := run([]string{"-authority", "smallshift", "-nodes", "2", "-parallel", "1", "-v"}); err != nil {
		t.Errorf("-parallel 1 -v: %v", err)
	}
	if err := run([]string{"-trace", "unconstrained", "-parallel", "3"}); err != nil {
		t.Errorf("-trace -parallel 3: %v", err)
	}
}

func TestRunDirectCheck(t *testing.T) {
	if err := run([]string{"-authority", "smallshift", "-nodes", "3"}); err != nil {
		t.Errorf("direct check: %v", err)
	}
	if err := run([]string{"-authority", "fullshift", "-max-oos", "1", "-states"}); err != nil {
		t.Errorf("fullshift check: %v", err)
	}
	if err := run([]string{"-authority", "bogus"}); err == nil {
		t.Error("bogus authority accepted")
	}
	if err := run([]string{"-nodes", "99"}); err == nil {
		t.Error("99 nodes accepted")
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-resume"}); err == nil {
		t.Error("-resume without -checkpoint accepted")
	}
	if err := run([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h returned %v, want flag.ErrHelp", err)
	}
}

// TestRunInterruptResume is the CLI-level resilience loop: cut a search
// after a few levels via -interrupt-after, confirm the typed interrupt
// error and the checkpoint file, then -resume to the same verdict a clean
// run produces — and confirm the finished search removed the checkpoint.
func TestRunInterruptResume(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "cp.mc")
	args := []string{"-authority", "smallshift", "-nodes", "2", "-parallel", "2", "-checkpoint", cp}
	err := run(append(args, "-interrupt-after", "3"))
	if !errors.Is(err, mc.ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want mc.ErrInterrupted", err)
	}
	if _, err := os.Stat(cp); err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}
	if err := run(append(args, "-resume")); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if _, err := os.Stat(cp); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("finished search left its checkpoint behind (stat err=%v)", err)
	}
}

// TestRunCrossModeResume: a -trace coldstart search cut in one mode and
// resumed in the other — distributed to in-process, in-process to
// distributed — prints what a clean run prints, and the finished run
// leaves none of the checkpoint's files behind.
func TestRunCrossModeResume(t *testing.T) {
	clean := captureStdout(t, func() error { return run([]string{"-trace", "coldstart", "-parallel", "2"}) })
	for _, mode := range [][2]string{{"-dist-workers=2", "-parallel=2"}, {"-parallel=2", "-dist-workers=4"}} {
		dir := t.TempDir()
		args := []string{"-trace", "coldstart", "-checkpoint", filepath.Join(dir, "cp.mc")}
		var cutErr error
		captureStdout(t, func() error {
			cutErr = run(append(args, mode[0], "-interrupt-after", "6"))
			return nil
		})
		if !errors.Is(cutErr, mc.ErrInterrupted) {
			t.Fatalf("%s cut run returned %v, want mc.ErrInterrupted", mode[0], cutErr)
		}
		if resumed := captureStdout(t, func() error { return run(append(args, mode[1], "-resume")) }); resumed != clean {
			t.Fatalf("%s cut, %s resumed printed\n%s\nclean run printed\n%s", mode[0], mode[1], resumed, clean)
		}
		if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
			t.Fatalf("%s cut, %s resumed left %v behind (%v)", mode[0], mode[1], left, err)
		}
	}
}

func TestRunFallbackFlags(t *testing.T) {
	// A tiny -max-states budget without fallback fails; with
	// -fallback-walks it degrades to an inconclusive sampled verdict.
	if err := run([]string{"-authority", "smallshift", "-nodes", "2", "-max-states", "10"}); err == nil {
		t.Error("exhausted budget without fallback did not error")
	}
	if err := run([]string{"-authority", "smallshift", "-nodes", "2", "-max-states", "10", "-fallback-walks", "4", "-fallback-depth", "32"}); err != nil {
		t.Errorf("fallback sampling: %v", err)
	}
}

func TestRunMemBudgetFlag(t *testing.T) {
	// An impossibly small -mem-budget trips the same degradation path as
	// -max-states: hard failure without fallback, inconclusive with it.
	if err := run([]string{"-authority", "smallshift", "-nodes", "2", "-mem-budget", "1024"}); err == nil {
		t.Error("exhausted memory budget without fallback did not error")
	}
	if err := run([]string{"-authority", "smallshift", "-nodes", "2", "-mem-budget", "1024", "-fallback-walks", "4", "-fallback-depth", "32"}); err != nil {
		t.Errorf("fallback sampling under memory budget: %v", err)
	}
	// A generous budget must not perturb the verdict.
	if err := run([]string{"-authority", "smallshift", "-nodes", "2", "-mem-budget", "1073741824", "-stats"}); err != nil {
		t.Errorf("generous memory budget: %v", err)
	}
}
