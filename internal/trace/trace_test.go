package trace

import (
	"strings"
	"testing"

	"ttastar/internal/guardian"
	"ttastar/internal/mc"
	"ttastar/internal/model"
)

func fullShiftCounterexample(t *testing.T, cfg model.Config) (*model.Model, []mc.State) {
	t.Helper()
	m, err := model.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("expected a counterexample")
	}
	return m, res.Counterexample
}

func TestRenderFullShiftTrace(t *testing.T) {
	m, cex := fullShiftCounterexample(t, model.Config{Authority: guardian.AuthorityFullShift})
	out := Render(m, cex)

	for _, phrase := range []string{
		"1) Initially, all nodes are in the freeze state.",
		"sends a cold start frame",
		"replays the previous cold start frame",
		"integrates on the frame and transitions into the passive state",
		"freezes due to a clique avoidance error",
	} {
		if !strings.Contains(out, phrase) {
			t.Errorf("trace missing %q:\n%s", phrase, out)
		}
	}
	// Steps are numbered 1..len(path).
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(cex) {
		t.Errorf("rendered %d steps for a %d-state trace", len(lines), len(cex))
	}
}

func TestRenderCStateReplayTrace(t *testing.T) {
	m, cex := fullShiftCounterexample(t, model.Config{
		Authority:         guardian.AuthorityFullShift,
		NoColdStartReplay: true,
	})
	out := Render(m, cex)
	if !strings.Contains(out, "replays the previous C-state frame") {
		t.Errorf("trace does not show a C-state replay:\n%s", out)
	}
	if strings.Contains(out, "replays the previous cold start frame") {
		t.Errorf("trace replays a cold-start frame despite constraint:\n%s", out)
	}
}

func TestRenderEmpty(t *testing.T) {
	m, err := model.New(model.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := Render(m, nil); got != "(empty trace)" {
		t.Errorf("Render(nil) = %q", got)
	}
}

func TestRenderStates(t *testing.T) {
	m, cex := fullShiftCounterexample(t, model.Config{Authority: guardian.AuthorityFullShift})
	out := RenderStates(m, cex)
	if !strings.Contains(out, "state 1:") || !strings.Contains(out, "freeze") {
		t.Errorf("RenderStates output unexpected:\n%s", out)
	}
	if !strings.Contains(out, "buf0=") && !strings.Contains(out, "buf1=") {
		t.Errorf("RenderStates never shows a buffered frame:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(cex) {
		t.Errorf("RenderStates has %d lines for %d states", len(lines), len(cex))
	}
}

func TestRenderSilenceAndNoiseFaults(t *testing.T) {
	// Build a two-step path by hand where a coupler goes silent: initial →
	// all-init is fault-independent, so instead check the describe path via
	// a model with a silence fault possible. Rendering must not panic and
	// must mention nothing misleading for an unconstrained init step.
	m, err := model.New(model.Config{})
	if err != nil {
		t.Fatal(err)
	}
	init := m.Initial()[0]
	succs := m.Successors(init)
	out := Render(m, []mc.State{init, succs[0]})
	if !strings.HasPrefix(out, "1) Initially") {
		t.Errorf("unexpected rendering:\n%s", out)
	}
}
