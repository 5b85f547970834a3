package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"

	"ttastar/internal/experiments"
	"ttastar/internal/guardian"
	"ttastar/internal/mc"
	"ttastar/internal/model"
)

// smallVerify is verify-6n shrunk to the 3-node model, pinned to its
// true outcome.
func smallVerify(t *testing.T, b *bench) (*verifyWorkload, searchPin) {
	t.Helper()
	w := &verifyWorkload{cfg: model.Config{Authority: guardian.AuthoritySmallShift, Nodes: 3}}
	if err := w.setup(b); err != nil {
		t.Fatal(err)
	}
	res, st, _, err := b.search(w.m, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return w, searchPin{holds: res.Holds, states: res.StatesExplored,
		transitions: res.TransitionsExplored, levels: st.Levels}
}

func TestWrongPinCountsAsFailed(t *testing.T) {
	b := &bench{workers: 2, seed: 1, workDir: t.TempDir()}
	w, good := smallVerify(t, b)
	w.pin = good
	var ok tally
	w.pass(b, &ok)
	if ok.attempted != 1 || ok.failed != 0 {
		t.Fatalf("true pins: %d/%d failed (%v)", ok.failed, ok.attempted, ok.reasons)
	}
	for name, wrong := range map[string]func(*searchPin){
		"verdict":     func(p *searchPin) { p.holds = !p.holds },
		"states":      func(p *searchPin) { p.states++ },
		"transitions": func(p *searchPin) { p.transitions-- },
		"levels":      func(p *searchPin) { p.levels++ },
		"trace":       func(p *searchPin) { p.traceLen = 13 },
	} {
		w.pin = good
		wrong(&w.pin)
		var bad tally
		w.pass(b, &bad)
		if bad.attempted != 1 || bad.failed != 1 {
			t.Errorf("wrong %s pin: %d/%d failed, want 1/1", name, bad.failed, bad.attempted)
		}
	}
}

// A whole run with a wrong pin must report the run as incorrect.
func TestRunWithWrongPinIsNotCorrect(t *testing.T) {
	t.Setenv("TMPDIR", os.TempDir()) // run points it into its work directory
	b := &bench{workers: 2, seed: 1, workDir: t.TempDir()}
	w, pin := smallVerify(t, b)
	pin.states++
	w.pin = pin
	res, err := run(options{workload: "verify-3n", seed: 1, workDir: t.TempDir()}, w, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
		t.Errorf("wrong pin reported correct=%v, %d/%d failed", res.Correct, res.Failed, res.Attempted)
	}
	for _, d := range endToEnd {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("metric %s missing", d.name)
		}
	}
}

// The traced passes must pass the same pins and count each model call
// once, whichever worker made it; run with -race, this also checks the
// tracer's hand-off between the workers and the level barrier.
func TestTracedPassesCountEveryCall(t *testing.T) {
	b := &bench{workers: 2, seed: 1, workDir: t.TempDir()}
	w, pin := smallVerify(t, b)
	w.pin = pin
	b.tr = newTracer()
	var vt tally
	w.pass(b, &vt)
	s := b.tr.sum
	if vt.failed != 0 || s.searches != 1 || s.levels != pin.levels ||
		s.succCalls != int64(pin.states) || s.succOut != int64(pin.transitions) ||
		s.propCalls != int64(pin.transitions) || s.canonCalls < int64(pin.transitions) {
		t.Errorf("traced verify: %d/%d failed (%v); sums %+v for pins %+v", vt.failed, vt.attempted, vt.reasons, s, pin)
	}

	b.tr = nil
	d := newDist()
	d.cfg.Nodes = 3
	if err := d.setup(b); err != nil {
		t.Fatal(err)
	}
	ref, err := mc.CheckTransitionInvariantBytes(d.m, d.m.PropertyBytes(), mc.Options{NoReduce: true})
	if err != nil {
		t.Fatal(err)
	}
	d.pin = searchPin{holds: ref.Holds, states: ref.StatesExplored, transitions: ref.TransitionsExplored}
	var dt tally
	d.prepare(b, &dt)
	b.tr = newTracer()
	d.pass(b, &dt)
	ds := b.layers.dist
	if dt.failed != 0 || ds.respawns != 1 || ds.workerStarts != 3 || ds.controlFrames == 0 ||
		b.tr.sum.propCalls != int64(d.ref.TransitionsExplored) {
		t.Errorf("traced dist: %d/%d failed (%v); dist sums %+v, %d property calls",
			dt.failed, dt.attempted, dt.reasons, ds, b.tr.sum.propCalls)
	}
}

func TestCampaignShape(t *testing.T) {
	cell := func(disrupted int) experiments.CampaignCell {
		return experiments.CampaignCell{Runs: 20, RunsDisrupted: disrupted}
	}
	sos, masq := campaignGroups[0], campaignGroups[2]
	for _, tc := range []struct {
		g     campaignGroup
		cells []experiments.CampaignCell
		ok    bool
	}{
		{sos, []experiments.CampaignCell{cell(20), cell(0)}, true},
		{sos, []experiments.CampaignCell{cell(0), cell(0)}, false},  // bus clean
		{sos, []experiments.CampaignCell{cell(20), cell(1)}, false}, // star disrupted
		{masq, []experiments.CampaignCell{cell(0), cell(4), cell(0)}, true},
		{masq, []experiments.CampaignCell{cell(1), cell(0), cell(2)}, false}, // semantic star disrupted
	} {
		if err := checkShape(tc.g, tc.cells); (err == nil) != tc.ok {
			t.Errorf("%s %v: err %v, want ok=%v", tc.g.name, tc.cells, err, tc.ok)
		}
	}
}

// The metric tables the benchmark prints must match BENCHMARK.json.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if newWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q unknown to the benchmark", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
