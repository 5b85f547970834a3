package main

// The model-checking workloads: verify-6n, paper and dist-recover. Each
// pass is a fixed amount of work whose every output is checked against
// its pins; a miss, an error or exhausted retries counts the operation as
// failed.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"ttastar/internal/dist"
	"ttastar/internal/experiments"
	"ttastar/internal/guardian"
	"ttastar/internal/mc"
	"ttastar/internal/model"
	"ttastar/internal/sim"
	"ttastar/internal/trace"
)

// workload is one benchmark workload: a set-up that is timed and
// repeated, an untimed preparation run once, and a pass — the fixed unit
// of work the measuring window repeats.
type workload interface {
	setup(b *bench) error
	prepare(b *bench, t *tally)
	pass(b *bench, t *tally)
}

// bench is the run-wide context every workload sees.
type bench struct {
	workers int    // GOMAXPROCS, the engine's workers and the campaign pool
	seed    uint64 // the benchmark's --seed
	workDir string // work space inside the checkout
	// tr is set during traced passes only; dist worker builders read it.
	tr     *tracer
	layers layerSums
}

// search checks m's §5.1 property with the run's worker count — traced
// when a tracer is active — and returns the level walls by depth when
// traced.
func (b *bench) search(m *model.Model, opts mc.Options) (mc.Result, mc.Stats, map[int]int64, error) {
	opts.Workers = b.workers
	if b.tr != nil {
		return b.tr.search(m, opts)
	}
	var st mc.Stats
	opts.Stats = func(s mc.Stats) { st = s }
	res, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), opts)
	return res, st, nil, err
}

// tally counts the operations a run attempted and those that failed.
type tally struct {
	attempted, failed int
	reasons           []string // the first few failures, for stderr
}

// add records n operations that share one outcome.
func (t *tally) add(n int, err error) {
	t.attempted += n
	if err != nil && n > 0 {
		t.failed += n
		if len(t.reasons) < 8 {
			t.reasons = append(t.reasons, err.Error())
		}
	}
}

func (t *tally) op(err error) { t.add(1, err) }

// searchPin is the expected outcome of one search.
type searchPin struct {
	holds       bool
	states      int
	transitions int // 0: not pinned
	levels      int // completed BFS levels (mc.Stats.Levels); 0: not pinned
	traceLen    int // counterexample states; 0 when the property holds
}

func (p searchPin) check(res mc.Result, st mc.Stats) error {
	var bad []string
	if res.Interrupted || res.Inconclusive || res.DepthBounded {
		bad = append(bad, "partial result")
	}
	if res.Holds != p.holds {
		bad = append(bad, fmt.Sprintf("holds %v, want %v", res.Holds, p.holds))
	}
	if res.StatesExplored != p.states {
		bad = append(bad, fmt.Sprintf("%d states, want %d", res.StatesExplored, p.states))
	}
	if p.transitions != 0 && res.TransitionsExplored != p.transitions {
		bad = append(bad, fmt.Sprintf("%d transitions, want %d", res.TransitionsExplored, p.transitions))
	}
	if p.levels != 0 && st.Levels != p.levels {
		bad = append(bad, fmt.Sprintf("%d levels, want %d", st.Levels, p.levels))
	}
	if len(res.Counterexample) != p.traceLen {
		bad = append(bad, fmt.Sprintf("trace of %d states, want %d", len(res.Counterexample), p.traceLen))
	}
	if len(bad) > 0 {
		return fmt.Errorf("pin mismatch: %s", strings.Join(bad, ", "))
	}
	return nil
}

// sameResult reports whether two searches of one model agree on
// everything the determinism contract covers.
func sameResult(got, want mc.Result) error {
	if got.Holds != want.Holds || got.StatesExplored != want.StatesExplored ||
		got.TransitionsExplored != want.TransitionsExplored || got.Depth != want.Depth ||
		!slices.Equal(got.Counterexample, want.Counterexample) {
		return fmt.Errorf("result differs from reference: %v (depth %d) vs %v (depth %d)",
			got, got.Depth, want, want.Depth)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// verifyWorkload is verify-6n: the reduced 6-node small-shifting check.
type verifyWorkload struct {
	cfg model.Config
	pin searchPin
	m   *model.Model
}

func newVerify() *verifyWorkload {
	return &verifyWorkload{
		cfg: model.Config{Authority: guardian.AuthoritySmallShift, Nodes: 6},
		pin: searchPin{holds: true, states: 2_453_335, transitions: 7_469_347, levels: 32},
	}
}

func (w *verifyWorkload) setup(b *bench) error {
	m, err := model.New(w.cfg)
	if err != nil {
		return err
	}
	w.m = m
	// Warm up on the 5-node quotient: the same canonicalizer, claim path
	// and sealed tier at a twentieth of the scale.
	warm := w.cfg
	warm.Nodes--
	sm, err := model.New(warm)
	if err != nil {
		return err
	}
	_, err = mc.CheckTransitionInvariantBytes(sm, sm.PropertyBytes(), mc.Options{Workers: b.workers})
	return err
}

func (w *verifyWorkload) prepare(*bench, *tally) {}

func (w *verifyWorkload) pass(b *bench, t *tally) {
	res, st, _, err := b.search(w.m, mc.Options{})
	t.op(firstErr(err, w.pin.check(res, st)))
}

// paperSearch is one of the paper's oracle-mode searches.
type paperSearch struct {
	cfg    model.Config
	pin    searchPin
	render bool // E2/E3: the counterexample is rendered as prose
	m      *model.Model
}

// paperOut is what one search of the paper workload produced.
type paperOut struct {
	res      mc.Result
	rendered string
}

// paperWorkload is paper: the E1 matrix plus the E2 and E3 traces. Its
// untraced pass calls the experiments entry points; its traced pass
// issues the same searches itself — the entry points build their own
// models, which the model seam cannot wrap — and checks them against the
// entry points' output.
type paperWorkload struct {
	searches []*paperSearch
	ref      []paperOut // the last untraced pass's output
}

func newPaper() *paperWorkload {
	e1 := func(a guardian.Authority, pin searchPin) *paperSearch {
		return &paperSearch{cfg: model.Config{Authority: a}, pin: pin}
	}
	holds := searchPin{holds: true, states: 34920}
	fs := guardian.AuthorityFullShift
	return &paperWorkload{searches: []*paperSearch{
		e1(guardian.AuthorityPassive, holds),
		e1(guardian.AuthorityTimeWindows, holds),
		e1(guardian.AuthoritySmallShift, holds),
		e1(fs, searchPin{states: 22994, traceLen: 13}),
		{cfg: model.Config{Authority: fs, MaxOutOfSlot: 1}, render: true,
			pin: searchPin{states: 98401, transitions: 223791, traceLen: 18}},
		{cfg: model.Config{Authority: fs, NoColdStartReplay: true}, render: true,
			pin: searchPin{states: 30458, transitions: 84203, traceLen: 19}},
	}}
}

func (w *paperWorkload) setup(b *bench) error {
	for _, s := range w.searches {
		m, err := model.New(s.cfg)
		if err != nil {
			return err
		}
		s.m = m
	}
	// Warm up on every search once: the same oracle-mode paths, with and
	// without a counterexample.
	for _, s := range w.searches {
		if _, err := mc.CheckTransitionInvariantBytes(s.m, s.m.PropertyBytes(),
			mc.Options{Workers: b.workers, NoReduce: true}); err != nil {
			return err
		}
	}
	return nil
}

func (w *paperWorkload) prepare(*bench, *tally) {}

func (w *paperWorkload) pass(b *bench, t *tally) {
	if b.tr != nil {
		w.tracedPass(b, t)
		return
	}
	opts := mc.Options{Workers: b.workers, NoReduce: true}
	out := make([]paperOut, len(w.searches))
	errs := make([]error, len(w.searches))
	rows, err := experiments.VerificationMatrix(opts)
	for i := 0; i < 4; i++ {
		switch {
		case err != nil:
			errs[i] = err
		case len(rows) != 4 || rows[i].Authority != w.searches[i].cfg.Authority:
			errs[i] = fmt.Errorf("matrix rows out of order")
		default:
			out[i].res = rows[i].Result
		}
	}
	for i, f := range []func(mc.Options) (experiments.TraceResult, error){
		experiments.ColdStartReplayTrace, experiments.CStateReplayTrace,
	} {
		tr, err := f(opts)
		out[4+i] = paperOut{tr.Result, tr.Rendered}
		errs[4+i] = err
		if err == nil && tr.Rendered == "" {
			errs[4+i] = fmt.Errorf("counterexample not rendered")
		}
	}
	for i, s := range w.searches {
		t.op(firstErr(errs[i], s.pin.check(out[i].res, mc.Stats{})))
	}
	w.ref = out
}

func (w *paperWorkload) tracedPass(b *bench, t *tally) {
	for i, s := range w.searches {
		res, st, _, err := b.search(s.m, mc.Options{NoReduce: true})
		err = firstErr(err, s.pin.check(res, st))
		rendered := ""
		if err == nil && s.render {
			rendered = b.tr.render(func() string { return trace.Render(s.m, res.Counterexample) })
		}
		if err == nil && w.ref != nil {
			err = sameResult(res, w.ref[i].res)
			if err == nil && rendered != w.ref[i].rendered {
				err = fmt.Errorf("rendered trace differs from the entry point's")
			}
		}
		t.op(err)
	}
}

// distWorkload is dist-recover: the 5-node oracle check across pipe
// workers, with one worker killed mid-search and respawned from its
// barrier snapshots.
type distWorkload struct {
	cfg     model.Config
	workers int
	pin     searchPin
	m       *model.Model
	ref     mc.Result // the in-process engine's result
	swifi   string
	level   int // the level the kill hits
}

func newDist() *distWorkload {
	return &distWorkload{
		cfg:     model.Config{Authority: guardian.AuthoritySmallShift, Nodes: 5},
		workers: 2,
		pin:     searchPin{holds: true, states: 614_424, transitions: 2_113_122},
	}
}

// buildTTA is the dist model builder: it rebuilds a model from its spec
// and, during traced passes, hands the pipe worker the traced model and
// property.
func (b *bench) buildTTA(payload string) (dist.ModelSpec, error) {
	var cfg model.Config
	if err := json.Unmarshal([]byte(payload), &cfg); err != nil {
		return dist.ModelSpec{}, fmt.Errorf("tta spec: %w", err)
	}
	m, err := model.New(cfg)
	if err != nil {
		return dist.ModelSpec{}, fmt.Errorf("tta spec: %w", err)
	}
	if tr := b.tr; tr != nil {
		return dist.ModelSpec{Model: &tracedModel{Model: m, tr: tr}, TrInv: tr.property(m.PropertyBytes())}, nil
	}
	return dist.ModelSpec{Model: m, TrInv: m.PropertyBytes()}, nil
}

func (w *distWorkload) setup(b *bench) error {
	dist.RegisterModel("tta", b.buildTTA)
	m, err := model.New(w.cfg)
	if err != nil {
		return err
	}
	w.m = m
	// Warm up one fleet on the first warmDepth levels of the same search:
	// worker start, model rebuild, the mesh and the level barriers, with
	// no kill. A whole smaller model would be over in a tenth of a second,
	// too short to time steadily on a shared host.
	const warmDepth = 10
	dir, err := os.MkdirTemp(b.workDir, "snap-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ck := &dist.Checker{Opts: dist.Options{Workers: w.workers, Launcher: dist.NewPipeLauncher(), SnapshotDir: dir}}
	_, err = mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), mc.Options{NoReduce: true, MaxDepth: warmDepth, Dist: ck})
	return err
}

// killPlan picks the worker and the level a seed's kill hits: one of
// the killBand levels at the middle of a search depth levels deep. The
// band is narrow because recovery replays the snapshots of every level
// before the kill, so a wider band would make the pass's work — not just
// its inputs — depend on the seed.
func killPlan(seed uint64, workers, depth int) (worker, level int) {
	const killBand = 4
	h := sim.Mix(seed, 0xd157)
	return int(h % uint64(workers)), max(depth/2-1, 1) + int(h/uint64(workers)%killBand)
}

// prepare runs the in-process reference the dist result must equal, and
// plans the kill from the seed.
func (w *distWorkload) prepare(b *bench, t *tally) {
	ref, err := mc.CheckTransitionInvariantBytes(w.m, w.m.PropertyBytes(),
		mc.Options{Workers: b.workers, NoReduce: true})
	t.op(firstErr(err, w.pin.check(ref, mc.Stats{})))
	w.ref = ref
	worker, level := killPlan(b.seed, w.workers, ref.Depth)
	w.level = level
	w.swifi = fmt.Sprintf("kill@worker=%d@level=%d", worker, level)
}

func (w *distWorkload) pass(b *bench, t *tally) {
	dir, err := os.MkdirTemp(b.workDir, "snap-")
	if err != nil {
		t.op(err)
		return
	}
	defer os.RemoveAll(dir)
	var launcher dist.Launcher = dist.NewPipeLauncher()
	var tl *tracedLauncher
	if b.tr != nil {
		tl = &tracedLauncher{Launcher: launcher, now: b.tr.now}
		launcher = tl
	}
	ck := &dist.Checker{Opts: dist.Options{
		Workers: w.workers, Launcher: launcher, SnapshotDir: dir, Swifi: w.swifi,
	}}
	res, st, walls, err := b.search(w.m, mc.Options{NoReduce: true, Dist: ck})
	rep := ck.Report()
	err = firstErr(err, w.pin.check(res, st), sameResult(res, w.ref))
	if err == nil && (rep.Respawns != 1 || rep.Takeovers != 0) {
		err = fmt.Errorf("recovery after %s: %d respawns, %d takeovers; want 1, 0",
			w.swifi, rep.Respawns, rep.Takeovers)
	}
	t.op(err)
	if tl != nil {
		b.layers.dist.add(rep, tl, walls, w.level, dirBytes(dir))
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
