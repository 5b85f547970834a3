package dist

// End-to-end tests of the distributed checker against the in-process
// engine: the contract under test is byte-identical Results — verdict,
// counts, depth, counterexample — for any worker count, with and without
// injected worker crashes. Workers run as in-process goroutines
// (pipeLauncher) linked to the coordinator over net.Pipe and to each
// other over the Unix-socket mesh that subprocess workers use, so the
// full protocol is exercised without forking.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ttastar/internal/guardian"
	"ttastar/internal/mc"
	"ttastar/internal/model"
)

// graphModel is the test fixture: states 0..N-1 (2-byte encodings),
// three successor maps that reach every residue from 0 within depth ~9
// (probed for N=300), and a designated Target state whose visit (state
// invariant) or entry (transition invariant) is the violation. Target
// outside [0,N) makes either invariant hold.
type graphModel struct {
	N      int `json:"n"`
	Target int `json:"target"`
}

func (g graphModel) enc(x int) mc.State {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], uint16(x))
	return mc.State(b[:])
}

func gmDecode(enc []byte) int { return int(binary.BigEndian.Uint16(enc)) }

func (g graphModel) Initial() []mc.State { return []mc.State{g.enc(0)} }

func (g graphModel) Successors(s mc.State) []mc.State {
	x := gmDecode([]byte(s))
	return []mc.State{
		g.enc((x + 1) % g.N),
		g.enc((2 * x) % g.N),
		g.enc((5*x + 3) % g.N),
	}
}

func (g graphModel) DistSpec() (string, string) {
	p, _ := json.Marshal(g)
	return "distgraph", string(p)
}

func (g graphModel) Fingerprint() uint64 {
	return 0x9e3779b97f4a7c15 ^ uint64(g.N)<<16 ^ uint64(g.Target+1)
}

func (g graphModel) stInvBytes() mc.StateInvariantBytes {
	target := g.Target
	return func(enc []byte) bool { return gmDecode(enc) != target }
}

func (g graphModel) trInvBytes() mc.TransitionInvariantBytes {
	target := g.Target
	return func(from, to []byte) bool { return gmDecode(to) != target }
}

// invariants returns the state invariant when st, else the transition
// invariant.
func (g graphModel) invariants(st bool) (mc.StateInvariantBytes, mc.TransitionInvariantBytes) {
	if st {
		return g.stInvBytes(), nil
	}
	return nil, g.trInvBytes()
}

func invKind(st bool) string {
	if st {
		return "st"
	}
	return "tr"
}

func init() {
	RegisterModel("distgraph", func(payload string) (ModelSpec, error) {
		var g graphModel
		if err := json.Unmarshal([]byte(payload), &g); err != nil {
			return ModelSpec{}, err
		}
		return ModelSpec{Model: g, StInv: g.stInvBytes(), TrInv: g.trInvBytes()}, nil
	})
	// The production model, registered exactly as cmd/ttamc registers it,
	// so reduced/concretized searches are covered in-process too.
	RegisterModel("tta", func(payload string) (ModelSpec, error) {
		var cfg model.Config
		if err := json.Unmarshal([]byte(payload), &cfg); err != nil {
			return ModelSpec{}, err
		}
		m, err := model.New(cfg)
		if err != nil {
			return ModelSpec{}, err
		}
		return ModelSpec{Model: m, TrInv: m.PropertyBytes()}, nil
	})
}

// runEngine is the oracle: the in-process engine on the same options.
func runEngine(t *testing.T, m mc.Model, stInv mc.StateInvariantBytes,
	trInv mc.TransitionInvariantBytes, opts mc.Options) (mc.Result, error) {
	t.Helper()
	if stInv != nil {
		return mc.CheckInvariantBytes(m, stInv, opts)
	}
	return mc.CheckTransitionInvariantBytes(m, trInv, opts)
}

// runDist runs the distributed checker over pipe workers.
func runDist(t *testing.T, m mc.Model, stInv mc.StateInvariantBytes,
	trInv mc.TransitionInvariantBytes, opts mc.Options, dopts Options) (mc.Result, Report, error) {
	t.Helper()
	if dopts.Launcher == nil {
		dopts.Launcher = newPipeLauncher()
	}
	if dopts.SnapshotDir == "" {
		dopts.SnapshotDir = t.TempDir()
	}
	ck := &Checker{Opts: dopts}
	opts.Dist = ck
	res, err := runEngine(t, m, stInv, trInv, opts)
	return res, ck.Report(), err
}

// requireIdentical asserts the distributed Result matches the engine's
// field for field.
func requireIdentical(t *testing.T, got, want mc.Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("distributed result diverges from engine:\n got %+v\nwant %+v", got, want)
	}
}

func TestDistMatchesEngine(t *testing.T) {
	cases := []struct {
		name string
		g    graphModel
		st   bool // state invariant (else transition invariant)
	}{
		{"st-holds", graphModel{N: 300, Target: 300}, true},
		{"tr-holds", graphModel{N: 300, Target: 300}, false},
		{"st-fails", graphModel{N: 300, Target: 97}, true},
		{"tr-fails", graphModel{N: 300, Target: 97}, false},
		{"tr-fails-deep", graphModel{N: 300, Target: 211}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stInv mc.StateInvariantBytes
			var trInv mc.TransitionInvariantBytes
			if tc.st {
				stInv = tc.g.stInvBytes()
			} else {
				trInv = tc.g.trInvBytes()
			}
			// observed runs a check with Progress and Stats hooked.
			observed := func(run func(mc.Options) (mc.Result, error)) (mc.Result, []mc.Progress, mc.Stats) {
				t.Helper()
				var prog []mc.Progress
				var st mc.Stats
				res, err := run(mc.Options{
					Progress: func(p mc.Progress) { prog = append(prog, p) },
					Stats:    func(s mc.Stats) { st = s },
				})
				if err != nil {
					t.Fatal(err)
				}
				return res, prog, st
			}
			want, wantProg, wantSt := observed(func(o mc.Options) (mc.Result, error) {
				return runEngine(t, tc.g, stInv, trInv, o)
			})
			for _, workers := range []int{1, 2, 5} {
				got, prog, st := observed(func(o mc.Options) (mc.Result, error) {
					res, _, err := runDist(t, tc.g, stInv, trInv, o, Options{Workers: workers})
					return res, err
				})
				requireIdentical(t, got, want)
				if !reflect.DeepEqual(prog, wantProg) {
					t.Fatalf("dist workers=%d Progress diverges from engine:\n got %+v\nwant %+v", workers, prog, wantProg)
				}
				if st.Levels != wantSt.Levels || st.PeakFrontier != wantSt.PeakFrontier {
					t.Fatalf("dist workers=%d Stats: %d levels, peak frontier %d; engine %d, %d",
						workers, st.Levels, st.PeakFrontier, wantSt.Levels, wantSt.PeakFrontier)
				}
			}
		})
	}
}

// TestDistMatchesEngineTTAModel: the TTA model's check, reduced and
// oracle, on the 3-node passive cluster (3 workers) and the reduced
// 4-node small-shifting one (2 and 4 workers) equals the engine's.
func TestDistMatchesEngineTTAModel(t *testing.T) {
	for _, tc := range []struct {
		cfg       model.Config
		workers   []int
		noReduces []bool
	}{
		{model.Config{Nodes: 3, Authority: guardian.AuthorityPassive}, []int{3}, []bool{false, true}},
		{model.Config{Nodes: 4, Authority: guardian.AuthoritySmallShift}, []int{2, 4}, []bool{false}},
	} {
		m, err := model.New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, noReduce := range tc.noReduces {
			opts := mc.Options{NoReduce: noReduce}
			want, err := runEngine(t, m, nil, m.PropertyBytes(), opts)
			if err != nil {
				t.Fatalf("%+v engine (noReduce=%v): %v", tc.cfg, noReduce, err)
			}
			if noReduce == want.Reduced {
				t.Fatalf("reduction gate mismatch: noReduce=%v but Reduced=%v", noReduce, want.Reduced)
			}
			for _, workers := range tc.workers {
				got, _, err := runDist(t, m, nil, m.PropertyBytes(), opts, Options{Workers: workers})
				if err != nil {
					t.Fatalf("%+v dist workers=%d (noReduce=%v): %v", tc.cfg, workers, noReduce, err)
				}
				requireIdentical(t, got, want)
			}
		}
	}
}

// TestDistKillRespawn is the kill matrix: named scenarios plus a sweep
// of 2–4 workers × every victim × kill level × target × invariant kind,
// each recovered by respawn and identical to the engine. Under -short
// the sweep keeps one victim per worker count.
func TestDistKillRespawn(t *testing.T) {
	type killCase struct {
		name    string
		workers int
		g       graphModel
		st      bool
		swifi   string
		levels  []int // levels the swifi kills at
	}
	cases := []killCase{
		{"kill-mid-holds", 3, graphModel{N: 300, Target: 300}, false, "kill@worker=1@level=3", []int{3}},
		{"kill-early-fails", 3, graphModel{N: 300, Target: 97}, false, "kill@worker=0@level=1", []int{1}},
		{"kill-st-fails", 3, graphModel{N: 300, Target: 97}, true, "kill@worker=2@level=2", []int{2}},
		{"double-kill", 3, graphModel{N: 300, Target: 300}, false,
			"kill@worker=0@level=2,kill@worker=2@level=4", []int{2, 4}},
	}
	for workers := 2; workers <= 4; workers++ {
		for victim := 0; victim < workers; victim++ {
			if testing.Short() && victim != 1 {
				continue
			}
			for _, level := range []int{0, 1, 2, 3, 4, 6} {
				for _, target := range []int{300, 97} {
					for _, st := range []bool{false, true} {
						cases = append(cases, killCase{
							name:    fmt.Sprintf("w%d-v%d-l%d-t%d-%s", workers, victim, level, target, invKind(st)),
							workers: workers,
							g:       graphModel{N: 300, Target: target},
							st:      st,
							swifi:   fmt.Sprintf("kill@worker=%d@level=%d", victim, level),
							levels:  []int{level},
						})
					}
				}
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stInv, trInv := tc.g.invariants(tc.st)
			var levels int
			want, err := runEngine(t, tc.g, stInv, trInv, mc.Options{Stats: func(s mc.Stats) { levels = s.Levels }})
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			got, rep, err := runDist(t, tc.g, stInv, trInv, mc.Options{},
				Options{Workers: tc.workers, Swifi: tc.swifi, Log: t.Logf})
			if err != nil {
				t.Fatalf("dist: %v", err)
			}
			requireIdentical(t, got, want)
			// A kill fires when its worker receives that level's Expand:
			// levels 1..levels are expanded, level 0 never is. Every
			// recovery is priced, the one at the level holding the
			// violation too.
			kills := 0
			for _, l := range tc.levels {
				if l >= 1 && l <= levels {
					kills++
				}
			}
			if rep.Respawns != kills || rep.Takeovers != 0 {
				t.Fatalf("report: %d respawns %d takeovers, want %d/0", rep.Respawns, rep.Takeovers, kills)
			}
			if len(rep.Recoveries) != kills {
				t.Fatalf("recoveries: %d entries, want %d", len(rep.Recoveries), kills)
			}
			var budget uint64
			for _, rec := range rep.Recoveries {
				budget += rec.SlotTransitions
			}
			// The price of recovery is exactly the redone levels.
			if rep.ReexpandedTransitions != budget || rep.WorkTransitions != rep.GeneratedTransitions+budget {
				t.Fatalf("reexpanded %d, work %d, generated %d: want the %d priced by recoveries on top",
					rep.ReexpandedTransitions, rep.WorkTransitions, rep.GeneratedTransitions, budget)
			}
			// On HOLDS the ledger's logical total equals the engine's
			// count; a FAILS run truncates TransitionsExplored at the
			// violation while the ledger still counts the whole level.
			if want.Holds && rep.GeneratedTransitions != uint64(want.TransitionsExplored) {
				t.Fatalf("generated %d, want the engine's %d", rep.GeneratedTransitions, want.TransitionsExplored)
			}
			if !want.Holds && rep.GeneratedTransitions < uint64(want.TransitionsExplored) {
				t.Fatalf("generated %d, below the engine's %d", rep.GeneratedTransitions, want.TransitionsExplored)
			}
		})
	}
}

// TestDistRecoveryLedgerDeterministic: a level-L kill has one price.
// The ledger — respawns, recoveries and the transition totals — is the
// same across repeated runs and across 1, 2 and 3 workers, and the
// recovery costs exactly the engine's transitions at level L. It holds
// for a kill mid-search and for one at the level whose violation ends
// the search.
func TestDistRecoveryLedgerDeterministic(t *testing.T) {
	// The engine's cumulative transitions per depth. Successor lists do
	// not depend on the target, and a violating transition is still
	// counted, so the HOLDS run prices every level, a violating one too.
	trans := map[int]int{}
	holds := graphModel{N: 300, Target: 300}
	if _, err := runEngine(t, holds, nil, holds.trInvBytes(), mc.Options{
		Progress: func(p mc.Progress) { trans[p.Depth] = p.Transitions }}); err != nil {
		t.Fatalf("engine: %v", err)
	}
	for _, target := range []int{300, 97} {
		g := graphModel{N: 300, Target: target}
		var levels int
		want, err := runEngine(t, g, nil, g.trInvBytes(), mc.Options{Stats: func(s mc.Stats) { levels = s.Levels }})
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		level := 3
		if !want.Holds {
			level = levels
		}
		t.Run(fmt.Sprintf("t%d-l%d", target, level), func(t *testing.T) {
			var first *Report
			for _, workers := range []int{1, 2, 3} {
				for run := 0; run < 3; run++ {
					got, rep, err := runDist(t, g, nil, g.trInvBytes(), mc.Options{},
						Options{Workers: workers, Swifi: fmt.Sprintf("kill@worker=0@level=%d", level)})
					if err != nil {
						t.Fatalf("workers=%d run %d: %v", workers, run, err)
					}
					requireIdentical(t, got, want)
					rep.Frames, rep.BytesOnWire = 0, 0 // traffic depends on the fleet size
					if first == nil {
						first = &rep
						continue
					}
					if !reflect.DeepEqual(rep, *first) {
						t.Fatalf("workers=%d run %d ledger %+v, first run's %+v", workers, run, rep, *first)
					}
				}
			}
			rec := Recovery{Level: int32(level), Worker: 0, SlotTransitions: uint64(trans[level] - trans[level-1])}
			if first.Respawns != 1 || !reflect.DeepEqual(first.Recoveries, []Recovery{rec}) ||
				first.ReexpandedTransitions != rec.SlotTransitions ||
				first.WorkTransitions != first.GeneratedTransitions+rec.SlotTransitions {
				t.Fatalf("ledger %+v, want one recovery %+v priced on top of the generated work", *first, rec)
			}
		})
	}
}

// closingLauncher starts one worker index in every generation ≥ 1 with
// its connection already closed, so each restart of it dies on arrival.
type closingLauncher struct {
	Launcher
	index int
}

func (l closingLauncher) Start(index, gen int) (io.ReadWriteCloser, error) {
	conn, err := l.Launcher.Start(index, gen)
	if err == nil && index == l.index && gen >= 1 {
		conn.Close()
	}
	return conn, err
}

// TestDistKillTakeover: a worker that keeps dying is recovered exactly
// maxRespawns times and then refused — its shards are never taken over
// by a survivor. Every recovery is booked, the ones still open at the
// refusal with 0 transitions, since their redone level was never
// collected; and the run's checkpoint chain is left intact at the last
// closed barrier.
func TestDistKillTakeover(t *testing.T) {
	g := graphModel{N: 300, Target: 97}
	dir := t.TempDir()
	_, rep, err := runDist(t, g, nil, g.trInvBytes(), mc.Options{},
		Options{Workers: 3, Swifi: "kill@worker=1@level=3", SnapshotDir: dir, Log: t.Logf,
			Launcher: closingLauncher{Launcher: newPipeLauncher(), index: 1}})
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("dist: %v, want ErrUnrecoverable", err)
	}
	if !strings.Contains(err.Error(), "worker 1 at level 3") {
		t.Fatalf("refusal %q does not name the worker and level", err)
	}
	if rep.Respawns != maxRespawns || rep.Takeovers != 0 {
		t.Fatalf("report: %d respawns %d takeovers, want %d/0", rep.Respawns, rep.Takeovers, maxRespawns)
	}
	rec := Recovery{Level: 3, Worker: 1}
	if len(rep.Recoveries) != rep.Respawns || rep.Recoveries[0] != rec || rep.Recoveries[1] != rec {
		t.Fatalf("recoveries %+v, want %d of %+v", rep.Recoveries, rep.Respawns, rec)
	}
	requireChain(t, filepath.Join(dir, "chain.mc"), 3, 2)
}

// requireChain restores the checkpoint chain at manifest as every
// worker of a fleet of n would, and requires its barrier at depth.
func requireChain(t *testing.T, manifest string, n int, depth int32) {
	t.Helper()
	c, err := mc.OpenChain(manifest)
	if err != nil || c == nil || c.Depth != depth {
		t.Fatalf("chain %s: %v (nil=%v), want the barrier at depth %d", manifest, err, c == nil, depth)
	}
	for w := 0; w < n; w++ {
		owned := uint64(0)
		for s := w; s < mc.NumShards; s += n {
			owned |= 1 << s
		}
		if _, err := mc.NewShardStore(0, owned).Resume(c); err != nil {
			t.Fatalf("worker %d of %d cannot restore the chain: %v", w, n, err)
		}
	}
}

// blockSegment makes worker victim's level-level segment write fail: a
// non-empty directory squats on the file name, so the atomic rename
// fails with an error no retry absorbs. It returns the squat's path.
func blockSegment(t *testing.T, dir string, victim, level int) string {
	t.Helper()
	block, _ := mc.BarrierFiles(filepath.Join(dir, "chain.mc"), victim, int32(level))
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(block, "squat"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return block
}

// unblockingLauncher removes a squat once a later fleet generation
// starts: the write it blocks fails in generation 0 only.
type unblockingLauncher struct {
	Launcher
	squat string
}

func (l unblockingLauncher) Start(index, gen int) (io.ReadWriteCloser, error) {
	if fi, err := os.Stat(l.squat); err == nil && fi.IsDir() && gen > 0 {
		os.RemoveAll(l.squat)
	}
	return l.Launcher.Start(index, gen)
}

// TestDistSnapshotGapRefused: a worker whose barrier files cannot be
// written dies, and the one recovery rule restarts the fleet from the
// last closed barrier — so no worker's chain ever has a gap to refuse.
//   - A segment blocked in generation 0 only costs one respawn, priced
//     at its level and worker, and the result equals the engine's.
//   - -peer: a peer's segment blocked so, then the victim killed a level
//     later — a death after a failed write, refused before — costs two
//     respawns, and the result equals the engine's.
//   - -repaired: the victim's own segment blocked so, then the victim
//     killed two levels later: two respawns, the engine's result.
//   - -refused: a segment blocked for good kills its worker in every
//     generation, so the run is refused with ErrUnrecoverable for the
//     spent respawn budget, naming that worker and level, with the chain
//     left intact at the barrier before.
func TestDistSnapshotGapRefused(t *testing.T) {
	g := graphModel{N: 300, Target: 300}
	for workers := 2; workers <= 4; workers++ {
		for _, p := range []struct{ victim, level int }{{1, 1}, {1, 2}, {0, 3}} {
			for _, st := range []bool{false, true} {
				stInv, trInv := g.invariants(st)
				want, err := runEngine(t, g, stInv, trInv, mc.Options{})
				if err != nil {
					t.Fatalf("engine: %v", err)
				}
				// recovered runs the check with worker blocked's segment
				// of level p.level blocked in generation 0 and the swifi
				// script, and requires the engine's result and recs,
				// each priced.
				recovered := func(t *testing.T, blocked int, swifi string, recs ...Recovery) {
					dir := t.TempDir()
					squat := blockSegment(t, dir, blocked, p.level)
					got, rep, err := runDist(t, g, stInv, trInv, mc.Options{},
						Options{Workers: workers, SnapshotDir: dir, Swifi: swifi, Log: t.Logf,
							Launcher: unblockingLauncher{Launcher: newPipeLauncher(), squat: squat}})
					if err != nil {
						t.Fatalf("dist: %v", err)
					}
					requireIdentical(t, got, want)
					if rep.Respawns != len(recs) || len(rep.Recoveries) != len(recs) {
						t.Fatalf("report %+v, want the recoveries %+v", rep, recs)
					}
					for i, rec := range recs {
						if got := rep.Recoveries[i]; got.Level != rec.Level || got.Worker != rec.Worker || got.SlotTransitions == 0 {
							t.Fatalf("recovery %d: %+v, want %+v priced", i, got, rec)
						}
					}
				}
				name := fmt.Sprintf("w%d-v%d-l%d-%s", workers, p.victim, p.level, invKind(st))
				t.Run(name, func(t *testing.T) {
					recovered(t, p.victim, "", Recovery{Level: int32(p.level), Worker: p.victim})
				})
				t.Run(name+"-peer", func(t *testing.T) {
					peer := (p.victim + 1) % workers
					recovered(t, peer, fmt.Sprintf("kill@worker=%d@level=%d", p.victim, p.level+1),
						Recovery{Level: int32(p.level), Worker: peer}, Recovery{Level: int32(p.level + 1), Worker: p.victim})
				})
				t.Run(name+"-repaired", func(t *testing.T) {
					recovered(t, p.victim, fmt.Sprintf("kill@worker=%d@level=%d", p.victim, p.level+2),
						Recovery{Level: int32(p.level), Worker: p.victim}, Recovery{Level: int32(p.level + 2), Worker: p.victim})
				})
				t.Run(name+"-refused", func(t *testing.T) {
					dir := t.TempDir()
					blockSegment(t, dir, p.victim, p.level)
					_, rep, err := runDist(t, g, stInv, trInv, mc.Options{},
						Options{Workers: workers, SnapshotDir: dir, Log: t.Logf})
					if !errors.Is(err, ErrUnrecoverable) || !strings.Contains(err.Error(), "respawn budget") {
						t.Fatalf("segment blocked for good: %v, want ErrUnrecoverable (respawn budget)", err)
					}
					if at := fmt.Sprintf("worker %d at level %d:", p.victim, p.level); !strings.Contains(err.Error(), at) {
						t.Fatalf("refusal %q does not name %q", err, at)
					}
					if rep.Respawns != maxRespawns || len(rep.Recoveries) != maxRespawns {
						t.Fatalf("report %+v, want %d booked recoveries", rep, maxRespawns)
					}
					requireChain(t, filepath.Join(dir, "chain.mc"), workers, int32(p.level-1))
				})
			}
		}
	}
}

// frameTap relays a coordinator-side worker connection frame by frame,
// showing each frame to see before the coordinator reads it; an error
// from see ends the connection instead.
type frameTap struct {
	io.ReadWriteCloser
	see  func(typ byte, payload []byte) error
	rest []byte
}

func (t *frameTap) Read(p []byte) (int, error) {
	if len(t.rest) == 0 {
		typ, payload, err := readFrame(t.ReadWriteCloser)
		if err == nil {
			err = t.see(typ, payload)
		}
		if err != nil {
			return 0, err
		}
		var b bytes.Buffer
		writeFrame(&b, typ, payload)
		t.rest = b.Bytes()
	}
	n := copy(p, t.rest)
	t.rest = t.rest[n:]
	return n, nil
}

// sealPhaseLauncher kills worker 1 in the seal phase of level: it
// closes worker 1's first connection once the coordinator has read
// worker 0's LevelReport for the level, and holds worker 1's own report
// of it back, so the barrier cannot close first. At that moment worker
// 0's segment of the level is complete; it is hard-linked to first.
type sealPhaseLauncher struct {
	Launcher
	level      int32
	dir, first string

	mu       sync.Mutex
	w1       io.Closer
	reported chan struct{}
}

func (l *sealPhaseLauncher) Start(index, gen int) (io.ReadWriteCloser, error) {
	conn, err := l.Launcher.Start(index, gen)
	if err != nil || gen > 0 || index > 1 {
		return conn, err
	}
	isReport := func(typ byte, payload []byte) bool {
		m, err := decodeLevelReport(payload)
		return typ == mtLevelReport && err == nil && m.Level == l.level
	}
	if index == 1 {
		l.mu.Lock()
		l.w1 = conn
		l.mu.Unlock()
		return &frameTap{ReadWriteCloser: conn, see: func(typ byte, payload []byte) error {
			if isReport(typ, payload) {
				select {
				case <-l.reported:
				case <-time.After(10 * time.Second):
				}
				return io.ErrClosedPipe
			}
			return nil
		}}, nil
	}
	return &frameTap{ReadWriteCloser: conn, see: func(typ byte, payload []byte) error {
		if isReport(typ, payload) {
			seg, _ := mc.BarrierFiles(filepath.Join(l.dir, "chain.mc"), 0, l.level)
			if err := os.Link(seg, l.first); err != nil {
				return err
			}
			l.mu.Lock()
			l.w1.Close()
			l.mu.Unlock()
			close(l.reported)
		}
		return nil
	}}, nil
}

// TestDistDeathInSealPhase: a worker that dies after a peer has already
// closed the level — written its barrier files and reported it — makes
// the whole fleet redo the level. The result equals the engine's, and
// the peer's rewritten segment is byte-identical to its first write.
func TestDistDeathInSealPhase(t *testing.T) {
	g := graphModel{N: 300, Target: 300}
	want, err := runEngine(t, g, nil, g.trInvBytes(), mc.Options{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	for _, workers := range []int{2, 3} {
		for _, level := range []int32{0, 3} {
			t.Run(fmt.Sprintf("w%d-l%d", workers, level), func(t *testing.T) {
				dir := t.TempDir()
				l := &sealPhaseLauncher{Launcher: newPipeLauncher(), level: level, dir: dir,
					first: filepath.Join(t.TempDir(), "first.mc"), reported: make(chan struct{})}
				got, rep, err := runDist(t, g, nil, g.trInvBytes(), mc.Options{},
					Options{Workers: workers, SnapshotDir: dir, Launcher: l, Log: t.Logf})
				if err != nil {
					t.Fatalf("dist: %v", err)
				}
				requireIdentical(t, got, want)
				if rep.Respawns != 1 || len(rep.Recoveries) != 1 || rep.Recoveries[0].Level != level {
					t.Fatalf("report %+v, want one recovery at level %d", rep, level)
				}
				// The new generation re-expands the whole level, and that
				// level is the price.
				if rec := rep.Recoveries[0]; rep.ReexpandedTransitions != rec.SlotTransitions ||
					rep.WorkTransitions != rep.GeneratedTransitions+rec.SlotTransitions ||
					(level > 0 && rec.SlotTransitions == 0) {
					t.Fatalf("reexpanded %d, work %d, generated %d transitions, want the redone level's %d on top",
						rep.ReexpandedTransitions, rep.WorkTransitions, rep.GeneratedTransitions, rec.SlotTransitions)
				}
				first, err := os.ReadFile(l.first)
				if err != nil {
					t.Fatal(err)
				}
				path, _ := mc.BarrierFiles(filepath.Join(dir, "chain.mc"), 0, level)
				again, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				fi1, err1 := os.Stat(l.first)
				fi2, err2 := os.Stat(path)
				if err1 != nil || err2 != nil || os.SameFile(fi1, fi2) {
					t.Fatalf("worker 0's level-%d file was not rewritten (%v, %v)", level, err1, err2)
				}
				if !bytes.Equal(first, again) {
					t.Fatalf("worker 0's rewritten level-%d file (%d bytes) differs from its first write (%d bytes)",
						level, len(again), len(first))
				}
			})
		}
	}
}

func TestDistFlakyAndSlowWrites(t *testing.T) {
	g := graphModel{N: 300, Target: 300}
	want, err := runEngine(t, g, nil, g.trInvBytes(), mc.Options{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	got, rep, err := runDist(t, g, nil, g.trInvBytes(), mc.Options{},
		Options{Workers: 2,
			Swifi: "flakywrite@worker=0@level=1@fails=3,slowwrite@worker=1@level=2@delay=1ms"})
	if err != nil {
		t.Fatalf("dist: %v", err)
	}
	requireIdentical(t, got, want)
	// The bounded-backoff retry absorbs the injected failures: no
	// recovery machinery fires, nothing is re-expanded.
	if rep.Respawns != 0 || rep.Takeovers != 0 || rep.ReexpandedTransitions != 0 {
		t.Fatalf("writes should be retried, not recovered: %+v", rep)
	}
}

// TestDistWritePastRetriesIsDeath: a worker whose writes keep failing
// past the retry budget dies and is recovered by one fleet restart. It
// used to live on without the dropped control message, and the
// coordinator waited for it for ever.
func TestDistWritePastRetriesIsDeath(t *testing.T) {
	g := graphModel{N: 300, Target: 300}
	want, err := runEngine(t, g, nil, g.trInvBytes(), mc.Options{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	got, rep, err := runDist(t, g, nil, g.trInvBytes(), mc.Options{},
		Options{Workers: 2, Swifi: "flakywrite@worker=0@level=2@fails=50", Log: t.Logf})
	if err != nil {
		t.Fatalf("dist: %v", err)
	}
	requireIdentical(t, got, want)
	if rep.Respawns != 1 || len(rep.Recoveries) != 1 || rep.Recoveries[0].Level != 2 || rep.Recoveries[0].Worker != 0 {
		t.Fatalf("report %+v, want one recovery of worker 0 at level 2", rep)
	}
}

func TestDistStallDetectedAndRecovered(t *testing.T) {
	g := graphModel{N: 300, Target: 300}
	want, err := runEngine(t, g, nil, g.trInvBytes(), mc.Options{})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	got, rep, err := runDist(t, g, nil, g.trInvBytes(), mc.Options{},
		Options{Workers: 2, Swifi: "stall@worker=1@level=2@for=2s",
			HeartbeatInterval: 10 * time.Millisecond,
			HeartbeatDeadline: 150 * time.Millisecond,
			Log:               t.Logf})
	if err != nil {
		t.Fatalf("dist: %v", err)
	}
	requireIdentical(t, got, want)
	if rep.Respawns != 1 {
		t.Fatalf("stalled worker not respawned: %+v", rep)
	}
}

func TestDistStateLimit(t *testing.T) {
	g := graphModel{N: 300, Target: 300}
	opts := mc.Options{MaxStates: 50}
	want, wantErr := runEngine(t, g, nil, g.trInvBytes(), opts)
	if !errors.Is(wantErr, mc.ErrStateLimit) {
		t.Fatalf("engine: %v, want ErrStateLimit", wantErr)
	}
	// The budget is enforced per worker store (a documented divergence:
	// N workers admit at most N×MaxStates), so only the single-worker
	// run matches the engine's count exactly; any worker count still
	// fails with the same sentinel and at least the engine's coverage.
	for _, workers := range []int{1, 3} {
		got, _, err := runDist(t, g, nil, g.trInvBytes(), opts, Options{Workers: workers})
		if !errors.Is(err, mc.ErrStateLimit) {
			t.Fatalf("dist workers=%d: %v, want ErrStateLimit", workers, err)
		}
		if workers == 1 && got.StatesExplored != want.StatesExplored {
			t.Fatalf("dist workers=1 explored %d states at the limit, engine %d",
				got.StatesExplored, want.StatesExplored)
		}
		if got.StatesExplored < want.StatesExplored || got.StatesExplored > workers*opts.MaxStates {
			t.Fatalf("dist workers=%d explored %d states, outside [%d, %d]",
				workers, got.StatesExplored, want.StatesExplored, workers*opts.MaxStates)
		}
	}
}

// TestDistStatsOnStateLimit: a budget trip still reports Stats, once.
func TestDistStatsOnStateLimit(t *testing.T) {
	g := graphModel{N: 300, Target: 300}
	for _, dist := range []bool{false, true} {
		calls := 0
		opts := mc.Options{MaxStates: 50, Stats: func(mc.Stats) { calls++ }}
		var err error
		if dist {
			_, _, err = runDist(t, g, nil, g.trInvBytes(), opts, Options{Workers: 2})
		} else {
			_, err = runEngine(t, g, nil, g.trInvBytes(), opts)
		}
		if !errors.Is(err, mc.ErrStateLimit) {
			t.Fatalf("dist=%v: %v, want ErrStateLimit", dist, err)
		}
		if calls != 1 {
			t.Fatalf("dist=%v: Stats called %d times, want 1", dist, calls)
		}
	}
}

// TestDistDeadlineCause: a deadline that carries a cause is still a
// deadline, for the distributed search as for the engine.
func TestDistDeadlineCause(t *testing.T) {
	g := graphModel{N: 300, Target: 300}
	run := func(dist bool) (mc.Result, error) {
		ctx, cancel := context.WithTimeoutCause(context.Background(), 0, errors.New("budget spent"))
		defer cancel()
		opts := mc.Options{Context: ctx}
		if dist {
			res, _, err := runDist(t, g, nil, g.trInvBytes(), opts, Options{Workers: 2})
			return res, err
		}
		return runEngine(t, g, nil, g.trInvBytes(), opts)
	}
	want, err := run(false)
	if !errors.Is(err, mc.ErrDeadline) {
		t.Fatalf("engine: %v, want ErrDeadline", err)
	}
	got, err := run(true)
	if !errors.Is(err, mc.ErrDeadline) {
		t.Fatalf("dist: %v, want ErrDeadline", err)
	}
	requireIdentical(t, got, want)
}

// TestDistFallbackWalks: a spent budget degrades into the engine's
// seeded walks under dist too, finding the same counterexample. One
// worker reproduces the engine's whole Result; more workers only admit
// more states before the per-worker MaxStates trips. Resident bytes are
// summed over the stores (each pays the visited set's fixed per-shard
// tables), so the memory budget is spent at the first boundary, where
// every backend trips alike.
func TestDistFallbackWalks(t *testing.T) {
	g := graphModel{N: 300, Target: 211} // violation at depth 9
	cases := []struct {
		name string
		opts mc.Options
	}{
		{"max-states", mc.Options{MaxStates: 50}},
		{"mem-budget", mc.Options{MemBudget: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.FallbackWalks, opts.FallbackDepth, opts.FallbackSeed = 200, 64, 7
			want, err := runEngine(t, g, nil, g.trInvBytes(), opts)
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			if want.Holds || want.SampledWalks == 0 {
				t.Fatalf("engine did not find the violation by sampling: %+v", want)
			}
			for _, workers := range []int{1, 3} {
				got, _, err := runDist(t, g, nil, g.trInvBytes(), opts, Options{Workers: workers})
				if err != nil {
					t.Fatalf("dist workers=%d: %v", workers, err)
				}
				if workers == 1 {
					requireIdentical(t, got, want)
					continue
				}
				if !reflect.DeepEqual(got.Counterexample, want.Counterexample) || got.Holds ||
					got.SampledWalks != want.SampledWalks || got.SampledDepth != want.SampledDepth {
					t.Fatalf("dist workers=%d verdict diverges:\n got %+v\nwant %+v", workers, got, want)
				}
				if max := workers * opts.MaxStates; opts.MaxStates > 0 &&
					(got.StatesExplored < want.StatesExplored || got.StatesExplored > max) {
					t.Fatalf("dist workers=%d explored %d states, outside [%d, %d]",
						workers, got.StatesExplored, want.StatesExplored, max)
				}
			}
		})
	}
}

func TestDistMaxDepth(t *testing.T) {
	g := graphModel{N: 300, Target: 211} // violation at depth 9
	opts := mc.Options{MaxDepth: 4}
	want, err := runEngine(t, g, nil, g.trInvBytes(), opts)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if !want.DepthBounded || !want.Holds {
		t.Fatalf("expected a depth-bounded HOLDS from the engine: %+v", want)
	}
	got, _, err := runDist(t, g, nil, g.trInvBytes(), opts, Options{Workers: 2})
	if err != nil {
		t.Fatalf("dist: %v", err)
	}
	requireIdentical(t, got, want)
}

// unspeccedModel lacks DistSpec — it must be refused, not shipped.
type unspeccedModel struct{}

func (unspeccedModel) Initial() []mc.State            { return []mc.State{"a"} }
func (unspeccedModel) Successors(mc.State) []mc.State { return nil }

func TestDistRejectsUnsupportedOptions(t *testing.T) {
	g := graphModel{N: 10, Target: 10}
	tr := g.trInvBytes()
	st := g.stInvBytes()
	ck := &Checker{Opts: Options{Workers: 2, Launcher: newPipeLauncher()}}
	cases := []struct {
		name  string
		model mc.Model
		stInv mc.StateInvariantBytes
		trInv mc.TransitionInvariantBytes
		opts  mc.Options
	}{
		{"both-invariants", g, st, tr, mc.Options{}},
		{"no-invariant", g, nil, nil, mc.Options{}},
		{"unspecced", unspeccedModel{}, nil, tr, mc.Options{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if b, err := ck.NewBackend(tc.model, tc.stInv, tc.trInv, false, nil, tc.opts); err == nil {
				b.Close(nil)
				t.Fatal("accepted, want refusal")
			}
		})
	}
}

func TestDistWorkerCountBounds(t *testing.T) {
	g := graphModel{N: 10, Target: 10}
	ck := &Checker{Opts: Options{Workers: mc.NumShards + 1, Launcher: newPipeLauncher()}}
	if _, err := mc.CheckTransitionInvariantBytes(g, g.trInvBytes(), mc.Options{Dist: ck}); err == nil {
		t.Fatalf("accepted %d workers, want refusal over %d shards", mc.NumShards+1, mc.NumShards)
	}
}

func TestSwifiParse(t *testing.T) {
	good := "kill@worker=1@level=5, stall@worker=2@level=3@for=2s," +
		"flakywrite@worker=0@level=2@fails=3,slowwrite@worker=1@level=4@delay=100ms"
	injs, err := parseSwifi(good)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(injs) != 4 {
		t.Fatalf("parsed %d injections, want 4", len(injs))
	}
	if injs[1].Kind != injStall || injs[1].For != 2*time.Second {
		t.Fatalf("stall parsed as %+v", injs[1])
	}
	bad := []string{
		"explode@worker=1@level=1",   // unknown action
		"kill@level=1",               // missing worker
		"kill@worker=1",              // missing level
		"stall@worker=1@level=1",     // missing for
		"slowwrite@worker=1@level=1", // missing delay
		"kill@worker=x@level=1",      // bad int
		"kill@worker",                // malformed field
	}
	for _, spec := range bad {
		if _, err := parseSwifi(spec); err == nil {
			t.Errorf("accepted %q", spec)
		}
	}
}

// TestDistResumeCrossMode: one checkpoint chain serves every mode. A
// search cut by its context and resumed — a 2-worker chain in-process,
// an in-process chain at 2 and 4 workers, a 2-worker chain at 3 workers
// — returns the straight run's Result byte for byte (verdict, counts,
// depth, counterexample) on the graph fixture with either invariant kind
// and on the TTA cold-start trace model, and the finished run leaves no
// checkpoint file behind.
func TestDistResumeCrossMode(t *testing.T) {
	coldstart, err := model.New(model.Config{Authority: guardian.AuthorityFullShift, MaxOutOfSlot: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := graphModel{N: 300, Target: 211}
	cases := []struct {
		name  string
		m     mc.Model
		stInv mc.StateInvariantBytes
		trInv mc.TransitionInvariantBytes
		cut   int
	}{
		{"graph-st", g, g.stInvBytes(), nil, 4},
		{"graph-tr", g, nil, g.trInvBytes(), 4},
		{"tta-coldstart", coldstart, nil, coldstart.PropertyBytes(), 6},
	}
	// Worker counts of the cut run and of the resumed one; 0 is the
	// in-process engine. A fleet resumed without a CheckpointPath
	// continues the chain in place.
	modes := []struct {
		cut, resume int
		inPlace     bool
	}{{2, 0, false}, {0, 2, false}, {0, 4, true}, {2, 3, false}}
	for _, tc := range cases {
		want, err := runEngine(t, tc.m, tc.stInv, tc.trInv, mc.Options{})
		if err != nil {
			t.Fatalf("%s: engine: %v", tc.name, err)
		}
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s-%d-%d", tc.name, mode.cut, mode.resume), func(t *testing.T) {
				run := func(workers int, opts mc.Options) (mc.Result, error) {
					if workers == 0 {
						return runEngine(t, tc.m, tc.stInv, tc.trInv, opts)
					}
					res, _, err := runDist(t, tc.m, tc.stInv, tc.trInv, opts, Options{Workers: workers})
					return res, err
				}
				dir := t.TempDir()
				path := filepath.Join(dir, "cp.mc")
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				levels := 0
				_, err := run(mode.cut, mc.Options{Context: ctx, CheckpointPath: path, Progress: func(mc.Progress) {
					if levels++; levels == tc.cut {
						cancel()
					}
				}})
				if !errors.Is(err, mc.ErrInterrupted) {
					t.Fatalf("cut run: %v, want ErrInterrupted", err)
				}
				if c, err := mc.OpenChain(path); c == nil || c.Depth != int32(tc.cut) {
					t.Fatalf("cut run left no checkpoint at depth %d (%v)", tc.cut, err)
				}
				opts := mc.Options{ResumePath: path, CheckpointPath: path}
				if mode.inPlace {
					opts.CheckpointPath = ""
				}
				got, err := run(mode.resume, opts)
				if err != nil {
					t.Fatalf("resumed run: %v", err)
				}
				requireIdentical(t, got, want)
				if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
					t.Fatalf("finished run left %v behind (%v)", left, err)
				}
			})
		}
	}
}
