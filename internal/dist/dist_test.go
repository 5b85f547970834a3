package dist

// End-to-end tests of the distributed checker against the in-process
// engine: the contract under test is byte-identical Results — verdict,
// counts, depth, counterexample — for any worker count, with and without
// injected worker crashes. Workers run as in-process goroutines over
// net.Pipe (pipeLauncher), so the full protocol is exercised without
// forking.

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
			// levels 1..levels are expanded, level 0 never is. A recovery
			// is priced when its level's barrier closes, which the level
			// holding the violation never does.
			kills, priced := 0, 0
			for _, l := range tc.levels {
				if l >= 1 && l <= levels {
					kills++
					if want.Holds || l < levels {
						priced++
					}
				}
			}
			if rep.Respawns != kills || rep.Takeovers != 0 {
				t.Fatalf("report: %d respawns %d takeovers, want %d/0", rep.Respawns, rep.Takeovers, kills)
			}
			if len(rep.Recoveries) != priced {
				t.Fatalf("recoveries: %d entries, want %d", len(rep.Recoveries), priced)
			}
			var budget uint64
			for _, rec := range rep.Recoveries {
				budget += rec.SlotTransitions
			}
			// The crash-recovery cost bound: work redone never exceeds the
			// lost slots' transitions (the priced recovery budget).
			if kills == priced && rep.ReexpandedTransitions > budget {
				t.Fatalf("reexpanded %d transitions, over the %d priced by recoveries",
					rep.ReexpandedTransitions, budget)
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
// by a survivor — and the run's snapshot files are left intact.
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
	for w := 0; w < 3; w++ {
		if _, err := restoreChain(dir, 3, w, 0, 1, 2); err != nil {
			t.Fatalf("worker %d snapshots not intact: %v", w, err)
		}
	}
}

// restoreChain restores worker w's barrier snapshots of the given
// levels from dir, as a respawn of it in a fleet of n would.
func restoreChain(dir string, n, w int, levels ...int) (*mc.ShardStore, error) {
	owned := uint64(0)
	for s := w; s < mc.NumShards; s += n {
		owned |= 1 << s
	}
	var paths []string
	for _, l := range levels {
		paths = append(paths, filepath.Join(dir, fmt.Sprintf("w%d-l%d.mc", w, l)))
	}
	s := mc.NewShardStore(0, owned)
	_, err := s.Restore(paths)
	return s, err
}

// blockSnapshot makes worker victim's level-level snapshot write fail
// for good: a non-empty directory squats on the file name, so the
// atomic rename fails with a non-transient error.
func blockSnapshot(t *testing.T, dir string, victim, level int) {
	t.Helper()
	block := filepath.Join(dir, fmt.Sprintf("w%d-l%d.mc", victim, level))
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(block, "squat"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDistSnapshotGapRefused: a worker whose level-L barrier snapshot
// failed has no restore point past L-1 until its level-L+1 write
// repairs the gap, so a death at level L+1 — its own or a peer's, since
// a recovery restarts every worker from level L — is refused with
// ErrUnrecoverable naming the worker without the restore point:
// recovering it from the older snapshot would silently lose states.
// The failed write on its own is survivable, and once the next barrier
// has written its file (which reaches back to the last good write) a
// death at level L+2 is recovered by one respawn, identical to the
// engine.
func TestDistSnapshotGapRefused(t *testing.T) {
	g := graphModel{N: 300, Target: 300}
	for workers := 2; workers <= 4; workers++ {
		for _, p := range []struct{ victim, level int }{{1, 1}, {1, 2}, {0, 3}} {
			for _, st := range []bool{false, true} {
				name := fmt.Sprintf("w%d-v%d-l%d-%s", workers, p.victim, p.level, invKind(st))
				t.Run(name, func(t *testing.T) {
					stInv, trInv := g.invariants(st)
					want, err := runEngine(t, g, stInv, trInv, mc.Options{})
					if err != nil {
						t.Fatalf("engine: %v", err)
					}
					dir := t.TempDir()
					blockSnapshot(t, dir, p.victim, p.level)
					got, rep, err := runDist(t, g, stInv, trInv, mc.Options{},
						Options{Workers: workers, SnapshotDir: dir, Log: t.Logf})
					if err != nil {
						t.Fatalf("blocked snapshot alone: %v", err)
					}
					requireIdentical(t, got, want)
					if rep.Respawns != 0 {
						t.Fatalf("blocked snapshot alone respawned %d workers", rep.Respawns)
					}

					dir = t.TempDir()
					blockSnapshot(t, dir, p.victim, p.level)
					got, _, err = runDist(t, g, stInv, trInv, mc.Options{},
						Options{Workers: workers, SnapshotDir: dir, Log: t.Logf,
							Swifi: fmt.Sprintf("kill@worker=%d@level=%d", p.victim, p.level+1)})
					if !errors.Is(err, ErrUnrecoverable) {
						t.Fatalf("kill after the gap: %v (result %v), want ErrUnrecoverable", err, got)
					}
					// The cut search is no verdict: it explored less than the
					// whole space.
					if got.StatesExplored >= want.StatesExplored {
						t.Fatalf("refused run reports %v, as much as the full search %v", got, want)
					}
				})
				t.Run(name+"-peer", func(t *testing.T) {
					stInv, trInv := g.invariants(st)
					blocked := (p.victim + 1) % workers
					dir := t.TempDir()
					blockSnapshot(t, dir, blocked, p.level)
					_, _, err := runDist(t, g, stInv, trInv, mc.Options{},
						Options{Workers: workers, SnapshotDir: dir, Log: t.Logf,
							Swifi: fmt.Sprintf("kill@worker=%d@level=%d", p.victim, p.level+1)})
					if !errors.Is(err, ErrUnrecoverable) {
						t.Fatalf("peer killed after worker %d's gap: %v, want ErrUnrecoverable", blocked, err)
					}
					if at := fmt.Sprintf("worker %d at level %d:", blocked, p.level+1); !strings.Contains(err.Error(), at) {
						t.Fatalf("refusal %q does not name %q", err, at)
					}
				})
				t.Run(name+"-repaired", func(t *testing.T) {
					stInv, trInv := g.invariants(st)
					want, err := runEngine(t, g, stInv, trInv, mc.Options{})
					if err != nil {
						t.Fatalf("engine: %v", err)
					}
					dir := t.TempDir()
					blockSnapshot(t, dir, p.victim, p.level)
					got, rep, err := runDist(t, g, stInv, trInv, mc.Options{},
						Options{Workers: workers, SnapshotDir: dir, Log: t.Logf,
							Swifi: fmt.Sprintf("kill@worker=%d@level=%d", p.victim, p.level+2)})
					if err != nil {
						t.Fatalf("kill after the repair: %v", err)
					}
					requireIdentical(t, got, want)
					if rep.Respawns != 1 {
						t.Fatalf("kill after the repair: %d respawns, want 1", rep.Respawns)
					}
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
// 0's barrier file of the level is complete; it is hard-linked to first.
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
			if err := os.Link(filepath.Join(l.dir, fmt.Sprintf("w0-l%d.mc", l.level)), l.first); err != nil {
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
// closed the level — written its barrier file and reported it — makes
// the whole fleet redo the level. The result equals the engine's, and
// the peer's rewritten barrier file is byte-identical to its first
// write.
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
				// Every ExpandDone of the level was in before the death,
				// so the new generation re-expands the whole level.
				if rec := rep.Recoveries[0]; rep.ReexpandedTransitions != rec.SlotTransitions ||
					(level > 0 && rec.SlotTransitions == 0) {
					t.Fatalf("reexpanded %d transitions, want the redone level's %d",
						rep.ReexpandedTransitions, rec.SlotTransitions)
				}
				first, err := os.ReadFile(l.first)
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, fmt.Sprintf("w0-l%d.mc", level))
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
		{"resume-path", g, nil, tr, mc.Options{ResumePath: "x"}},
		{"checkpoint", g, nil, tr, mc.Options{CheckpointPath: "x"}},
		{"both-invariants", g, st, tr, mc.Options{}},
		{"no-invariant", g, nil, nil, mc.Options{}},
		{"unspecced", unspeccedModel{}, nil, tr, mc.Options{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if b, err := ck.NewBackend(tc.model, tc.stInv, tc.trInv, false, tc.opts); err == nil {
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
