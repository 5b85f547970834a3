package dist

// Barrier-snapshot tests: a worker's files are the engine's checkpoint
// format, sliced by shard and by level. Concatenated, a worker's
// segments must be byte-identical to the in-process engine's arenas for
// its shards at every barrier, and the restore that reads them must
// refuse damage with a typed error, never panic.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ttastar/internal/guardian"
	"ttastar/internal/mc"
	"ttastar/internal/model"
)

// diamondModel is a (K+1)×(K+1) grid: state (x,y) steps right or down.
// Every state of depth d is reached from two parents, so min-key
// takeovers run on every level.
type diamondModel struct {
	K int `json:"k"`
}

func (m diamondModel) Initial() []mc.State { return []mc.State{"0,0"} }

func (m diamondModel) Successors(s mc.State) []mc.State {
	x, y, _ := strings.Cut(string(s), ",")
	xi, _ := strconv.Atoi(x)
	yi, _ := strconv.Atoi(y)
	var out []mc.State
	if xi < m.K {
		out = append(out, mc.State(fmt.Sprintf("%d,%d", xi+1, yi)))
	}
	if yi < m.K {
		out = append(out, mc.State(fmt.Sprintf("%d,%d", xi, yi+1)))
	}
	return out
}

func (m diamondModel) DistSpec() (string, string) {
	p, _ := json.Marshal(m)
	return "distdiamond", string(p)
}

// coloredModel is the minimal reducible system: a counter stepping +1
// or +2 up to Max with a color byte the dynamics ignore; the reduction
// forces the color to 'a'.
type coloredModel struct {
	Max int `json:"max"`
}

func (m coloredModel) Initial() []mc.State { return []mc.State{"000a"} }

func (m coloredModel) Successors(s mc.State) []mc.State {
	v, _ := strconv.Atoi(string(s[:3]))
	var out []mc.State
	for _, d := range []int{1, 2} {
		if v+d <= m.Max {
			out = append(out, mc.State(fmt.Sprintf("%03da", v+d)), mc.State(fmt.Sprintf("%03db", v+d)))
		}
	}
	return out
}

func (m coloredModel) NewExpander() mc.Expander                 { return coloredExpander{m} }
func (m coloredModel) Reducible() bool                          { return true }
func (m coloredModel) NewReducedExpander() mc.CanonicalExpander { return coloredExpander{m} }

func (m coloredModel) DistSpec() (string, string) {
	p, _ := json.Marshal(m)
	return "distcolored", string(p)
}

type coloredExpander struct{ m coloredModel }

func (e coloredExpander) Successors(enc []byte) [][]byte {
	var out [][]byte
	for _, s := range e.m.Successors(mc.State(enc)) {
		out = append(out, []byte(s))
	}
	return out
}

func (e coloredExpander) Canonicalize(enc []byte) { enc[len(enc)-1] = 'a' }

func init() {
	RegisterModel("distdiamond", func(payload string) (ModelSpec, error) {
		var m diamondModel
		err := json.Unmarshal([]byte(payload), &m)
		return ModelSpec{Model: m, TrInv: allowAll}, err
	})
	RegisterModel("distcolored", func(payload string) (ModelSpec, error) {
		var m coloredModel
		err := json.Unmarshal([]byte(payload), &m)
		return ModelSpec{Model: m, TrInv: allowAll}, err
	})
}

func allowAll(from, to []byte) bool { return true }

// arenaRestartEvery is the sealed arena's restart interval: a section
// appended after n entries holds the restart offsets of the ordinals
// divisible by it in its range.
const arenaRestartEvery = 16

// v5Shard is one shard's arena: entry count, restart offsets, bytes.
type v5Shard struct {
	count    uint64
	restarts []uint64
	blob     []byte
}

type v5Live struct {
	enc     []byte
	key, pw uint64
}

// v5File is a parsed version-5 checkpoint: the header words, per-shard
// arena sections and the live tier.
type v5File struct {
	header [6]uint64 // depth, result depth, transitions, flags, fingerprint, next base
	shards [mc.NumShards]v5Shard
	live   []v5Live
}

// parseV5 parses a checkpoint file whose sections append to arenas
// already holding prior[s] entries (zero for an engine checkpoint).
func parseV5(t *testing.T, data []byte, prior *[mc.NumShards]uint64) *v5File {
	t.Helper()
	if len(data) < 16 || string(data[:8]) != "TTAMCCP\x00" {
		t.Fatalf("not a checkpoint file")
	}
	p := data[8 : len(data)-8]
	u := func() uint64 {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			t.Fatalf("truncated checkpoint")
		}
		p = p[n:]
		return v
	}
	bstr := func() []byte {
		n := u()
		b := p[:n]
		p = p[n:]
		return b
	}
	if v := u(); v != 5 {
		t.Fatalf("version %d, want 5", v)
	}
	f := &v5File{}
	for i := range f.header {
		f.header[i] = u()
	}
	ceil := func(n uint64) uint64 { return (n + arenaRestartEvery - 1) / arenaRestartEvery }
	for s := range f.shards {
		sh := &f.shards[s]
		sh.count = u()
		prev := uint64(0)
		for i := ceil(prior[s]); i < ceil(prior[s]+sh.count); i++ {
			prev += u()
			sh.restarts = append(sh.restarts, prev)
		}
		sh.blob = bstr()
	}
	for n := u(); n > 0; n-- {
		f.live = append(f.live, v5Live{enc: bstr(), key: u(), pw: u()})
	}
	if len(p) != 0 {
		t.Fatalf("%d trailing bytes", len(p))
	}
	return f
}

// concatArenas concatenates a worker's barrier files, in order, into
// per-shard arenas.
func concatArenas(t *testing.T, files [][]byte) (arenas [mc.NumShards]v5Shard, last *v5File) {
	t.Helper()
	var prior [mc.NumShards]uint64
	for _, data := range files {
		last = parseV5(t, data, &prior)
		for s := range last.shards {
			sec, a := &last.shards[s], &arenas[s]
			for _, r := range sec.restarts {
				a.restarts = append(a.restarts, r+uint64(len(a.blob)))
			}
			a.count += sec.count
			a.blob = append(a.blob, sec.blob...)
			prior[s] = a.count
		}
	}
	return arenas, last
}

// engineBoundaries runs m in-process with a checkpoint after every
// level and returns the file at each boundary, by frontier depth.
func engineBoundaries(t *testing.T, m mc.Model, trInv mc.TransitionInvariantBytes) map[int][]byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "engine.mc")
	files := map[int][]byte{}
	// At Progress(d) the file on disk is the boundary written after the
	// previous level: frontier depth d-1.
	progress := func(p mc.Progress) {
		if data, err := os.ReadFile(path); err == nil {
			files[p.Depth-1] = data
		}
	}
	if _, err := mc.CheckTransitionInvariantBytes(m, trInv,
		mc.Options{CheckpointPath: path, CheckpointEvery: 1, Progress: progress}); err != nil {
		t.Fatalf("engine: %v", err)
	}
	return files
}

// boundedResident runs m to frontier depth depth, in-process or on the
// dist fleet d, and returns the resident bytes its Stats report: the
// footprint at that level boundary.
func boundedResident(t *testing.T, m mc.Model, trInv mc.TransitionInvariantBytes, depth int, d mc.DistChecker) int64 {
	t.Helper()
	var st mc.Stats
	opts := mc.Options{MaxDepth: depth, Stats: func(s mc.Stats) { st = s }}
	if d != nil {
		opts.Dist = d
	}
	res, err := mc.CheckTransitionInvariantBytes(m, trInv, opts)
	if err != nil || !res.DepthBounded {
		t.Fatalf("search bounded at depth %d: %+v, %v", depth, res, err)
	}
	return st.ResidentBytes
}

// workerFiles reads worker w's barrier files for levels 0..through.
func workerFiles(t *testing.T, dir string, w, through int) [][]byte {
	t.Helper()
	var files [][]byte
	for l := 0; l <= through; l++ {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("w%d-l%d.mc", w, l)))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
	}
	return files
}

// TestDistArenasMatchEngine: at every barrier of a sealed 2-, 3- and
// 4-worker run, each shard's arena concatenated from its owner's
// barrier files — count, restart offsets and bytes — is byte-identical
// to the in-process engine's arena for that shard at the same level;
// the workers' live sections merge by key into the engine's live tier;
// and the workers' resident bytes sum to the engine's, read from Stats
// at the end of a search bounded at that depth.
func TestDistArenasMatchEngine(t *testing.T) {
	tta, err := model.New(model.Config{Nodes: 4, Authority: guardian.AuthoritySmallShift})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		m     mc.Model
		trInv mc.TransitionInvariantBytes
	}{
		{"diamond", diamondModel{K: 24}, allowAll},
		{"tta-4n", tta, tta.PropertyBytes()},
	}
	for _, tc := range cases {
		engine := engineBoundaries(t, tc.m, tc.trInv)
		if len(engine) < 3 {
			t.Fatalf("%s: only %d engine boundaries", tc.name, len(engine))
		}
		engResident := map[int]int64{}
		for depth := range engine {
			if depth > 0 {
				engResident[depth] = boundedResident(t, tc.m, tc.trInv, depth, nil)
			}
		}
		for workers := 2; workers <= 4; workers++ {
			dir := t.TempDir()
			if _, _, err := runDist(t, tc.m, nil, tc.trInv, mc.Options{},
				Options{Workers: workers, SnapshotDir: dir}); err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			for depth, eng := range engine {
				if depth > 0 {
					ck := &Checker{Opts: Options{Workers: workers, Launcher: newPipeLauncher(), SnapshotDir: t.TempDir()}}
					if got := boundedResident(t, tc.m, tc.trInv, depth, ck); got != engResident[depth] {
						t.Fatalf("%s workers=%d depth %d: workers' resident sums to %d bytes, engine's is %d",
							tc.name, workers, depth, got, engResident[depth])
					}
				}
				want := parseV5(t, eng, &[mc.NumShards]uint64{})
				var live []v5Live
				for w := 0; w < workers; w++ {
					files := workerFiles(t, dir, w, depth)
					arenas, last := concatArenas(t, files)
					for s := range arenas {
						if s%workers != w {
							if arenas[s].count != 0 {
								t.Fatalf("%s: worker %d wrote an arena for shard %d", tc.name, w, s)
							}
							continue
						}
						if got, eng := arenas[s], want.shards[s]; got.count != eng.count ||
							!slices.Equal(got.restarts, eng.restarts) || !bytes.Equal(got.blob, eng.blob) {
							t.Fatalf("%s workers=%d depth %d shard %d: worker arena (%d entries, %dB) differs from the engine's (%d entries, %dB)",
								tc.name, workers, depth, s, arenas[s].count, len(arenas[s].blob), want.shards[s].count, len(want.shards[s].blob))
						}
					}
					if last.header[0] != want.header[0] || last.header[3] != want.header[3] ||
						last.header[4] != want.header[4] || last.header[5] != want.header[5] {
						t.Fatalf("%s workers=%d depth %d: header %v, engine's %v", tc.name, workers, depth, last.header, want.header)
					}
					live = append(live, last.live...)
				}
				sort.Slice(live, func(i, j int) bool { return live[i].key < live[j].key })
				if !reflect.DeepEqual(live, want.live) {
					t.Fatalf("%s workers=%d depth %d: workers' live sections differ from the engine's live tier", tc.name, workers, depth)
				}
			}
		}
	}
}

// FuzzRestoreWorkerSnapshot throws damaged barrier files at a worker's
// restore: the fuzzed payload (checksummed by the harness, so mutations
// reach the parser and the arena sweep) is restored as the last file of
// a real chain from a 2-worker run. The contract: never panic, and
// refuse only with ErrCheckpointCorrupt or ErrStateLimit; a restored
// store must find every frontier state by its encoding.
// Seeds are the real files of 2-worker diamond and colored (reduced)
// runs, plus their truncations.
func FuzzRestoreWorkerSnapshot(f *testing.F) {
	type chain struct {
		dir    string
		worker int
		level  int
	}
	var chains []chain
	for _, m := range []mc.Model{diamondModel{K: 6}, coloredModel{Max: 12}} {
		dir := f.TempDir()
		ck := &Checker{Opts: Options{Workers: 2, Launcher: newPipeLauncher(), SnapshotDir: dir}}
		if _, err := mc.CheckTransitionInvariantBytes(m, allowAll, mc.Options{Dist: ck}); err != nil {
			f.Fatal(err)
		}
		for w := 0; w < 2; w++ {
			for l := 0; l < 6; l++ {
				data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("w%d-l%d.mc", w, l)))
				if err != nil {
					f.Fatal(err)
				}
				payload := data[:len(data)-8]
				for _, p := range [][]byte{payload, payload[:len(payload)/2], payload[:len(payload)-1]} {
					f.Add(uint8(len(chains)), p)
				}
				chains = append(chains, chain{dir, w, l})
			}
		}
	}
	f.Fuzz(func(t *testing.T, ci uint8, payload []byte) {
		c := chains[int(ci)%len(chains)]
		h := fnv.New64a()
		h.Write(payload)
		last := filepath.Join(t.TempDir(), "cp")
		if err := os.WriteFile(last, binary.BigEndian.AppendUint64(append([]byte(nil), payload...), h.Sum64()), 0o644); err != nil {
			t.Fatal(err)
		}
		owned := uint64(0)
		for s := c.worker; s < mc.NumShards; s += 2 {
			owned |= 1 << s
		}
		var paths []string
		for l := 0; l < c.level; l++ {
			paths = append(paths, filepath.Join(c.dir, fmt.Sprintf("w%d-l%d.mc", c.worker, l)))
		}
		paths = append(paths, last)
		s := mc.NewShardStore(1<<16, owned)
		frontier, err := s.Restore(paths)
		if err != nil {
			if !errors.Is(err, mc.ErrCheckpointCorrupt) && !errors.Is(err, mc.ErrStateLimit) {
				t.Fatalf("restore refused with %v, want ErrCheckpointCorrupt or ErrStateLimit", err)
			}
			return
		}
		for _, ref := range frontier {
			if _, _, found := s.ParentOf(s.BytesOf(ref)); !found {
				t.Fatalf("frontier state %q not found by its encoding", s.BytesOf(ref))
			}
		}
	})
}
