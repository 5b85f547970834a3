package dist

// Barrier-file tests: the fleet's barriers are the engine's checkpoint
// chain, its segments sliced by shard and by level. Concatenated, a
// worker's segments must be byte-identical to the in-process engine's
// arenas for its shards at every barrier, and the one restore that reads
// them must refuse damage with a typed error, never panic.

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

	"ttastar/internal/codec"
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

// v5File is a parsed checkpoint at one barrier: the manifest's header
// words, per-shard arenas concatenated from the segments of each writer
// (by writer index; -1 for the engine), and the frontier files' entries
// merged by key.
type v5File struct {
	header  [6]uint64 // depth, result depth, transitions, flags, fingerprint, next base
	writers map[int]*[mc.NumShards]v5Shard
	live    []v5Live
}

// chainEnvelope is the checkpoint chain's file envelope.
var chainEnvelope = codec.Format{Magic: "TTAMCCP\x00", Version: 6, Corrupt: mc.ErrCheckpointCorrupt}

// parseChainFile opens one chain file of the given kind through the
// envelope and returns a reader of its body.
func parseChainFile(t *testing.T, path string, kind uint64) *codec.Reader {
	t.Helper()
	r, _, err := chainEnvelope.ReadFile(path, kind)
	if err != nil {
		t.Fatal(err)
	}
	return &r
}

// done fails the test unless r read its whole body cleanly.
func done(t *testing.T, r *codec.Reader, path string) {
	t.Helper()
	if err := r.Done(); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// parseChain parses the checkpoint whose manifest is at manifest.
func parseChain(t *testing.T, manifest string) *v5File {
	t.Helper()
	f := &v5File{writers: map[int]*[mc.NumShards]v5Shard{}}
	segs, fronts := chainPaths(t, manifest, &f.header)
	ceil := func(n uint64) uint64 { return (n + arenaRestartEvery - 1) / arenaRestartEvery }
	for _, seg := range segs {
		writer := -1
		if _, tag, ok := strings.Cut(strings.TrimPrefix(seg, manifest), ".w"); ok {
			writer, _ = strconv.Atoi(tag[:strings.IndexByte(tag, '-')])
		}
		arenas := f.writers[writer]
		if arenas == nil {
			arenas = &[mc.NumShards]v5Shard{}
			f.writers[writer] = arenas
		}
		r := parseChainFile(t, seg, 2)
		for s := range arenas {
			a := &arenas[s]
			from, count := r.Uvarint(), r.Uvarint()
			if count > 0 && from != a.count {
				t.Fatalf("%s: shard %d section from %d, arena holds %d", seg, s, from, a.count)
			}
			prev := uint64(0)
			for i := ceil(from); i < ceil(from+count); i++ {
				prev += r.Uvarint()
				a.restarts = append(a.restarts, prev+uint64(len(a.blob)))
			}
			a.count += count
			a.blob = append(a.blob, r.Bytes()...)
		}
		done(t, r, seg)
	}
	for _, front := range fronts {
		r := parseChainFile(t, front, 3)
		for n := r.Count(); n > 0; n-- {
			f.live = append(f.live, v5Live{enc: r.Bytes(), key: r.Uvarint(), pw: r.Uvarint()})
		}
		done(t, r, front)
	}
	sort.Slice(f.live, func(i, j int) bool { return f.live[i].key < f.live[j].key })
	return f
}

// engineBoundaries runs m in-process with a checkpoint after every
// level and returns the checkpoint at each boundary, by frontier depth.
func engineBoundaries(t *testing.T, m mc.Model, trInv mc.TransitionInvariantBytes) map[int]*v5File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "engine.mc")
	files := map[int]*v5File{}
	// At Progress(d) the checkpoint on disk is the boundary written after
	// the previous level: frontier depth d-1.
	progress := func(p mc.Progress) {
		if _, err := os.Stat(path); err == nil {
			files[p.Depth-1] = parseChain(t, path)
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

// TestDistArenasMatchEngine: at every barrier of a sealed 2-, 3- and
// 4-worker run, and of a 2-worker run with 4 kernel goroutines per
// worker through a fleet restart, each shard's arena concatenated from its owner's
// segments — count, restart offsets and bytes — is byte-identical to the
// in-process engine's arena for that shard at the same level; the
// workers' frontier files merge by key into the engine's live tier; and
// the workers' resident bytes sum to the engine's, read from Stats at the
// end of a search bounded at that depth.
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
		for _, fleet := range []distFleet{{workers: 2}, {workers: 3}, {workers: 4},
			{workers: 2, procs: 8, swifi: "kill@worker=1@level=2"}} {
			workers := fleet.workers
			func() {
				defer fleet.raiseProcs()()
				// At Progress(d) the fleet has closed the barrier at depth d.
				dir := t.TempDir()
				barriers := map[int]*v5File{}
				progress := func(p mc.Progress) { barriers[p.Depth] = parseChain(t, filepath.Join(dir, "chain.mc")) }
				if _, _, err := runDist(t, tc.m, nil, tc.trInv, mc.Options{Progress: progress},
					Options{Workers: workers, SnapshotDir: dir, Swifi: fleet.swifi}); err != nil {
					t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
				}
				for depth, want := range engine {
					if depth > 0 {
						ck := &Checker{Opts: Options{Workers: workers, Launcher: newPipeLauncher(), SnapshotDir: t.TempDir()}}
						if got := boundedResident(t, tc.m, tc.trInv, depth, ck); got != engResident[depth] {
							t.Fatalf("%s workers=%d depth %d: workers' resident sums to %d bytes, engine's is %d",
								tc.name, workers, depth, got, engResident[depth])
						}
					}
					got := barriers[depth]
					if got == nil {
						t.Fatalf("%s workers=%d: no barrier at depth %d", tc.name, workers, depth)
					}
					eng := want.writers[-1]
					for w := 0; w < workers; w++ {
						arenas := got.writers[w]
						for s := range arenas {
							if s%workers != w {
								if arenas[s].count != 0 {
									t.Fatalf("%s: worker %d wrote an arena for shard %d", tc.name, w, s)
								}
								continue
							}
							if got, eng := arenas[s], eng[s]; got.count != eng.count ||
								!slices.Equal(got.restarts, eng.restarts) || !bytes.Equal(got.blob, eng.blob) {
								t.Fatalf("%s workers=%d depth %d shard %d: worker arena (%d entries, %dB) differs from the engine's (%d entries, %dB)",
									tc.name, workers, depth, s, arenas[s].count, len(arenas[s].blob), eng.count, len(eng.blob))
							}
						}
					}
					if got.header[0] != want.header[0] || got.header[3] != want.header[3] ||
						got.header[4] != want.header[4] || got.header[5] != want.header[5] {
						t.Fatalf("%s workers=%d depth %d: header %v, engine's %v", tc.name, workers, depth, got.header, want.header)
					}
					if !reflect.DeepEqual(got.live, want.live) {
						t.Fatalf("%s workers=%d depth %d: workers' frontier files differ from the engine's live tier", tc.name, workers, depth)
					}
				}
			}()
		}
	}
}

// FuzzRestoreWorkerSnapshot throws damaged files of real fleet-written
// chains at the one restore call, as FuzzResumeCheckpoint (package mc)
// does with engine and miniature-fleet chains: the fuzzed payload
// replaces one file of a 2-worker run's chain — its manifest, a
// segment or a frontier file — checksummed by the harness, with the
// manifest re-listing the files, so mutations reach the parsers, the
// chain-order checks and the arena sweep. The chain is then restored as
// every owner of a 1- to 4-way shard split. The contract: never panic;
// refuse only with ErrCheckpointCorrupt, ErrStateLimit or
// os.ErrNotExist; leave every file byte-intact; and a restored store
// finds every frontier state by its encoding. Seeds are every file of
// 2-worker diamond and colored (reduced) runs, plus their truncations.
func FuzzRestoreWorkerSnapshot(f *testing.F) {
	type file struct {
		dir  string // a fleet's snapshot directory
		name string // the file the payload replaces
	}
	var files []file
	for _, m := range []mc.Model{diamondModel{K: 6}, coloredModel{Max: 12}} {
		dir := f.TempDir()
		ck := &Checker{Opts: Options{Workers: 2, Launcher: newPipeLauncher(), SnapshotDir: dir}}
		if _, err := mc.CheckTransitionInvariantBytes(m, allowAll, mc.Options{Dist: ck}); err != nil {
			f.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				f.Fatal(err)
			}
			payload := data[:len(data)-8]
			for _, p := range [][]byte{payload, payload[:len(payload)/2], payload[:len(payload)-1]} {
				f.Add(uint8(len(files)), p)
			}
			files = append(files, file{dir, e.Name()})
		}
	}
	f.Fuzz(func(t *testing.T, fi uint8, payload []byte) {
		src := files[int(fi)%len(files)]
		dir := t.TempDir()
		entries, err := os.ReadDir(src.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(src.dir, e.Name()))
			if err == nil {
				err = os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		h := fnv.New64a()
		h.Write(payload)
		if err := os.WriteFile(filepath.Join(dir, src.name), binary.BigEndian.AppendUint64(append([]byte(nil), payload...), h.Sum64()), 0o644); err != nil {
			t.Fatal(err)
		}
		manifest := filepath.Join(dir, "chain.mc")
		if src.name != "chain.mc" {
			// Re-list the same files, so the manifest carries the new sum.
			c, err := mc.OpenChain(manifest)
			if err != nil {
				t.Fatal(err)
			}
			relist(t, c, manifest)
		}
		before := snapshotDir(t, dir)
		n := 1 + int(fi)%4
		for i := 0; i < n; i++ {
			c, err := mc.OpenChain(manifest)
			if err == nil {
				owned := uint64(0)
				for s := i; s < mc.NumShards; s += n {
					owned |= 1 << s
				}
				s := mc.NewShardStore(1<<16, owned)
				var frontier []uint32
				if frontier, err = s.Resume(c); err == nil {
					for _, ref := range frontier {
						if _, _, found := s.ParentOf(s.BytesOf(ref)); !found {
							t.Fatalf("frontier state %q not found by its encoding", s.BytesOf(ref))
						}
					}
				}
			}
			if err != nil && !errors.Is(err, mc.ErrCheckpointCorrupt) && !errors.Is(err, mc.ErrStateLimit) &&
				!errors.Is(err, os.ErrNotExist) {
				t.Fatalf("restore refused with %v, want ErrCheckpointCorrupt, ErrStateLimit or os.ErrNotExist", err)
			}
		}
		if !reflect.DeepEqual(snapshotDir(t, dir), before) {
			t.Fatal("the restore changed a file")
		}
	})
}

// relist rewrites the manifest at path to list c's files, with their
// checksums as they stand now.
func relist(t *testing.T, c *mc.Chain, path string) {
	t.Helper()
	segs, fronts := chainPaths(t, path, nil)
	n, err := mc.ContinueChain(path, nil)
	if err == nil {
		err = n.Commit(c.ChainHeader, segs, fronts)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// chainPaths lists the segment and frontier files the manifest at path
// names, without checking them, and reads its header words into header
// when that is not nil.
func chainPaths(t *testing.T, path string, header *[6]uint64) (segs, fronts []string) {
	t.Helper()
	r := parseChainFile(t, path, 1)
	var words [6]uint64
	for i := range words {
		words[i] = r.Uvarint()
	}
	if header != nil {
		*header = words
	}
	for _, list := range []*[]string{&segs, &fronts} {
		for n := r.Count(); n > 0; n-- {
			*list = append(*list, filepath.Join(filepath.Dir(path), string(r.Bytes())))
			r.Uvarint()
		}
	}
	done(t, r, path)
	return segs, fronts
}

// snapshotDir reads every file in dir.
func snapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}
