package model

import (
	"bytes"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"ttastar/internal/guardian"
	"ttastar/internal/mc"
)

// Per-layer benchmarks of the reduced checker's model side, over a fixed
// corpus drawn from the whole reduced 6-node small-shifting search: every
// source state whose packed hash falls in a 1/layerSample slice, and
// every raw reduced successor it generates — the inputs Successors and
// Canonicalize see in that search. The sample is sorted and then
// shuffled with a fixed seed, so the corpus and its order do not depend
// on the search's worker interleaving. Building it runs the search once
// (about ten seconds on two cores):
//
//	go test -run '^$' -bench . -benchmem ./internal/model

const layerSample = 64

var layerCorpus struct {
	once    sync.Once
	m       *Model
	sources [][]byte // sampled canonical source states
	succs   [][]byte // their raw reduced successors
}

// samplingModel records the sampled sources and successors of a reduced
// search.
type samplingModel struct {
	*Model
	mu             sync.Mutex
	sources, succs [][]byte
}

type samplingExpander struct {
	*Expander
	sm *samplingModel
}

func (sm *samplingModel) NewReducedExpander() mc.CanonicalExpander {
	return &samplingExpander{Expander: sm.Model.NewReducedExpander().(*Expander), sm: sm}
}

func (x *samplingExpander) Successors(enc []byte) [][]byte {
	out := x.Expander.Successors(enc)
	var key [candBytes]byte
	copy(key[:], enc)
	if hashCand(&key)%layerSample == 0 {
		x.sm.mu.Lock()
		x.sm.sources = append(x.sm.sources, append([]byte(nil), enc...))
		for _, s := range out {
			x.sm.succs = append(x.sm.succs, append([]byte(nil), s...))
		}
		x.sm.mu.Unlock()
	}
	return out
}

// sortShuffle puts encs in a fixed pseudo-random order.
func sortShuffle(encs [][]byte) {
	sort.Slice(encs, func(i, j int) bool { return bytes.Compare(encs[i], encs[j]) < 0 })
	rand.New(rand.NewSource(1)).Shuffle(len(encs), func(i, j int) { encs[i], encs[j] = encs[j], encs[i] })
}

func loadLayerCorpus(b *testing.B) (*Model, [][]byte, [][]byte) {
	c := &layerCorpus
	c.once.Do(func() {
		m, err := New(Config{Authority: guardian.AuthoritySmallShift, Nodes: 6})
		if err != nil {
			b.Fatal(err)
		}
		sm := &samplingModel{Model: m}
		if _, err := mc.CheckTransitionInvariantBytes(sm, m.PropertyBytes(), mc.Options{}); err != nil {
			b.Fatal(err)
		}
		sortShuffle(sm.sources)
		sortShuffle(sm.succs)
		c.m, c.sources, c.succs = m, sm.sources, sm.succs
	})
	if c.m == nil {
		b.Fatal("layer corpus failed to build")
	}
	return c.m, c.sources, c.succs
}

// succSink keeps the benchmarked Successors calls observable.
var succSink [][]byte

// BenchmarkSuccessors: one op is one reduced-mode Successors call on a
// corpus source.
func BenchmarkSuccessors(b *testing.B) {
	m, sources, _ := loadLayerCorpus(b)
	e := m.NewReducedExpander().(*Expander)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		succSink = e.Successors(sources[i%len(sources)])
	}
}

// BenchmarkCanonicalize: one op is one Canonicalize call on a corpus
// successor, through one reduced expander whose memo stays warm across
// ops as a search worker's does.
func BenchmarkCanonicalize(b *testing.B) {
	m, _, succs := loadLayerCorpus(b)
	e := m.NewReducedExpander().(*Expander)
	buf := make([]byte, len(succs[0]))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, succs[i%len(succs)])
		e.Canonicalize(buf)
	}
}
