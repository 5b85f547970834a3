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

// samplingModel records the sampled sources and successors of a search:
// every source whose packed hash is 0 modulo every, reduced or oracle.
type samplingModel struct {
	*Model
	every          uint64
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

func (sm *samplingModel) NewExpander() mc.Expander {
	return &samplingExpander{Expander: sm.Model.newExpander(), sm: sm}
}

func (x *samplingExpander) Successors(enc []byte) [][]byte {
	out := x.Expander.Successors(enc)
	if loadKey(enc).hash()%x.sm.every == 0 {
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
		sm := &samplingModel{Model: m, every: layerSample}
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

// oracleCorpus is the oracle-mode corpus: every source state the E1
// matrix's four 4-node oracle searches expand (a counterexample ends the
// full-shifting one early), each with its configuration's model, in a
// fixed pseudo-random order. Building it takes well under a second.
var oracleCorpus struct {
	once    sync.Once
	models  []*Model
	model   []int // index into models, per source
	sources [][]byte
}

func loadOracleCorpus(b *testing.B) ([]*Model, []int, [][]byte) {
	c := &oracleCorpus
	c.once.Do(func() {
		type src struct {
			model int
			enc   []byte
		}
		var all []src
		var models []*Model
		for i, a := range []guardian.Authority{guardian.AuthorityPassive, guardian.AuthorityTimeWindows,
			guardian.AuthoritySmallShift, guardian.AuthorityFullShift} {
			m, err := New(Config{Authority: a})
			if err != nil {
				b.Fatal(err)
			}
			sm := &samplingModel{Model: m, every: 1}
			if _, err := mc.CheckTransitionInvariantBytes(sm, m.PropertyBytes(), mc.Options{NoReduce: true}); err != nil {
				b.Fatal(err)
			}
			sortShuffle(sm.sources)
			for _, s := range sm.sources {
				all = append(all, src{i, s})
			}
			models = append(models, m)
		}
		rand.New(rand.NewSource(1)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		for _, s := range all {
			c.model = append(c.model, s.model)
			c.sources = append(c.sources, s.enc)
		}
		c.models = models
	})
	if c.models == nil {
		b.Fatal("oracle corpus failed to build")
	}
	return c.models, c.model, c.sources
}

// succSink keeps the benchmarked Successors calls observable.
var succSink [][]byte

// BenchmarkSuccessors: one op is one Successors call on a corpus source,
// through one expander per configuration whose tables stay warm across
// ops as a search worker's do. reduced-6n runs the reduced 6-node corpus
// through a reduced expander; oracle-e1 runs the E1 oracle corpus
// through oracle expanders, as the paper and dist-recover workloads do.
// The corpora are shuffled, so the tables see less locality than a
// search's level-ordered sources: 7.8 % of reduced-6n's choice lookups
// miss, against 0.18 % in the reduced 6-node search itself.
func BenchmarkSuccessors(b *testing.B) {
	b.Run("reduced-6n", func(b *testing.B) {
		m, sources, _ := loadLayerCorpus(b)
		e := m.NewReducedExpander().(*Expander)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			succSink = e.Successors(sources[i%len(sources)])
		}
	})
	b.Run("oracle-e1", func(b *testing.B) {
		models, model, sources := loadOracleCorpus(b)
		exps := make([]*Expander, len(models))
		for i, m := range models {
			exps[i] = m.newExpander()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % len(sources)
			succSink = exps[model[j]].Successors(sources[j])
		}
	})
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
