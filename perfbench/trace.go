package main

// The traced run's instruments. Every number comes from a public seam of
// the layer it describes, so no code outside this directory changes:
//
//   - tracedModel wraps *model.Model as an mc.ReducibleModel whose
//     expanders time each Successors and Canonicalize call. Embedding
//     forwards Fingerprint and DistSpec, so checkpoints and dist workers
//     see the same model.
//   - property wraps PropertyBytes to time the transition probe.
//   - Options.Progress timestamps delimit the levels; Options.Stats is
//     read for the search summary.
//   - tracedLauncher wraps a dist.Launcher to time worker starts and to
//     count the coordinator connections' frames and bytes.
//
// Per-call spans would run into the millions, so calls are aggregated per
// (level, worker, layer) in memory and written out when the run ends.

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ttastar/internal/dist"
	"ttastar/internal/mc"
	"ttastar/internal/model"
)

// spanKey names one aggregate: a layer's calls by one worker in one BFS
// level (worker -1: not attributable to a single worker).
type spanKey struct {
	Level  int
	Worker int
	Layer  string
}

type spanAgg struct {
	Calls int64
	Ns    int64
}

// searchSums accumulates the model and engine layers over every traced
// search of the run.
type searchSums struct {
	succCalls, succOut, succNs int64
	canonCalls, canonNs        int64
	propCalls, propNs          int64

	searches                    int
	levels                      int
	searchNs, overheadNs        int64
	claimNs, boundaryNs         int64
	states, transitions         int64
	probeHist                   [len(mc.Stats{}.ProbeHist)]uint64
	loadFactor                  float64
	sealedStates, sealedArenaB  int64
	sealedIndexB, peakResidentB int64
	levelS                      []float64

	renderCalls int64
	renderNs    int64
}

// searchState is the search in flight.
type searchState struct {
	start  int64 // call start
	prev   int64 // end of the previous level (before level 1: set-up end)
	levels int
	wallNs int64
	walls  map[int]int64 // level wall by Progress depth
}

// tracer owns every instrument of one traced run.
type tracer struct {
	epoch time.Time

	// mu guards exps and lastCreate: dist pipe workers build their
	// expanders on their own goroutines. The expanders' counters need no
	// lock — each is written by its worker only, and read at a level
	// barrier the worker's writes happen-before (the engine's WaitGroup,
	// or the dist protocol's pipe round trip).
	mu         sync.Mutex
	exps       []*tracedExpander
	lastCreate int64

	propCalls atomic.Int64 // probes of the current level, all workers
	propNs    atomic.Int64

	cur   searchState
	sum   searchSums
	spans map[spanKey]*spanAgg
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make(map[spanKey]*spanAgg)}
}

// now reads the monotonic clock in nanoseconds since the tracer started;
// time.Since on a monotonic base costs one clock read.
func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

func (tr *tracer) span(level, worker int, layer string, calls, ns int64) {
	k := spanKey{level, worker, layer}
	a := tr.spans[k]
	if a == nil {
		a = &spanAgg{}
		tr.spans[k] = a
	}
	a.Calls += calls
	a.Ns += ns
}

// tracedModel is the model seam: a ReducibleModel whose per-worker
// expanders are timed.
type tracedModel struct {
	*model.Model
	tr *tracer
}

var _ mc.ReducibleModel = (*tracedModel)(nil)

func (m *tracedModel) NewExpander() mc.Expander {
	return m.tr.register(m.Model.NewExpander(), nil)
}

func (m *tracedModel) NewReducedExpander() mc.CanonicalExpander {
	ce := m.Model.NewReducedExpander()
	return m.tr.register(ce, ce)
}

func (tr *tracer) register(inner mc.Expander, canon mc.CanonicalExpander) *tracedExpander {
	e := &tracedExpander{inner: inner, canon: canon, now: tr.now}
	tr.mu.Lock()
	tr.exps = append(tr.exps, e)
	tr.lastCreate = tr.now()
	tr.mu.Unlock()
	return e
}

// tracedExpander times one worker's model calls. The level fields cover
// the calls since the last level barrier.
type tracedExpander struct {
	inner mc.Expander
	canon mc.CanonicalExpander // nil for oracle expanders, which are never canonicalized
	now   func() int64

	active      bool  // called since the last barrier
	first, last int64 // level span: first call start, last call end
	succCalls   int64
	succOut     int64
	succNs      int64
	canonCalls  int64
	canonNs     int64
}

func (e *tracedExpander) mark(t0, t1 int64) {
	if !e.active {
		e.active, e.first = true, t0
	}
	e.last = t1
}

func (e *tracedExpander) Successors(enc []byte) [][]byte {
	t0 := e.now()
	out := e.inner.Successors(enc)
	t1 := e.now()
	e.mark(t0, t1)
	e.succCalls++
	e.succOut += int64(len(out))
	e.succNs += t1 - t0
	return out
}

func (e *tracedExpander) Canonicalize(enc []byte) {
	t0 := e.now()
	e.canon.Canonicalize(enc)
	t1 := e.now()
	e.mark(t0, t1)
	e.canonCalls++
	e.canonNs += t1 - t0
}

// property times the transition probe. It is shared by all workers of a
// search, hence the atomics.
func (tr *tracer) property(p mc.TransitionInvariantBytes) mc.TransitionInvariantBytes {
	return func(from, to []byte) bool {
		t0 := tr.now()
		ok := p(from, to)
		tr.propNs.Add(tr.now() - t0)
		tr.propCalls.Add(1)
		return ok
	}
}

// search runs one traced check of m's §5.1 property: the model and the
// property are wrapped, Progress and Stats hooked, and the call recorded.
func (tr *tracer) search(m *model.Model, opts mc.Options) (mc.Result, mc.Stats, map[int]int64, error) {
	tm := &tracedModel{Model: m, tr: tr}
	prop := tr.property(m.PropertyBytes())
	var st mc.Stats
	haveStats := false
	opts.Progress = func(p mc.Progress) { tr.levelDone(p.Depth, tr.now()) }
	opts.Stats = func(s mc.Stats) { st, haveStats = s, true }

	tr.mu.Lock()
	tr.exps = tr.exps[:0]
	tr.lastCreate = 0
	tr.mu.Unlock()
	tr.propCalls.Store(0)
	tr.propNs.Store(0)
	start := tr.now()
	tr.cur = searchState{start: start, prev: start, walls: make(map[int]int64)}

	res, err := mc.CheckTransitionInvariantBytes(tm, prop, opts)
	end := tr.now()

	// A violation ends the search inside its last level, before that
	// level's Progress: close it at its last model call.
	tr.mu.Lock()
	pending, lastCall := false, int64(0)
	for _, e := range tr.exps {
		if e.active {
			pending = true
			lastCall = max(lastCall, e.last)
		}
	}
	tr.mu.Unlock()
	if pending {
		tr.levelDone(tr.cur.levels+1, lastCall)
	}

	s := &tr.sum
	call := end - start
	s.searches++
	s.levels += tr.cur.levels
	s.searchNs += call
	s.overheadNs += selfTime(call, tr.cur.wallNs)
	if haveStats {
		s.states += int64(st.States)
		s.transitions += int64(st.Transitions)
		for i, c := range st.ProbeHist {
			s.probeHist[i] += c
		}
		s.loadFactor = st.LoadFactor
		s.sealedStates += st.SealedStates
		s.sealedArenaB += st.SealedArenaBytes
		s.sealedIndexB += st.SealedIndexBytes
		s.peakResidentB = max(s.peakResidentB, st.PeakResidentBytes)
	}
	return res, st, tr.cur.walls, err
}

// levelDone closes the level that ended at mark: it takes the level wall
// from the Progress timestamps, collects and resets every worker's level
// counters, and splits the level into claim and boundary time.
func (tr *tracer) levelDone(depth int, mark int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	c := &tr.cur
	if c.levels == 0 && tr.lastCreate > c.prev {
		// Level 1 starts once the engine has built its worker expanders;
		// everything before is per-search set-up overhead.
		c.prev = tr.lastCreate
	}
	wall := levelWalls(c.prev, []int64{mark})[0]
	c.prev = mark
	c.levels++
	c.wallNs += wall
	c.walls[depth] = wall
	s := &tr.sum
	s.levelS = append(s.levelS, seconds(wall))

	var spans []int64
	var modelNs int64
	for wi, e := range tr.exps {
		if !e.active {
			continue
		}
		span := e.last - e.first
		spans = append(spans, span)
		modelNs += e.succNs + e.canonNs
		tr.span(depth, wi, "model.successors", e.succCalls, e.succNs)
		tr.span(depth, wi, "model.canonicalize", e.canonCalls, e.canonNs)
		tr.span(depth, wi, "mc.worker_span", 1, span)
		s.succCalls += e.succCalls
		s.succOut += e.succOut
		s.succNs += e.succNs
		s.canonCalls += e.canonCalls
		s.canonNs += e.canonNs
		*e = tracedExpander{inner: e.inner, canon: e.canon, now: e.now}
	}
	pc, pn := tr.propCalls.Swap(0), tr.propNs.Swap(0)
	s.propCalls += pc
	s.propNs += pn
	modelNs += pn
	claim, boundary := levelSplit(wall, spans, modelNs)
	s.claimNs += claim
	s.boundaryNs += boundary
	tr.span(depth, -1, "model.property", pc, pn)
	tr.span(depth, -1, "mc.level_wall", 1, wall)
	tr.span(depth, -1, "mc.claim", 1, claim)
	tr.span(depth, -1, "mc.boundary", 1, boundary)
}

// render times one counterexample rendering.
func (tr *tracer) render(f func() string) string {
	t0 := tr.now()
	out := f()
	tr.sum.renderNs += tr.now() - t0
	tr.sum.renderCalls++
	return out
}

// writeSpans dumps the aggregates as JSON, sorted by level, worker and
// layer.
func (tr *tracer) writeSpans(path, workload string) error {
	type row struct {
		Workload string  `json:"workload"`
		Level    int     `json:"level"`
		Worker   int     `json:"worker"`
		Layer    string  `json:"layer"`
		Calls    int64   `json:"calls"`
		Seconds  float64 `json:"seconds"`
	}
	rows := make([]row, 0, len(tr.spans))
	for k, a := range tr.spans {
		rows = append(rows, row{workload, k.Level, k.Worker, k.Layer, a.Calls, seconds(a.Ns)})
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Level != b.Level {
			return a.Level < b.Level
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.Layer < b.Layer
	})
	out, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// tracedLauncher is the dist launcher seam: it times each worker start —
// from Start to the worker's first frame, its Hello — and counts the
// frames and bytes on the coordinator's worker connections.
type tracedLauncher struct {
	dist.Launcher
	now func() int64

	mu    sync.Mutex
	conns []*countingConn
}

func (l *tracedLauncher) Start(index, incarnation int) (io.ReadWriteCloser, error) {
	t0 := l.now()
	rwc, err := l.Launcher.Start(index, incarnation)
	if err != nil {
		return nil, err
	}
	c := &countingConn{ReadWriteCloser: rwc, now: l.now, started: t0}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

// totals sums the connections: worker starts, their summed start
// latency, and the control frames and bytes in both directions.
func (l *tracedLauncher) totals() (starts, startNs, frames, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		starts++
		if h := c.helloAt.Load(); h > 0 {
			startNs += h - c.started
		}
		frames += c.inFrames.Load() + c.outFrames.Load()
		bytes += c.inBytes.Load() + c.outBytes.Load()
	}
	return starts, startNs, frames, bytes
}

// countingConn counts one coordinator↔worker connection. Reads and
// writes each come from one goroutine (the coordinator's reader and
// writer loops), so each direction's frame parser is unshared; the
// totals are atomics because the run reads them from a third.
type countingConn struct {
	io.ReadWriteCloser
	now     func() int64
	started int64
	helloAt atomic.Int64

	in, out             frameCounter
	inFrames, outFrames atomic.Int64
	inBytes, outBytes   atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Read(p)
	if n > 0 {
		c.inBytes.Add(int64(n))
		if f := int64(c.in.feed(p[:n])); f > 0 && c.inFrames.Add(f) == f {
			c.helloAt.Store(c.now())
		}
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Write(p)
	if n > 0 {
		c.outBytes.Add(int64(n))
		c.outFrames.Add(int64(c.out.feed(p[:n])))
	}
	return n, err
}

// frameCounter counts complete frames in one direction of the dist
// protocol stream, whose frames are a 4-byte little-endian length
// followed by that many bytes.
type frameCounter struct {
	hdr  [4]byte
	have int // header bytes seen
	left int // body bytes still to come
}

func (f *frameCounter) feed(p []byte) (frames int) {
	for len(p) > 0 {
		if f.left > 0 {
			k := min(f.left, len(p))
			f.left -= k
			p = p[k:]
			if f.left == 0 {
				frames++
			}
			continue
		}
		k := copy(f.hdr[f.have:], p)
		f.have += k
		p = p[k:]
		if f.have == len(f.hdr) {
			f.have = 0
			f.left = int(binary.LittleEndian.Uint32(f.hdr[:]))
			if f.left == 0 {
				frames++
			}
		}
	}
	return frames
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
