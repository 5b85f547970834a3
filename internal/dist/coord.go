package dist

// The coordinator: owner of the level barrier and of worker lifecycles.
//
// The run is a single-threaded event loop over one channel fed by
// per-worker reader goroutines and a deadline ticker; sends go through
// per-worker unbounded outboxes drained by writer goroutines, so the
// loop never blocks on a slow worker. The coordinator is control-plane
// only: successor batches flow worker↔worker over the mesh (mesh.go),
// and the coordinator instead runs the counting barrier — it folds each
// ExpandDone's declared per-destination group counts into an accounting
// table and ships each Seal with the exact per-sender counts the worker
// must have received before draining. Each level: issue Expands,
// collect ExpandDones, broadcast counted Seals once nothing is
// outstanding, collect LevelReports, then close the barrier — merge the
// per-worker claim-key lists into the global frontier order and reduce
// violations by minimum claim key. The search around the levels is not run here:
// the coordinator is an mc.LevelBackend (search.go), and mc's one
// search loop decides budgets, interrupts, counts and the Result.
//
// The barrier also closes on disk, as a rename of the checkpoint chain's
// manifest (commit). Crash recovery (recover.go) re-enters this loop
// through the same events: a death restarts the whole fleet as a new
// generation from that manifest and redoes the current level under the
// same claim keys, or ends the run with ErrUnrecoverable.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ttastar/internal/mc"
	"ttastar/internal/retry"
)

// Options parameterize a distributed check. Crash recovery has no
// knobs: a death restarts the fleet from the last closed barrier, at
// most twice per index that dies, and any death it cannot recover that
// way ends the run with ErrUnrecoverable.
type Options struct {
	// Workers is the worker process count, 1..NumShards (default 2).
	Workers int
	// Launcher provides worker transports; nil means a ProcLauncher
	// re-executing this binary with -dist-worker.
	Launcher Launcher
	// SnapshotDir holds the run's checkpoint chain (chain.mc and its
	// files) when mc.Options.CheckpointPath names none, and the worker
	// logs; empty means a temporary directory removed when the run ends.
	SnapshotDir string
	// Swifi is the fault-injection script (see swifi.go); each injection
	// fires at most once per run.
	Swifi string
	// HeartbeatInterval is the worker heartbeat cadence (default 250ms);
	// HeartbeatDeadline is the silence span after which a worker is
	// declared dead (default 5s).
	HeartbeatInterval time.Duration
	HeartbeatDeadline time.Duration
	// Log, when set, receives recovery and lifecycle diagnostics.
	Log func(format string, args ...any)
}

// Recovery records one crash-recovery action for the work ledger.
type Recovery struct {
	// Level is the exploration level the death interrupted, redone by
	// the whole fleet.
	Level int32
	// Worker is the index whose death the recovery answered.
	Worker int
	// SlotTransitions is the transition count of the redone level — the
	// paid recovery cost, bounded by one level of the search. It is
	// priced as soon as the redone level is collected, before its
	// barrier closes. A recovery whose redone level was never collected —
	// the run was refused first — carries 0.
	SlotTransitions uint64
}

// Report is the robustness ledger of a distributed run.
type Report struct {
	// Respawns counts recovery actions, one per death (not worker
	// starts). Takeovers is always 0: a dead worker's shards are never
	// reassigned to a survivor (the field stays for the readers that
	// check it).
	Respawns  int
	Takeovers int
	// GeneratedTransitions is the logical total a crash-free run
	// performs. ReexpandedTransitions, the work redone because of
	// crashes, is the sum of the Recoveries' SlotTransitions: a restart
	// redoes exactly one level, so the price is a function of the run
	// and its kill plan, not of timing. WorkTransitions is their sum.
	// What a retired generation expanded before it died is not counted;
	// only a counter outside the fleet sees that.
	WorkTransitions       uint64
	GeneratedTransitions  uint64
	ReexpandedTransitions uint64
	Recoveries            []Recovery
	// Frames and BytesOnWire total the fleet's frame writes — mesh
	// batches plus control traffic — across all generations.
	Frames      uint64
	BytesOnWire uint64
}

// Checker implements mc.DistChecker: plug one into mc.Options.Dist and
// every mc.Check* entry point runs its search on a worker fleet.
type Checker struct {
	Opts Options

	mu   sync.Mutex
	last Report
}

var _ mc.DistChecker = (*Checker)(nil)

// Report returns the ledger of the most recent search.
func (ck *Checker) Report() Report {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return ck.last
}

// NewBackend starts a worker fleet for one search and returns its
// coordinator as the search's level backend; closing the backend stops
// the fleet and records the run's Report.
func (ck *Checker) NewBackend(m mc.Model, stInv mc.StateInvariantBytes,
	trInv mc.TransitionInvariantBytes, reduced bool, resume *mc.Chain, opts mc.Options) (mc.LevelBackend, error) {
	if (stInv == nil) == (trInv == nil) {
		return nil, fmt.Errorf("dist: exactly one invariant kind per distributed check")
	}
	sm, ok := m.(SpeccedModel)
	if !ok {
		return nil, fmt.Errorf("dist: model %T cannot cross a process boundary (no DistSpec)", m)
	}
	c, err := newCoordinator(ck, m, sm, stInv, reduced, opts)
	if err != nil {
		return nil, err
	}
	if err := c.start(resume); err != nil {
		c.Close(nil)
		return nil, err
	}
	return c, nil
}

// event is one occurrence delivered to the coordinator loop.
type event struct {
	kind    evKind
	wi, gen int
	typ     byte
	payload []byte
	err     error
}

type evKind int

const (
	evMsg evKind = iota
	evDead
	evTick
)

// wconn is the coordinator-side transport of one worker process: an
// unbounded outbox drained by a writer goroutine (the event loop never
// blocks on a send) and a reader goroutine feeding the loop.
type wconn struct {
	index, gen int
	conn       interface {
		Read(p []byte) (int, error)
		Write(p []byte) (int, error)
		Close() error
	}

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []outMsg
	closed bool

	lastHeard atomic.Int64 // unix nanos of the last frame read
}

type outMsg struct {
	typ     byte
	payload []byte
}

func (wc *wconn) enqueue(typ byte, payload []byte) {
	wc.mu.Lock()
	if !wc.closed {
		wc.queue = append(wc.queue, outMsg{typ, payload})
		wc.cond.Signal()
	}
	wc.mu.Unlock()
}

func (wc *wconn) shut() {
	wc.mu.Lock()
	wc.closed = true
	wc.cond.Signal()
	wc.mu.Unlock()
	wc.conn.Close()
}

// workerState is the coordinator's bookkeeping for one worker index,
// across generations.
type workerState struct {
	index   int
	conn    *wconn
	alive   bool
	helloed bool

	respawns int // recoveries charged to deaths of this index

	// Latest cumulative wire counters of the current process — from its
	// last LevelReport, then its Bye; a retired generation's are folded
	// into the Report.
	wireFramesCur uint64
	wireBytesCur  uint64

	// Per current level: the report the worker's Seal owes, whose keys
	// are the worker's next frontier in its own order — all the barrier
	// needs.
	seg      *keySegment
	states   int64 // latest report totals
	resident int64
}

// keySegment is a worker's frontier for the next level, identified by
// the final claim keys of its states. seq ties it to the Seal that owes
// it (reports echo the seal's sequence number).
type keySegment struct {
	seq    uint32
	keys   []uint64
	filled bool
}

// pendingExpand is an outstanding msgExpand of the current level.
type pendingExpand struct {
	wi    int
	slots []uint32
}

// distViol is a violation candidate at the coordinator.
type distViol struct {
	key     uint64
	isState bool
	from    []byte // transition violations
	to      []byte
	enc     []byte // state violations
}

type coordinator struct {
	ck    *Checker
	o     Options
	mopts mc.Options
	model mc.Model
	stInv mc.StateInvariantBytes

	specName, specPayload string
	reduced               bool
	fingerprint           uint64

	launcher   Launcher
	gen        int    // fleet generation: one more per recovery
	swifi      string // the script the next generation gets
	snapDir    string
	ownSnapDir bool
	chain      *mc.Chain // the run's checkpoint chain (checkpoint.go in mc)
	restore    string    // the manifest a new generation restores from; "" starts empty
	meshName   string    // names the run's socket mesh (mesh.go)
	assign     [mc.NumShards]uint8
	workers    []*workerState
	events     chan event
	tickStop   chan struct{}

	// Admission: the distinct initial states so far, and the
	// canonicalizer of a reduced search.
	initSeen map[string]struct{}
	canon    mc.CanonicalExpander

	// Level state. level is the exploration level being built: 0 is the
	// initial states, level L>=1 expands the depth-(L-1) frontier.
	level       int32
	base        uint64
	frontierLen int
	slots       map[int][]uint32 // per worker: global slots of its frontier, in its frontier order
	lastSlots   map[int][]uint32 // computed at the barrier, promoted to slots by startLevel
	counts      []int            // per global slot of the current level
	pending     map[uint32]pendingExpand
	nextID      uint32
	sealed      bool
	anyFull     bool
	trBest      *distViol
	stViols     []distViol
	viol        *distViol              // the last expanded level's winner
	inits       [mc.NumShards]*msgInit // level-0 claims, kept for a redo of level 0
	acc         [][]uint64             // per destination: per sender, declared mesh groups
	sealSeq     uint32
	next        uint64     // the claim-key base of the level after the current one
	openRecs    []Recovery // priced once the current level is collected

	totalGen uint64
	done     chan struct{}

	rep Report
}

func newCoordinator(ck *Checker, m mc.Model, sm SpeccedModel, stInv mc.StateInvariantBytes,
	reduced bool, mopts mc.Options) (*coordinator, error) {
	o := ck.Opts
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Workers > mc.NumShards {
		return nil, fmt.Errorf("dist: at most %d workers (one per shard)", mc.NumShards)
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 250 * time.Millisecond
	}
	if o.HeartbeatDeadline <= 0 {
		o.HeartbeatDeadline = 5 * time.Second
	}
	if _, err := parseSwifi(o.Swifi); err != nil {
		return nil, err
	}
	meshName, err := newMeshName()
	if err != nil {
		return nil, err
	}
	name, payload := sm.DistSpec()
	c := &coordinator{
		ck:          ck,
		o:           o,
		mopts:       mopts,
		model:       m,
		stInv:       stInv,
		specName:    name,
		specPayload: payload,
		reduced:     reduced,
		fingerprint: mc.FingerprintOf(m),
		launcher:    o.Launcher,
		swifi:       o.Swifi,
		snapDir:     o.SnapshotDir,
		meshName:    meshName,
		events:      make(chan event, 256),
		slots:       map[int][]uint32{},
		pending:     map[uint32]pendingExpand{},
		initSeen:    map[string]struct{}{},
		done:        make(chan struct{}),
	}
	if reduced {
		c.canon = m.(mc.ReducibleModel).NewReducedExpander()
	}
	if c.launcher == nil {
		c.launcher = &ProcLauncher{LogDir: o.SnapshotDir}
	}
	for i := range c.assign {
		c.assign[i] = uint8(i % o.Workers)
	}
	return c, nil
}

func (c *coordinator) logf(format string, args ...any) {
	if c.o.Log != nil {
		c.o.Log(format, args...)
	}
}

func (c *coordinator) report() Report {
	rep := c.rep
	for _, w := range c.workers {
		rep.Frames += w.wireFramesCur
		rep.BytesOnWire += w.wireBytesCur
	}
	rep.GeneratedTransitions = c.totalGen
	for _, rec := range rep.Recoveries {
		rep.ReexpandedTransitions += rec.SlotTransitions
	}
	rep.WorkTransitions = rep.GeneratedTransitions + rep.ReexpandedTransitions
	return rep
}

// start makes the run's snapshot directory, opens the chain the fleet
// writes (continuing resume, if any) and brings up the fleet.
func (c *coordinator) start(resume *mc.Chain) error {
	if c.snapDir == "" {
		dir, err := os.MkdirTemp("", "ttamc-dist-*")
		if err != nil {
			return fmt.Errorf("dist: snapshot dir: %w", err)
		}
		c.snapDir = dir
		c.ownSnapDir = true
	}
	path := c.mopts.CheckpointPath
	if path == "" {
		path = filepath.Join(c.snapDir, "chain.mc")
	}
	var err error
	if c.chain, err = mc.ContinueChain(path, resume); err != nil {
		return err
	}
	if resume != nil {
		c.restore = resume.Path()
	}
	if err := c.launchAll(); err != nil || resume == nil {
		return err
	}
	return c.resumeAt(resume)
}

// Close tears the fleet and its own snapshot directory down, then
// records the run's Report on the Checker and its wire totals and last
// barrier footprint in st.
func (c *coordinator) Close(st *mc.Stats) {
	c.shutdown()
	if c.ownSnapDir {
		os.RemoveAll(c.snapDir)
	}
	rep := c.report()
	c.ck.mu.Lock()
	c.ck.last = rep
	c.ck.mu.Unlock()
	if st != nil {
		st.WireFrames = rep.Frames
		st.WireBytes = rep.BytesOnWire
		st.ResidentBytes = c.Resident()
	}
}

// launchAll starts every worker and waits for the fleet's Hellos.
func (c *coordinator) launchAll() error {
	c.tickStop = make(chan struct{})
	interval := c.o.HeartbeatDeadline / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	go func(stop chan struct{}) {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				select {
				case c.events <- event{kind: evTick}:
				case <-stop:
					return
				}
			}
		}
	}(c.tickStop)

	for i := 0; i < c.o.Workers; i++ {
		w := &workerState{index: i}
		c.workers = append(c.workers, w)
		if err := c.startIncarnation(w); err != nil {
			return err
		}
	}
	for !c.allHelloed() {
		if err := c.step(); err != nil {
			return err
		}
	}
	return nil
}

func (c *coordinator) allHelloed() bool {
	for _, w := range c.workers {
		if w.alive && !w.helloed {
			return false
		}
	}
	return true
}

// startIncarnation launches worker index w in the current generation
// and wires its transport into the event loop. The new process rebuilds
// its store from the last closed barrier's manifest, if there is one.
func (c *coordinator) startIncarnation(w *workerState) error {
	conn, err := c.launcher.Start(w.index, c.gen)
	if err != nil {
		return fmt.Errorf("dist: starting worker %d (generation %d): %w", w.index, c.gen, err)
	}
	wc := &wconn{index: w.index, gen: c.gen, conn: conn}
	wc.cond = sync.NewCond(&wc.mu)
	wc.lastHeard.Store(time.Now().UnixNano())
	w.conn = wc
	w.alive = true
	w.helloed = false
	cfg := &msgConfig{
		Index:       w.index,
		Gen:         c.gen,
		Workers:     c.o.Workers,
		SpecName:    c.specName,
		SpecPayload: c.specPayload,
		Reduced:     c.reduced,
		CheckState:  c.stInv != nil,
		MaxStates:   c.mopts.MaxStates,
		Assign:      c.assign,
		Chain:       c.chain.Path(),
		Restore:     c.restore,
		MeshName:    c.meshName,
		Swifi:       c.swifi,
		HeartbeatMs: int(c.o.HeartbeatInterval / time.Millisecond),
	}
	c.sendTo(w, cfg)

	go c.writeLoop(wc)
	go c.readLoop(wc)
	return nil
}

func (c *coordinator) writeLoop(wc *wconn) {
	for {
		wc.mu.Lock()
		for len(wc.queue) == 0 && !wc.closed {
			wc.cond.Wait()
		}
		if wc.closed {
			wc.mu.Unlock()
			return
		}
		m := wc.queue[0]
		wc.queue = wc.queue[1:]
		wc.mu.Unlock()
		_, err := retry.Do(workerWriteAttempts, workerWriteBackoff, nil, func() error {
			return writeFrame(wc.conn, m.typ, m.payload)
		})
		if err != nil {
			// A worker we cannot write to is as dead as one we cannot
			// hear from.
			c.emit(event{kind: evDead, wi: wc.index, gen: wc.gen,
				err: fmt.Errorf("write: %w", err)})
			return
		}
	}
}

// emit delivers an event unless the run is already over (so transport
// goroutines never block on a dead loop).
func (c *coordinator) emit(ev event) {
	select {
	case c.events <- ev:
	case <-c.done:
	}
}

func (c *coordinator) readLoop(wc *wconn) {
	for {
		typ, payload, err := readFrame(wc.conn)
		if err != nil {
			c.emit(event{kind: evDead, wi: wc.index, gen: wc.gen, err: err})
			return
		}
		wc.lastHeard.Store(time.Now().UnixNano())
		if typ == mtHeartbeat {
			continue
		}
		c.emit(event{kind: evMsg, wi: wc.index, gen: wc.gen, typ: typ, payload: payload})
	}
}

func (c *coordinator) sendTo(w *workerState, m encoder) {
	typ, payload := m.encode()
	w.conn.enqueue(typ, payload)
}

// shutdown stops the fleet: Stop everyone, collect Byes briefly so the
// wire totals are final, then tear down transports.
func (c *coordinator) shutdown() {
	for _, w := range c.workers {
		if w.alive && w.conn != nil {
			c.sendTo(w, &msgStop{})
		}
	}
	deadline := time.After(2 * time.Second)
	for c.anyAwaitingBye() {
		select {
		case ev := <-c.events:
			if ev.kind == evMsg && ev.typ == mtBye {
				if w := c.eventWorker(ev); w != nil {
					if bye, err := decodeBye(ev.payload); err == nil {
						w.wireFramesCur = bye.WireFrames
						w.wireBytesCur = bye.WireBytes
					}
					w.alive = false
				}
			}
			if ev.kind == evDead {
				if w := c.eventWorker(ev); w != nil {
					w.alive = false
				}
			}
		case <-deadline:
			goto done
		}
	}
done:
	close(c.done)
	if c.tickStop != nil {
		close(c.tickStop)
	}
	for _, w := range c.workers {
		if w.conn != nil {
			w.conn.shut()
		}
	}
	c.launcher.Close()
}

func (c *coordinator) anyAwaitingBye() bool {
	for _, w := range c.workers {
		if w.alive {
			return true
		}
	}
	return false
}

// eventWorker resolves an event to its worker iff it concerns the
// current generation; stale events from retired generations are nil.
func (c *coordinator) eventWorker(ev event) *workerState {
	if ev.wi < 0 || ev.wi >= len(c.workers) || ev.gen != c.gen {
		return nil
	}
	return c.workers[ev.wi]
}
