package dist

// The worker: one process owning a slice of the shard space. It
// rebuilds the model from the spec in msgConfig, then serves the
// coordinator's control protocol while exchanging successor batches
// directly with its peers over the mesh (mesh.go).
//
// Concurrency shape: one main loop owns the store, the frontier and all
// protocol state, and handles one event at a time, in arrival order. An
// Expand runs the engine's level kernel (mc.ShardStore.RunLevel) on
// max(1, GOMAXPROCS/workers) goroutines, each filling its own mesh
// frames (meshEmitter), and returns when they are done. Around the loop
// run only I/O pumps: a reader per inbound connection (coordinator +
// accepted mesh links) feeding one unbounded FIFO inbox, a sender
// goroutine per outbound mesh link, and the heartbeat.
// The inbox is unbounded on purpose: a bounded queue would close a
// backpressure cycle across the worker ring (everyone blocked sending
// into everyone's full queue); unbounded, memory is bounded by a
// level's frame volume, which the level barrier already bounds.
//
// The barrier is closed on the links. A worker has one open level, the
// one after the last it sealed. Once its Expand of that level is done
// it sends each peer, behind its last batch, an End naming the groups
// it sent that peer; it seals the level once its own Expand is done and
// it holds every peer's End. Mesh batches are claimed whenever they
// arrive — claims are idempotent and carry position-derived keys, so
// arrival order is irrelevant — and may precede the worker's own
// Expand. A link is FIFO, so an End's count must equal the groups
// received from its sender; a mismatch, a second End, a batch behind
// an End, or a mesh frame of any level but the open one is a protocol
// violation, and the worker dies of it (msgFatal). No frame of the next
// level can come early: the coordinator issues its Expands only once
// every worker has reported this one. A worker accepts mesh connections
// only from its own fleet generation, so a zombie of an older
// generation (a stalled worker declared dead) can never add to the
// counts.
//
// Level numbering: level 0 claims the initial states its Expand carries
// and expands nothing; level L >= 1 is the expansion producing depth-L
// states. Sealing level L closes level L-1 into the store's arenas,
// gives the new frontier its global refs, and writes the worker's files
// of the checkpoint chain (mc.BarrierFiles): its segment — the arena
// bytes appended since its last write, so barrier cost is proportional
// to the level, not the visited set — and its frontier. A failed write
// is the worker's death (recover.go).

import (
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ttastar/internal/codec"
	"ttastar/internal/mc"
	"ttastar/internal/retry"
)

// WorkerOptions parameterize RunWorker for its two habitats, a
// subprocess and a pipe-launcher goroutine. Both reach their peers over
// the same Unix-socket mesh (mesh.go), named by msgConfig.
type WorkerOptions struct {
	// Exit is the kill-injection primitive: os.Exit for a subprocess
	// (the default), connection teardown + goroutine exit in-process.
	Exit func(code int)
}

// wev is one inbox event: a control frame, a mesh frame, or a
// coordinator-connection error.
type wev struct {
	mesh    bool
	from    int
	typ     byte
	payload []byte
	fb      *frameBuf
	err     error
}

// workerInbox is the unbounded FIFO event queue.
type workerInbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []wev
}

func newWorkerInbox() *workerInbox {
	q := &workerInbox{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *workerInbox) push(ev wev) {
	q.mu.Lock()
	q.q = append(q.q, ev)
	q.cond.Signal()
	q.mu.Unlock()
}

func (q *workerInbox) next() wev {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.q) == 0 {
		q.cond.Wait()
	}
	ev := q.q[0]
	q.q = q.q[1:]
	return ev
}

// groupAcc accumulates one frontier slot's successors bound for one
// shard, in wire layout, before the group header can be written (the
// successor count precedes the successors).
type groupAcc struct {
	njs   int
	prevJ uint32
	succs []byte
}

// meshEmitter is one kernel goroutine's mc.Emitter: it groups a slot's
// successors by shard, closes each group into its owner's open frame,
// and sends a frame once it passes batchFlushBytes.
type meshEmitter struct {
	w       *worker
	accs    [mc.NumShards]groupAcc
	touched []uint8     // shards the current slot emitted to
	frames  []*frameBuf // per destination: the open frame
	groups  []uint64    // per destination: groups closed this level
}

func (e *meshEmitter) Emit(shard uint32, j int, succ []byte) {
	acc := &e.accs[shard]
	if acc.njs == 0 {
		e.touched = append(e.touched, uint8(shard))
	}
	acc.succs = codec.AppendBytes(codec.AppendUvarint(acc.succs, uint64(uint32(j)-acc.prevJ)), succ)
	acc.prevJ = uint32(j)
	acc.njs++
}

func (e *meshEmitter) EndSlot(slot, parent uint32) {
	for _, shard := range e.touched {
		acc := &e.accs[shard]
		dest := int(e.w.cfg.Assign[shard])
		e.groups[dest]++
		fb := e.frames[dest]
		if fb == nil {
			fb = beginMeshBatch(e.w.expand.Level, e.w.expand.Base)
			e.frames[dest] = fb
		}
		fb.b = append(codec.AppendUvarint(fb.b, uint64(slot), uint64(parent), uint64(acc.njs)), acc.succs...)
		if fb.payloadLen() >= batchFlushBytes {
			e.frames[dest] = nil
			e.w.links[dest].enqueue(fb)
		}
		*acc = groupAcc{succs: acc.succs[:0]}
	}
	e.touched = e.touched[:0]
}

// flush hands every open frame to its link and moves the level's group
// counts into groups.
func (e *meshEmitter) flush(groups []uint64) {
	for dest, fb := range e.frames {
		if fb != nil {
			e.frames[dest] = nil
			e.w.links[dest].enqueue(fb)
		}
		groups[dest] += e.groups[dest]
		e.groups[dest] = 0
	}
}

type worker struct {
	conn    io.ReadWriteCloser
	writeMu sync.Mutex
	exit    func(code int)
	inj     *injector

	cfg    *msgConfig
	store  *mc.ShardStore
	ems    []*meshEmitter // one per kernel goroutine
	expand *msgExpand     // the Expand the kernel runs

	frontier []uint32 // live refs, in DrainLevel order
	refs     []uint32 // the frontier's global refs, aligned

	// The open level's barrier: the level after sealed.
	sealed int32           // the last level sealed; -1 before level 0
	report *msgLevelReport // set once the level's own Expand is done
	sent   []uint64        // per destination: groups sent this level
	recv   []uint64        // per sender: groups received this level
	ended  []bool          // per sender: its End of this level is in

	// data plane
	mesh     socketMesh
	listener net.Listener
	links    []*peerLink // per destination; nil for this worker's own index
	inbox    *workerInbox
	accepted struct {
		mu    sync.Mutex
		conns []io.Closer
	}
	wireFrames atomic.Uint64
	wireBytes  atomic.Uint64

	hbStop chan struct{}
	// retired is closed once the coordinator is gone: the worker's
	// generation is over, and its mesh dials give up (see mesh.go).
	retired     chan struct{}
	retiredOnce sync.Once
}

// RunWorker serves the coordinator protocol on conn until mtStop or
// connection loss. It is the body of the hidden `ttamc -dist-worker`
// mode and of the in-process pipe launcher.
func RunWorker(conn io.ReadWriteCloser, opts WorkerOptions) error {
	w := &worker{
		conn:    conn,
		exit:    opts.Exit,
		inbox:   newWorkerInbox(),
		retired: make(chan struct{}),
	}
	if w.exit == nil {
		w.exit = os.Exit
	}
	defer w.teardown()

	// Coordinator reader pump.
	go func() {
		for {
			typ, payload, fb, err := readFramePooled(conn)
			if err != nil {
				w.retire()
				w.inbox.push(wev{err: err})
				return
			}
			w.inbox.push(wev{typ: typ, payload: payload, fb: fb})
		}
	}()

	for {
		ev := w.inbox.next()
		if ev.err != nil {
			// Coordinator gone: nothing to report to and no one to
			// outlive. EOF after mtStop never reaches here (Stop returns
			// below), so any read error is abnormal.
			return fmt.Errorf("dist: worker lost coordinator: %w", ev.err)
		}
		var err error
		if ev.mesh {
			err = w.handleMesh(ev)
		} else {
			switch ev.typ {
			case mtConfig:
				err = w.handleConfig(ev.payload)
			case mtExpand:
				err = w.handleExpand(ev.payload)
			case mtTraceQuery:
				err = w.handleTraceQuery(ev.payload)
			case mtStop:
				putFrame(ev.fb)
				w.send(&msgBye{WireFrames: w.wireFrames.Load(), WireBytes: w.wireBytes.Load()})
				return nil
			default:
				err = fmt.Errorf("dist: worker got unexpected message type %d", ev.typ)
			}
		}
		putFrame(ev.fb)
		if err != nil {
			w.send(&msgFatal{Err: err.Error()})
			return err
		}
	}
}

func (w *worker) retire() { w.retiredOnce.Do(func() { close(w.retired) }) }

func (w *worker) teardown() {
	w.retire()
	if w.hbStop != nil {
		close(w.hbStop)
	}
	if w.listener != nil {
		w.listener.Close()
	}
	for _, l := range w.links {
		if l != nil {
			l.shut()
		}
	}
	w.accepted.mu.Lock()
	conns := w.accepted.conns
	w.accepted.conns = nil
	w.accepted.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

type encoder interface{ encode() (byte, []byte) }

// send writes one control message with bounded-backoff retry on
// transient failures. A message that still cannot be written is this
// process's death, as a barrier file is: a worker living on without it
// would leave the coordinator waiting for it.
func (w *worker) send(m encoder) {
	typ, payload := m.encode()
	if _, err := retry.Do(func() error {
		if err := w.inj.beforeWrite(); err != nil {
			return err
		}
		w.writeMu.Lock()
		defer w.writeMu.Unlock()
		return writeFrame(w.conn, typ, payload)
	}); err != nil {
		w.exit(1)
	}
	w.wireFrames.Add(1)
	w.wireBytes.Add(uint64(5 + len(payload)))
}

func (w *worker) handleConfig(payload []byte) error {
	cfg, err := decodeConfig(payload)
	if err != nil {
		return err
	}
	if w.cfg != nil {
		return fmt.Errorf("dist: duplicate Config")
	}
	if err := w.configure(cfg); err != nil {
		w.send(&msgHello{Index: cfg.Index, Err: err.Error()})
		return err
	}
	w.send(&msgHello{Index: cfg.Index, States: w.store.Count(), Resident: w.store.Resident()})
	w.startHeartbeat()
	return nil
}

func (w *worker) configure(cfg *msgConfig) error {
	spec, err := buildModel(cfg.SpecName, cfg.SpecPayload)
	if err != nil {
		return err
	}
	injs, err := parseSwifi(cfg.Swifi)
	if err != nil {
		return err
	}
	w.cfg = cfg
	w.inj = newInjector(injs, cfg.Index)
	w.sealed = -1
	w.sent, w.recv, w.ended = make([]uint64, cfg.Workers), make([]uint64, cfg.Workers), make([]bool, cfg.Workers)
	stInv, trInv, kind := spec.StInv, spec.TrInv, "transition"
	if cfg.CheckState {
		trInv, kind = nil, "state"
	} else {
		stInv = nil
	}
	if stInv == nil && trInv == nil {
		return fmt.Errorf("dist: model %q defines no %s invariant", cfg.SpecName, kind)
	}
	rm, _ := spec.Model.(mc.ReducibleModel)
	if !cfg.Reduced {
		rm = nil
	} else if rm == nil || !rm.Reducible() {
		return fmt.Errorf("dist: reduced search requested but model %q is not reducible", cfg.SpecName)
	}
	owned := uint64(0)
	for shard, o := range cfg.Assign {
		if int(o) == cfg.Index {
			owned |= 1 << shard
		}
	}
	// The fleet's workers share the host: together their kernels run
	// about one goroutine per CPU.
	emit := make([]mc.Emitter, max(1, runtime.GOMAXPROCS(0)/cfg.Workers))
	for g := range emit {
		e := &meshEmitter{w: w, frames: make([]*frameBuf, cfg.Workers), groups: make([]uint64, cfg.Workers)}
		w.ems, emit[g] = append(w.ems, e), e
	}
	w.store = mc.NewShardStore(cfg.MaxStates, owned)
	w.store.UseKernel(spec.Model, rm, stInv, trInv, emit)
	if cfg.Restore != "" {
		if err := w.restore(cfg.Restore); err != nil {
			return err
		}
	}

	// Data plane: listen, then accept in the background. Each peer's
	// link exists before the kernel sends on it, and dials lazily.
	if cfg.MeshName == "" {
		return fmt.Errorf("dist: config names no mesh")
	}
	w.mesh = socketMesh{run: cfg.MeshName, uid: os.Getuid()}
	ln, err := w.mesh.listen(cfg.Index, cfg.Gen)
	if err != nil {
		return err
	}
	w.listener = ln
	w.links = make([]*peerLink, cfg.Workers)
	for dest := range w.links {
		if dest != cfg.Index {
			w.links[dest] = newPeerLink(w, dest)
		}
	}
	go w.acceptLoop(ln)
	return nil
}

// restore rebuilds the store from the chain whose manifest is at path:
// its own shards' arenas, and its share of the barrier's frontier, with
// their global refs.
func (w *worker) restore(path string) error {
	c, err := mc.OpenChain(path)
	if err == nil {
		w.frontier, err = w.store.Resume(c)
	}
	if err != nil {
		return fmt.Errorf("dist: restoring worker %d from %s: %w", w.cfg.Index, path, err)
	}
	w.refs = w.store.AssignRefs(w.frontier)
	w.sealed = c.Depth
	return nil
}

// acceptLoop serves inbound mesh connections, refusing any dialed by a
// worker of another fleet generation or naming no peer's index.
func (w *worker) acceptLoop(ln net.Listener) {
	for {
		conn, from, fromGen, err := w.mesh.accept(ln)
		if err != nil {
			return
		}
		if fromGen != w.cfg.Gen || from >= w.cfg.Workers || from == w.cfg.Index {
			conn.Close()
			continue
		}
		w.accepted.mu.Lock()
		w.accepted.conns = append(w.accepted.conns, conn)
		w.accepted.mu.Unlock()
		go w.readMesh(conn, from)
	}
}

func (w *worker) readMesh(conn net.Conn, from int) {
	for {
		typ, payload, fb, err := readFramePooled(conn)
		if err != nil {
			conn.Close()
			return
		}
		w.inbox.push(wev{mesh: true, from: from, typ: typ, payload: payload, fb: fb})
	}
}

func (w *worker) startHeartbeat() {
	interval := time.Duration(w.cfg.HeartbeatMs) * time.Millisecond
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	w.hbStop = make(chan struct{})
	go func(stop chan struct{}) {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if w.inj.heartbeatPaused() {
					continue
				}
				w.send(&msgHeartbeat{})
			}
		}
	}(w.hbStop)
}

// batchFlushBytes bounds an outgoing mtMeshBatch frame's payload. The
// threshold is per destination and kernel goroutine — a frame below it
// keeps accumulating across the whole expansion and is flushed once at
// the end, not once per frontier chunk.
const batchFlushBytes = 256 << 10

// handleExpand runs the open level's Expand: it claims the level-0
// roots, expands the frontier, ends the level on every outbound link and
// seals it if every peer's End is already in.
func (w *worker) handleExpand(payload []byte) error {
	m, err := decodeExpand(payload)
	if err != nil {
		return err
	}
	if w.store == nil {
		return fmt.Errorf("dist: Expand before Config")
	}
	w.inj.atLevel(m.Level, w.exit)
	if m.Level != w.sealed+1 || w.report != nil {
		return fmt.Errorf("dist: Expand of level %d, with level %d open (expanded: %v)", m.Level, w.sealed+1, w.report != nil)
	}
	if len(m.Slots) != len(w.frontier) {
		return fmt.Errorf("dist: Expand of %d slots for a frontier of %d", len(m.Slots), len(w.frontier))
	}
	for _, r := range m.Roots {
		w.store.Claim(r.Enc, uint64(r.J), 0, false, 0)
	}
	w.expand = m
	counts, viol, from, to := w.store.RunLevel(w.frontier, m.Slots, w.refs, m.Base)
	rep := &msgLevelReport{Level: m.Level, Counts: make([]uint32, len(counts))}
	for i, n := range counts {
		rep.Counts[i] = uint32(n)
	}
	if viol != nil {
		// from aliases the live tier, which the seal compacts.
		rep.HasViol, rep.ViolKey, rep.ViolFrom, rep.ViolTo = true, viol.Key, append([]byte(nil), from...), to
	}
	for _, e := range w.ems {
		e.flush(w.sent)
	}
	for dest, l := range w.links {
		if l != nil {
			l.enqueue(frameOf((&msgEnd{Level: m.Level, Groups: w.sent[dest]}).encode()))
		}
	}
	w.report = rep
	w.maybeSeal()
	return nil
}

// handleMesh applies one inbound mesh frame of the open level: a batch's
// successors are claimed and counted to their sender; an End must match
// that count, and may complete the barrier.
func (w *worker) handleMesh(ev wev) error {
	// open refuses a frame of another level, or one behind the sender's End.
	open := func(level int32) error {
		if level != w.sealed+1 || w.ended[ev.from] {
			return fmt.Errorf("dist: worker %d: mesh frame of level %d from worker %d, with level %d open (its End in: %v)",
				w.cfg.Index, level, ev.from, w.sealed+1, w.ended[ev.from])
		}
		return nil
	}
	switch ev.typ {
	case mtMeshBatch:
		level, base, groups, err := decodeMeshBatchHeader(ev.payload)
		if err == nil {
			err = open(level)
		}
		if err != nil {
			return err
		}
		n, err := walkMeshGroups(groups, func(slot, parent, j uint32, enc []byte) {
			w.store.Claim(enc, mc.ClaimKey(base, int(slot), int(j)), parent, true, base)
		})
		w.recv[ev.from] += uint64(n)
		return err
	case mtMeshEnd:
		m, err := decodeEnd(ev.payload)
		if err == nil {
			err = open(m.Level)
		}
		if err == nil && m.Groups != w.recv[ev.from] {
			err = fmt.Errorf("dist: worker %d level %d: End of %d groups from worker %d, which sent %d",
				w.cfg.Index, m.Level, m.Groups, ev.from, w.recv[ev.from])
		}
		if err != nil {
			return err
		}
		w.ended[ev.from] = true
		w.maybeSeal()
		return nil
	}
	return fmt.Errorf("dist: unexpected mesh message type %d", ev.typ)
}

// maybeSeal seals the open level once its own Expand is done and every
// peer's End is in: it closes the level into the store, writes the
// barrier files and sends the LevelReport.
func (w *worker) maybeSeal() {
	if w.report == nil {
		return
	}
	for from, l := range w.links {
		if l != nil && !w.ended[from] {
			return
		}
	}
	rep := w.report
	w.inj.levelDone(rep.Level)
	stViol, full := w.store.LevelFaults()
	rep.Full = full
	// Keys are final once the level's claims are all in.
	for _, ref := range stViol {
		rep.StViolKeys = append(rep.StViolKeys, w.store.KeyOf(ref))
		rep.StViolEncs = append(rep.StViolEncs, w.store.BytesOf(ref))
	}
	frontier, keys := w.store.DrainLevel()
	// The frontier just expanded is past any re-keying window (the level
	// has drained), so it closes into the arenas here; the seal compacts
	// the live tier, rewriting the refs just drained in place. The new
	// frontier then takes the global refs its children claim with.
	w.store.SealLevel(w.frontier, frontier)
	w.frontier = frontier
	w.refs = w.store.AssignRefs(frontier)
	rep.Keys = keys
	rep.States = w.store.Count()
	rep.Resident = w.store.Resident()
	rep.WireFrames = w.wireFrames.Load()
	rep.WireBytes = w.wireBytes.Load()
	// The barrier files. A write that fails for good is this process's
	// death, whose cause it reports before it exits: the next generation
	// writes the level again.
	if _, err := retry.Do(func() error {
		if err := w.inj.beforeWrite(); err != nil {
			return err
		}
		return w.store.WriteBarrier(w.cfg.Chain, w.cfg.Index, rep.Level, w.frontier)
	}); err != nil {
		w.send(&msgFatal{Err: fmt.Sprintf("barrier files: %v", err)})
		w.exit(1)
	}
	w.sealed, w.report = rep.Level, nil
	clear(w.sent)
	clear(w.recv)
	clear(w.ended)
	w.send(rep)
}

func (w *worker) handleTraceQuery(payload []byte) error {
	m, err := decodeTraceQuery(payload)
	if err != nil {
		return err
	}
	if w.store == nil {
		return fmt.Errorf("dist: TraceQuery before Config")
	}
	reply := &msgTraceReply{}
	if m.ByRef {
		reply.Enc, reply.Parent, reply.HasParent, reply.Found = w.store.StateOf(m.Ref)
	} else {
		reply.Parent, reply.HasParent, reply.Found = w.store.ParentOf(m.Enc)
	}
	w.send(reply)
	return nil
}
