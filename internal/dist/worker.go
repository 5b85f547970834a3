package dist

// The worker: one process owning a slice of the shard space. It
// rebuilds the model from the spec in msgConfig, then serves the
// coordinator's control protocol while exchanging successor batches
// directly with its peers over the mesh (mesh.go).
//
// Concurrency shape: the exploration itself is single-threaded — one
// main loop owns the store, the frontier and all protocol state.
// Around it run only I/O pumps: a reader per inbound connection
// (coordinator + accepted mesh links) feeding one unbounded two-lane
// inbox, a sender goroutine per outbound mesh link, and the heartbeat.
// The inbox is unbounded on purpose: a bounded queue would close a
// backpressure cycle across the worker ring (everyone blocked sending
// into everyone's full queue); unbounded, memory is bounded by a
// level's frame volume, which the level barrier already bounds.
//
// Ordering: control messages are handled strictly in arrival order —
// except that a pending seal blocks later control traffic (other than
// Stop) until its Expect counts are met, because the messages behind it
// (the next level's Expand) assume the sealed level's claims are
// drained. Mesh frames are applied whenever they arrive: claims are
// idempotent and carry position-derived keys, so arrival order is
// irrelevant, and per-sender counting decides seal readiness. A worker
// accepts mesh connections only from its own fleet generation, so a
// zombie of an older generation (a stalled worker declared dead) can
// never add to the counts.
//
// Level numbering: level 0 is the initial states (delivered as control
// batches, never expanded); level L >= 1 is the expansion producing
// depth-L states. The barrier at Seal(L) closes level L-1 into the
// store's arenas, gives the new frontier its global refs, and writes the
// worker's files of the checkpoint chain (mc.BarrierFiles): its segment —
// the arena bytes appended since its last write, so barrier cost is
// proportional to the level, not the visited set — and its frontier. A
// failed write is the worker's death (recover.go).

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ttastar/internal/mc"
	"ttastar/internal/retry"
)

// Worker-side write retry budget: transient failures (including SWIFI
// flakywrite injections) back off 5, 10, 20ms before giving up and
// letting the coordinator's crash detection take over.
const (
	workerWriteAttempts = 4
	workerWriteBackoff  = 5 * time.Millisecond
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

// workerInbox is the two-lane unbounded event queue. Mesh events are
// always deliverable; control events can be held behind a pending seal
// (Stop and connection errors jump the queue).
type workerInbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	mesh  []wev
	coord []wev
}

func newWorkerInbox() *workerInbox {
	q := &workerInbox{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *workerInbox) push(ev wev) {
	q.mu.Lock()
	if ev.mesh {
		q.mesh = append(q.mesh, ev)
	} else {
		q.coord = append(q.coord, ev)
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

func (q *workerInbox) next(blockCoord bool) wev {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if len(q.mesh) > 0 {
			ev := q.mesh[0]
			q.mesh = q.mesh[1:]
			return ev
		}
		if len(q.coord) > 0 {
			ev := q.coord[0]
			if !blockCoord || ev.err != nil || ev.typ == mtStop {
				q.coord = q.coord[1:]
				return ev
			}
		}
		q.cond.Wait()
	}
}

// groupAcc accumulates one frontier slot's successors bound for one
// shard, in wire layout, before the group header can be written (the
// successor count precedes the successors).
type groupAcc struct {
	active bool
	njs    int
	prevJ  uint32
	succs  []byte
}

type worker struct {
	conn    io.ReadWriteCloser
	writeMu sync.Mutex
	exit    func(code int)
	inj     *injector

	cfg    *msgConfig
	spec   ModelSpec
	exp    mc.Expander
	canon  mc.CanonicalExpander
	stInv  mc.StateInvariantBytes
	trInv  mc.TransitionInvariantBytes
	store  *mc.ShardStore
	assign [mc.NumShards]uint8

	frontier []uint32 // live refs, in DrainLevel order
	refs     []uint32 // the frontier's global refs, aligned
	stViol   []uint32
	full     bool

	// data plane
	mesh     socketMesh
	listener net.Listener
	links    []*peerLink
	inbox    *workerInbox
	accepted struct {
		mu    sync.Mutex
		conns []io.Closer
	}
	wireFrames atomic.Uint64
	wireBytes  atomic.Uint64

	// seal/counting state
	got          map[uint64]uint64 // level<<32|sender -> groups received
	pendingSeals []*msgSeal

	// per-expansion state
	accs      [mc.NumShards]groupAcc
	gcount    []uint64 // per-destination groups generated by the current expand
	outFrames []*frameBuf

	hbStop chan struct{}
	// retired is closed once the coordinator is gone: the worker's
	// generation is over, and its mesh dials give up (see mesh.go).
	retired     chan struct{}
	retiredOnce sync.Once
}

func gotKey(level int32, sender int) uint64 {
	return uint64(uint32(level))<<32 | uint64(uint32(sender))
}

// RunWorker serves the coordinator protocol on conn until mtStop or
// connection loss. It is the body of the hidden `ttamc -dist-worker`
// mode and of the in-process pipe launcher.
func RunWorker(conn io.ReadWriteCloser, opts WorkerOptions) error {
	w := &worker{
		conn:    conn,
		exit:    opts.Exit,
		inbox:   newWorkerInbox(),
		got:     make(map[uint64]uint64),
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
		ev := w.inbox.next(len(w.pendingSeals) > 0)
		if ev.err != nil {
			// Coordinator gone: nothing to report to and no one to
			// outlive. EOF after mtStop never reaches here (Stop returns
			// below), so any read error is abnormal.
			return fmt.Errorf("dist: worker lost coordinator: %w", ev.err)
		}
		var err error
		if ev.mesh {
			err = w.handleMeshBatch(ev)
		} else {
			switch ev.typ {
			case mtConfig:
				err = w.handleConfig(ev.payload)
			case mtExpand:
				err = w.handleExpand(ev.payload)
			case mtInit:
				err = w.handleInit(ev.payload)
			case mtSeal:
				err = w.handleSeal(ev.payload)
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
		if err == nil {
			err = w.tryExecSeals()
		}
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
	if _, err := retry.Do(workerWriteAttempts, workerWriteBackoff, nil, func() error {
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
	w.spec = spec
	w.inj = newInjector(injs, cfg.Index)
	w.assign = cfg.Assign
	if cfg.CheckState {
		if spec.StInv == nil {
			return fmt.Errorf("dist: model %q defines no state invariant", cfg.SpecName)
		}
		w.stInv = spec.StInv
	} else {
		if spec.TrInv == nil {
			return fmt.Errorf("dist: model %q defines no transition invariant", cfg.SpecName)
		}
		w.trInv = spec.TrInv
	}
	if cfg.Reduced {
		rm, ok := spec.Model.(mc.ReducibleModel)
		if !ok || !rm.Reducible() {
			return fmt.Errorf("dist: reduced search requested but model %q is not reducible", cfg.SpecName)
		}
		ce := rm.NewReducedExpander()
		w.exp, w.canon = ce, ce
	} else {
		w.exp = mc.ExpanderFor(spec.Model)
	}
	owned := uint64(0)
	for shard, o := range cfg.Assign {
		if int(o) == cfg.Index {
			owned |= 1 << shard
		}
	}
	w.store = mc.NewShardStore(cfg.MaxStates, owned)
	if cfg.Restore != "" {
		if err := w.restore(cfg.Restore); err != nil {
			return err
		}
	}

	// Data plane: listen, then accept in the background; peers are
	// dialed lazily on first send.
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
	w.gcount = make([]uint64, cfg.Workers)
	w.outFrames = make([]*frameBuf, cfg.Workers)
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
	return nil
}

// acceptLoop serves inbound mesh connections, refusing any dialed by a
// worker of another fleet generation.
func (w *worker) acceptLoop(ln net.Listener) {
	for {
		conn, from, fromGen, err := w.mesh.accept(ln)
		if err != nil {
			return
		}
		if fromGen != w.cfg.Gen {
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
// threshold is per destination — a destination whose frames sit below
// it keeps accumulating across the whole expansion and is flushed once
// at the end, not once per frontier chunk.
const batchFlushBytes = 256 << 10

func (w *worker) link(dest int) *peerLink {
	l := w.links[dest]
	if l == nil {
		l = newPeerLink(w, dest)
		w.links[dest] = l
	}
	return l
}

// frameFor returns the open outgoing frame for dest, starting one if
// needed.
func (w *worker) frameFor(dest int, level int32, base uint64) *frameBuf {
	fb := w.outFrames[dest]
	if fb == nil {
		fb = beginMeshBatch(level, base)
		w.outFrames[dest] = fb
	}
	return fb
}

func (w *worker) handleExpand(payload []byte) error {
	m, err := decodeExpand(payload)
	if err != nil {
		return err
	}
	if w.store == nil {
		return fmt.Errorf("dist: Expand before Config")
	}
	w.inj.atLevel(m.Level, w.exit)
	if len(m.Slots) > len(w.frontier) {
		return fmt.Errorf("dist: Expand of %d slots exceeds frontier of %d", len(m.Slots), len(w.frontier))
	}
	me := uint8(w.cfg.Index)
	counts := make([]uint32, len(m.Slots))
	for i := range w.gcount {
		w.gcount[i] = 0
	}
	var violKey uint64
	var violFrom, violTo []byte
	hasViol := false
	var touched []uint8 // shards this slot produced foreign successors for
	for i, slot := range m.Slots {
		sb := w.store.BytesOf(w.frontier[i])
		parent := w.refs[i]
		succs := w.exp.Successors(sb)
		counts[i] = uint32(len(succs))
		touched = touched[:0]
		for j, succ := range succs {
			key := mc.ClaimKey(m.Base, int(slot), j)
			// The invariant sees the raw successor before
			// canonicalization, exactly as in the engine; a violating
			// transition is never claimed or forwarded.
			if w.trInv != nil && !w.trInv(sb, succ) {
				if !hasViol || key < violKey {
					hasViol = true
					violKey = key
					violFrom = append(violFrom[:0], sb...)
					violTo = append(violTo[:0], succ...)
				}
				continue
			}
			if w.canon != nil {
				w.canon.Canonicalize(succ)
			}
			shard := mc.ShardOf(mc.HashState(succ))
			if w.assign[shard] == me {
				w.claim(succ, key, parent, true, m.Base)
			} else {
				acc := &w.accs[shard]
				if !acc.active {
					acc.active = true
					acc.njs = 0
					acc.prevJ = 0
					acc.succs = acc.succs[:0]
					touched = append(touched, uint8(shard))
				}
				acc.succs = appendUvarint(acc.succs, uint64(uint32(j)-acc.prevJ))
				acc.prevJ = uint32(j)
				acc.succs = appendUvarint(acc.succs, uint64(len(succ)))
				acc.succs = append(acc.succs, succ...)
				acc.njs++
			}
		}
		// Close this slot's groups straight into their destinations'
		// open frames.
		for _, shard := range touched {
			acc := &w.accs[shard]
			acc.active = false
			dest := int(w.assign[shard])
			w.gcount[dest]++
			fb := w.frameFor(dest, m.Level, m.Base)
			fb.u(uint64(slot))
			fb.u(uint64(parent))
			fb.u(uint64(acc.njs))
			fb.raw(acc.succs)
			if fb.payloadLen() >= batchFlushBytes {
				w.outFrames[dest] = nil
				w.link(dest).enqueue(fb)
			}
		}
	}
	// Flush every open frame and sync the links, so ExpandDone declares
	// only groups already on the wire and every link queue is empty
	// between control messages.
	for dest, fb := range w.outFrames {
		if fb == nil {
			continue
		}
		w.outFrames[dest] = nil
		if fb.payloadLen() == 0 {
			putFrame(fb)
			continue
		}
		w.link(dest).enqueue(fb)
	}
	w.flushLinks()
	done := &msgExpandDone{Level: m.Level, ID: m.ID, Counts: counts,
		HasViol: hasViol, ViolKey: violKey, ViolFrom: violFrom, ViolTo: violTo}
	for dest, n := range w.gcount {
		if n > 0 {
			done.SentTo = append(done.SentTo, sentCount{Dest: dest, Groups: n})
		}
	}
	w.send(done)
	return nil
}

func (w *worker) flushLinks() {
	var waits []chan struct{}
	for _, l := range w.links {
		if l != nil {
			if ch := l.flush(); ch != nil {
				waits = append(waits, ch)
			}
		}
	}
	for _, ch := range waits {
		<-ch
	}
}

// claim admits one successor into the store: a new state is checked
// against the state invariant, and a spent budget marks the level full.
func (w *worker) claim(enc []byte, key uint64, parent uint32, hasParent bool, base uint64) {
	st, ref := w.store.Claim(enc, key, parent, hasParent, base)
	if st == mc.ClaimNew && w.stInv != nil && !w.stInv(enc) {
		w.stViol = append(w.stViol, ref)
	}
	if st == mc.ClaimFull {
		w.full = true
	}
}

// handleMeshBatch applies one inbound mesh frame: claim every
// successor, then credit the sender's count the level's seal is
// waiting on.
func (w *worker) handleMeshBatch(ev wev) error {
	if ev.typ != mtMeshBatch {
		return fmt.Errorf("dist: unexpected mesh message type %d", ev.typ)
	}
	if w.store == nil {
		return fmt.Errorf("dist: mesh batch before Config")
	}
	level, base, groups, err := decodeMeshBatchHeader(ev.payload)
	if err != nil {
		return err
	}
	n, err := walkMeshGroups(groups, func(slot, parent, j uint32, enc []byte) {
		key := mc.ClaimKey(base, int(slot), int(j))
		w.claim(enc, key, parent, true, base)
	})
	if err != nil {
		return err
	}
	w.got[gotKey(level, ev.from)] += uint64(n)
	return nil
}

func (w *worker) handleInit(payload []byte) error {
	m, err := decodeInit(payload)
	if err != nil {
		return err
	}
	if w.store == nil {
		return fmt.Errorf("dist: Init before Config")
	}
	for k := range m.Js {
		w.claim(m.Encs[k], uint64(m.Js[k]), 0, false, 0)
	}
	return nil
}

// handleSeal parks the seal until its Expect counts are met (see
// tryExecSeals).
func (w *worker) handleSeal(payload []byte) error {
	m, err := decodeSeal(payload)
	if err != nil {
		return err
	}
	if w.store == nil {
		return fmt.Errorf("dist: Seal before Config")
	}
	w.pendingSeals = append(w.pendingSeals, m)
	return nil
}

// tryExecSeals executes pending seals, in order, whose Expect counts
// have been met. A count exceeding its Expect is a protocol bug and is
// surfaced loudly rather than masked.
func (w *worker) tryExecSeals() error {
	for len(w.pendingSeals) > 0 {
		m := w.pendingSeals[0]
		ready := true
		for _, e := range m.Expect {
			got := w.got[gotKey(m.Level, e.Sender)]
			if got > e.Groups {
				return fmt.Errorf("dist: worker %d level %d: got %d groups from worker %d, expected %d",
					w.cfg.Index, m.Level, got, e.Sender, e.Groups)
			}
			if got < e.Groups {
				ready = false
				break
			}
		}
		if !ready {
			return nil
		}
		w.pendingSeals = w.pendingSeals[1:]
		if err := w.execSeal(m); err != nil {
			return err
		}
	}
	return nil
}

func (w *worker) execSeal(m *msgSeal) error {
	w.inj.levelDone(m.Level)
	rep := &msgLevelReport{
		Level: m.Level,
		Seq:   m.Seq,
		Full:  w.full,
	}
	w.full = false
	// Keys are final once the level has drained.
	for _, ref := range w.stViol {
		rep.StViolKeys = append(rep.StViolKeys, w.store.KeyOf(ref))
		rep.StViolEncs = append(rep.StViolEncs, w.store.BytesOf(ref))
	}
	w.stViol = w.stViol[:0]
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
	// death: the next generation writes the level again.
	if _, err := retry.Do(workerWriteAttempts, workerWriteBackoff, nil, func() error {
		if err := w.inj.beforeWrite(); err != nil {
			return err
		}
		return w.store.WriteBarrier(w.cfg.Chain, w.cfg.Index, m.Level, w.frontier)
	}); err != nil {
		fmt.Fprintf(os.Stderr, "dist: worker %d level %d: barrier files: %v\n", w.cfg.Index, m.Level, err)
		w.exit(1)
	}
	// Counts for levels this seal closes can no longer be referenced by
	// any future Expect.
	for k := range w.got {
		if int32(k>>32) < m.Level {
			delete(w.got, k)
		}
	}
	w.send(rep)
	return nil
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

// appendUvarint appends v to dst in varint encoding.
func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}
