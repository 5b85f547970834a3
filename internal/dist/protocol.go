// Package dist is the crash-tolerant multi-process exploration layer: a
// coordinator/worker protocol that partitions the visited set by the
// engine's shard hash across OS processes, exchanges frontier batches in
// the packed state encoding, and synchronizes on level barriers at the
// coordinator.
//
// Topology is a control-plane/data-plane split. The coordinator star
// carries only control traffic — config, expand commands, level
// barriers, heartbeats, snapshot acks — while successor batches flow
// point-to-point over an N×(N−1) worker↔worker mesh (mesh.go), routed
// by the 64-shard hash. The star's barrier property is preserved by
// counting instead of observing: a sender declares in its mtExpandDone
// how many groups it generated for each destination, the coordinator
// sums the declarations into each mtSeal's Expect list, and a worker
// closes a level only once its per-sender receive counts match. Crash
// recovery is central too: on any worker death the coordinator restarts
// the whole fleet, one generation on, from the last closed level
// barrier and redoes the interrupted level (recover.go).
//
// Determinism is the engine's own argument extended across process
// boundaries: every successor carries the claim key the serial sweep
// would examine it under (levelBase + slot<<24 + succ), each state has
// exactly one owning worker (its shard's), so all claims of a state meet
// in one store and reduce by min key exactly as in the single-process
// visited set. Claims are idempotent and keys are position-derived, so
// neither mesh arrival order nor a redone level can perturb the result.
// Verdicts, counts and counterexample traces are byte-identical to the
// in-process engine for any worker count — and, because every level is
// redone from level-barrier snapshots, under injected worker crashes
// too (or the run is refused with ErrUnrecoverable).
package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"ttastar/internal/mc"
)

// Wire format: length-prefixed frames over an arbitrary byte stream
// (subprocess stdio pipes and Unix-socket mesh links in production,
// in-memory pipes in tests).
//
//	frame   := length:u32le  type:u8  payload
//	payload := uvarint fields, strings/byte-slices length-prefixed
//
// The payload codec mirrors the checkpoint file codec: hand-rolled
// uvarints, length guards on every count, and a sticky error so decoders
// read straight through without per-field checks. The data-plane frame
// (mtMeshBatch) additionally delta-codes successor indices and drops
// per-group framing the receiver can infer, and both directions run
// over a size-classed frame-buffer free list so the steady state is
// allocation-free.

// Message types. Control (C→W, W→C) and mesh (W→W) share one tag space.
const (
	mtConfig     byte = iota + 1 // C→W: identity, model spec, shard map
	mtExpand                     // C→W: expand a slice of the frontier
	mtInit                       // C→W: level-0 initial-state claims for your shards
	mtSeal                       // C→W: level complete once Expect counts match
	mtTraceQuery                 // C→W: resolve a state's trace parent
	mtStop                       // C→W: shut down

	mtHello       // W→C: Config processed, ready
	mtExpandDone  // W→C: per-slot counts, per-destination declarations, violation candidate
	mtLevelReport // W→C: claimed keys, state-invariant violations, snapshot ack
	mtTraceReply  // W→C: TraceQuery answer
	mtHeartbeat   // W→C: liveness (sent from a side goroutine)
	mtBye         // W→C: final counters, shutting down
	mtFatal       // W→C: unrecoverable worker error

	mtMeshBatch // W→W: successor claim groups for the receiver's shards
)

// maxFrame bounds a single frame so a corrupt length prefix cannot ask
// for gigabytes.
const maxFrame = 1 << 30

// ---------------------------------------------------------------------
// Pooled frame buffers
//
// Every frame — sent or received — lives in a frameBuf drawn from a
// size-classed free list, so the steady-state data plane allocates
// nothing. A buffer is pooled under the floor power-of-two class of its
// capacity and grabbed by the ceiling class of the requested size, so a
// grabbed buffer always fits the request. Buffers above the largest
// class (or below the smallest) fall back to the garbage collector.

type frameBuf struct{ b []byte }

const (
	frameClassMin = 9  // 512 B
	frameClassMax = 26 // 64 MiB
)

var framePools [frameClassMax - frameClassMin + 1]sync.Pool

// frameClassCeil returns the smallest class whose size covers n, or -1
// when n exceeds the largest pooled class.
func frameClassCeil(n int) int {
	for c := frameClassMin; c <= frameClassMax; c++ {
		if n <= 1<<c {
			return c
		}
	}
	return -1
}

// frameClassFloor returns the largest class not exceeding cap c, or -1
// when the capacity is below the smallest class.
func frameClassFloor(n int) int {
	cl := -1
	for c := frameClassMin; c <= frameClassMax; c++ {
		if n >= 1<<c {
			cl = c
		}
	}
	return cl
}

// grabFrame returns a frameBuf with len 0 and capacity >= n.
func grabFrame(n int) *frameBuf {
	c := frameClassCeil(n)
	if c < 0 {
		return &frameBuf{b: make([]byte, 0, n)}
	}
	if v := framePools[c-frameClassMin].Get(); v != nil {
		fb := v.(*frameBuf)
		fb.b = fb.b[:0]
		return fb
	}
	return &frameBuf{b: make([]byte, 0, 1<<c)}
}

// putFrame returns a buffer to the free list.
func putFrame(fb *frameBuf) {
	if fb == nil {
		return
	}
	c := frameClassFloor(cap(fb.b))
	if c < 0 {
		return
	}
	fb.b = fb.b[:0]
	framePools[c-frameClassMin].Put(fb)
}

func (fb *frameBuf) u(v uint64) {
	var s [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(s[:], v)
	fb.b = append(fb.b, s[:n]...)
}

func (fb *frameBuf) raw(p []byte) { fb.b = append(fb.b, p...) }

func (fb *frameBuf) bytes(p []byte) {
	fb.u(uint64(len(p)))
	fb.raw(p)
}

// payloadLen is the number of payload bytes appended so far.
func (fb *frameBuf) payloadLen() int { return len(fb.b) - 5 }

// finish patches the length header and returns the wire bytes.
func (fb *frameBuf) finish() []byte {
	binary.LittleEndian.PutUint32(fb.b[:4], uint32(len(fb.b)-4))
	return fb.b
}

func writeFrame(w io.Writer, typ byte, payload []byte) error {
	// Assemble header+payload in a pooled buffer and write once: a frame
	// is never interleaved even on a shared stream, and the send path
	// does not allocate.
	fb := grabFrame(5 + len(payload))
	fb.b = append(fb.b, 0, 0, 0, 0, typ)
	fb.b = append(fb.b, payload...)
	_, err := w.Write(fb.finish())
	putFrame(fb)
	return err
}

// readFramePooled reads one frame into a pooled buffer. The returned
// frameBuf owns the payload view; the caller releases it with putFrame
// once the message is fully consumed.
func readFramePooled(r io.Reader) (byte, []byte, *frameBuf, error) {
	// The length header is read into a pooled buffer too: a stack array
	// would escape through the io.Reader interface and cost one heap
	// allocation per frame.
	fb := grabFrame(4)
	fb.b = fb.b[:4]
	if _, err := io.ReadFull(r, fb.b); err != nil {
		putFrame(fb)
		return 0, nil, nil, err
	}
	n := binary.LittleEndian.Uint32(fb.b)
	if n == 0 || n > maxFrame {
		putFrame(fb)
		return 0, nil, nil, fmt.Errorf("dist: frame length %d out of range", n)
	}
	if int(n) > cap(fb.b) {
		putFrame(fb)
		fb = grabFrame(int(n))
	}
	fb.b = fb.b[:n]
	if _, err := io.ReadFull(r, fb.b); err != nil {
		putFrame(fb)
		return 0, nil, nil, err
	}
	return fb.b[0], fb.b[1:], fb, nil
}

func readFrame(r io.Reader) (byte, []byte, error) {
	typ, payload, fb, err := readFramePooled(r)
	if err != nil {
		return 0, nil, err
	}
	// Copy out so the pooled buffer can be recycled; the hot paths use
	// readFramePooled directly.
	out := append([]byte(nil), payload...)
	putFrame(fb)
	return typ, out, nil
}

// wbuf serializes a payload with uvarints.
type wbuf struct {
	b       []byte
	scratch [binary.MaxVarintLen64]byte
}

func (w *wbuf) u(v uint64) {
	n := binary.PutUvarint(w.scratch[:], v)
	w.b = append(w.b, w.scratch[:n]...)
}
func (w *wbuf) i(v int)      { w.u(uint64(v)) }
func (w *wbuf) u32(v uint32) { w.u(uint64(v)) }
func (w *wbuf) byte1(v byte) { w.b = append(w.b, v) }
func (w *wbuf) boolean(v bool) {
	if v {
		w.byte1(1)
	} else {
		w.byte1(0)
	}
}
func (w *wbuf) bytes(p []byte) { w.u(uint64(len(p))); w.b = append(w.b, p...) }
func (w *wbuf) str(s string)   { w.bytes([]byte(s)) }
func (w *wbuf) raw(p []byte)   { w.b = append(w.b, p...) }

// rbuf parses a payload with length guards and a sticky error.
type rbuf struct {
	r   *bytes.Reader
	err error
}

func newRbuf(p []byte) *rbuf { return &rbuf{r: bytes.NewReader(p)} }

func (r *rbuf) u() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		// ReadUvarint returns the partial value of an overflowing
		// varint; a count read from it must not size an allocation.
		r.err = fmt.Errorf("dist: truncated message")
		return 0
	}
	return v
}
func (r *rbuf) i() int      { return int(r.u()) }
func (r *rbuf) u32() uint32 { return uint32(r.u()) }
func (r *rbuf) byte1() byte {
	if r.err != nil {
		return 0
	}
	b, err := r.r.ReadByte()
	if err != nil {
		r.err = fmt.Errorf("dist: truncated message")
	}
	return b
}
func (r *rbuf) boolean() bool { return r.byte1() != 0 }
func (r *rbuf) bytes() []byte {
	n := r.u()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.r.Len()) {
		r.err = fmt.Errorf("dist: length %d exceeds remaining payload", n)
		return nil
	}
	buf := make([]byte, n)
	io.ReadFull(r.r, buf)
	return buf
}
func (r *rbuf) str() string { return string(r.bytes()) }

// count guards an element count against the remaining payload (every
// element costs at least one byte).
func (r *rbuf) count() int {
	n := r.u()
	if r.err == nil && n > uint64(r.r.Len()) {
		r.err = fmt.Errorf("dist: element count %d exceeds remaining payload", n)
		return 0
	}
	return int(n)
}

func (r *rbuf) done() error {
	if r.err != nil {
		return r.err
	}
	if r.r.Len() != 0 {
		return fmt.Errorf("dist: %d trailing bytes", r.r.Len())
	}
	return nil
}

// ---------------------------------------------------------------------
// Mesh data-plane codec (mtMeshBatch)
//
//	payload := level:u32varint  base:uvarint  group*
//	group   := slot:uvarint  parent:uvarint
//	           nsucc:uvarint  (jdelta:uvarint encLen:uvarint enc)*nsucc
//
// parent is the expanded frontier state's global ref (mc.ShardStore's
// AssignRefs), which names it on every worker. Successor indices within
// a group are strictly ascending (the serial sweep order), so they are
// delta-coded; the first delta is the absolute index. Shard and
// has-parent markers are dropped from the wire: the receiver owns
// whatever arrives, and mesh groups always have parents (roots are
// routed at level 0 over the control plane).

// beginMeshBatch starts an mtMeshBatch frame in a pooled buffer: 4-byte
// length placeholder, type byte, header, then groups appended raw;
// finish patches the length so the whole frame goes out in one Write.
// The buffer comes from the class that holds a frame filled to the
// flush threshold, so filling it never regrows it and putFrame returns
// it to the class the next batch draws from.
func beginMeshBatch(level int32, base uint64) *frameBuf {
	fb := grabFrame(2 * batchFlushBytes)
	fb.b = append(fb.b, 0, 0, 0, 0, mtMeshBatch)
	fb.u(uint64(uint32(level)))
	fb.u(base)
	return fb
}

// bdec is the lean zero-copy decoder for the data plane: explicit
// bounds checks, views instead of copies, no bytes.Reader.
type bdec struct {
	p   []byte
	off int
}

func (d *bdec) more() bool { return d.off < len(d.p) }

func (d *bdec) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(d.p[d.off:])
	if n <= 0 {
		return 0, false
	}
	d.off += n
	return v, true
}

func (d *bdec) view(n uint64) ([]byte, bool) {
	if n > uint64(len(d.p)-d.off) {
		return nil, false
	}
	v := d.p[d.off : d.off+int(n)]
	d.off += int(n)
	return v, true
}

var errMeshBatchCorrupt = fmt.Errorf("dist: corrupt mesh batch")

// decodeMeshBatchHeader splits an mtMeshBatch payload into its level,
// base and the raw group sequence.
func decodeMeshBatchHeader(p []byte) (level int32, base uint64, groups []byte, err error) {
	d := bdec{p: p}
	lv, ok1 := d.uvarint()
	b, ok2 := d.uvarint()
	if !ok1 || !ok2 || lv > 1<<31 {
		return 0, 0, nil, errMeshBatchCorrupt
	}
	return int32(uint32(lv)), b, p[d.off:], nil
}

// walkMeshGroups parses a group sequence (a mesh batch payload after
// its header), invoking visit per
// successor with views into p. Malformed input is rejected with an
// error; visit is never called past the first defect.
func walkMeshGroups(p []byte, visit func(slot, parent, j uint32, enc []byte)) (groups int, err error) {
	d := bdec{p: p}
	for d.more() {
		slot, ok := d.uvarint()
		if !ok || slot > 1<<32-1 {
			return groups, errMeshBatchCorrupt
		}
		parent, ok := d.uvarint()
		if !ok || parent > 1<<32-1 {
			return groups, errMeshBatchCorrupt
		}
		nsucc, ok := d.uvarint()
		// Each successor costs at least two bytes (jdelta + encLen).
		if !ok || nsucc > uint64(len(d.p)-d.off) {
			return groups, errMeshBatchCorrupt
		}
		j := uint64(0)
		for k := uint64(0); k < nsucc; k++ {
			jd, ok := d.uvarint()
			if !ok {
				return groups, errMeshBatchCorrupt
			}
			j += jd
			if j > 1<<32-1 {
				return groups, errMeshBatchCorrupt
			}
			elen, ok := d.uvarint()
			if !ok {
				return groups, errMeshBatchCorrupt
			}
			enc, ok := d.view(elen)
			if !ok {
				return groups, errMeshBatchCorrupt
			}
			if visit != nil {
				visit(uint32(slot), uint32(parent), uint32(j), enc)
			}
		}
		groups++
	}
	return groups, nil
}

// msgConfig initializes a worker: identity, the model spec to rebuild,
// the invariant kind to check, the shard ownership map, snapshot
// location, how much of its own snapshot chain to restore, the SWIFI
// script and the heartbeat cadence.
type msgConfig struct {
	Index       int
	Gen         int // fleet generation; addresses every mesh endpoint of this fleet
	Workers     int
	SpecName    string
	SpecPayload string
	Reduced     bool
	CheckState  bool // check the spec's state invariant (else its transition invariant)
	MaxStates   int
	Assign      [mc.NumShards]uint8
	SnapshotDir string
	MeshDir     string // Unix-socket rendezvous dir (subprocess workers)
	// Restore lists the levels of this worker index's acknowledged
	// barrier snapshots, in order: their segments concatenate into the
	// store, and the last one's frontier is the frontier. Empty starts
	// empty.
	Restore     []int32
	Swifi       string
	HeartbeatMs int
}

func (m *msgConfig) encode() (byte, []byte) {
	var w wbuf
	w.i(m.Index)
	w.i(m.Gen)
	w.i(m.Workers)
	w.str(m.SpecName)
	w.str(m.SpecPayload)
	w.boolean(m.Reduced)
	w.boolean(m.CheckState)
	w.i(m.MaxStates)
	w.raw(m.Assign[:])
	w.str(m.SnapshotDir)
	w.str(m.MeshDir)
	w.i(len(m.Restore))
	for _, l := range m.Restore {
		w.u32(uint32(l))
	}
	w.str(m.Swifi)
	w.i(m.HeartbeatMs)
	return mtConfig, w.b
}

func decodeConfig(p []byte) (*msgConfig, error) {
	r := newRbuf(p)
	m := &msgConfig{
		Index:       r.i(),
		Gen:         r.i(),
		Workers:     r.i(),
		SpecName:    r.str(),
		SpecPayload: r.str(),
		Reduced:     r.boolean(),
		CheckState:  r.boolean(),
		MaxStates:   r.i(),
	}
	for i := range m.Assign {
		m.Assign[i] = r.byte1()
	}
	m.SnapshotDir = r.str()
	m.MeshDir = r.str()
	nr := r.count()
	for i := 0; i < nr && r.err == nil; i++ {
		m.Restore = append(m.Restore, int32(r.u32()))
	}
	m.Swifi = r.str()
	m.HeartbeatMs = r.i()
	return m, r.done()
}

// msgExpand asks a worker to expand its first len(Slots) frontier
// states — its whole frontier array. Slots[i] is the global frontier
// slot of the i-th state, so claim keys are Base + Slots[i]<<24 + j.
type msgExpand struct {
	Level int32
	Base  uint64
	ID    uint32
	Slots []uint32
}

func (m *msgExpand) encode() (byte, []byte) {
	var w wbuf
	w.u32(uint32(m.Level))
	w.u(m.Base)
	w.u32(m.ID)
	w.i(len(m.Slots))
	for _, s := range m.Slots {
		w.u32(s)
	}
	return mtExpand, w.b
}

func decodeExpand(p []byte) (*msgExpand, error) {
	r := newRbuf(p)
	m := &msgExpand{Level: int32(r.u32()), Base: r.u(), ID: r.u32()}
	n := r.count()
	m.Slots = make([]uint32, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		m.Slots = append(m.Slots, r.u32())
	}
	return m, r.done()
}

// msgInit delivers the level-0 roots of one shard to its owner over the
// control plane (again to each fleet generation that redoes level 0);
// all expansion traffic rides the mesh
// (mtMeshBatch). Initial state Js[k] has encoding Encs[k] and is claimed
// under key Js[k].
type msgInit struct {
	Js   []uint32
	Encs [][]byte
}

func (m *msgInit) encode() (byte, []byte) {
	var w wbuf
	w.i(len(m.Js))
	for k := range m.Js {
		w.u32(m.Js[k])
		w.bytes(m.Encs[k])
	}
	return mtInit, w.b
}

func decodeInit(p []byte) (*msgInit, error) {
	r := newRbuf(p)
	n := r.count()
	m := &msgInit{Js: make([]uint32, 0, n), Encs: make([][]byte, 0, n)}
	for i := 0; i < n && r.err == nil; i++ {
		m.Js = append(m.Js, r.u32())
		m.Encs = append(m.Encs, r.bytes())
	}
	return m, r.done()
}

// msgSeal tells a worker every sender has declared its mesh traffic for
// Level: once the worker's receive counts reach every Expect entry it
// can close the level — drain its claims, snapshot, and send its
// mtLevelReport (stamped with Seq so the coordinator can match it).
// Next is the claim-key base the next level starts at, recorded in the
// barrier snapshot.
type msgSeal struct {
	Level  int32
	Seq    uint32
	Next   uint64
	Expect []expectCount
}

// expectCount is one sender's declared group count for the sealed
// level. Only frames of the receiver's own fleet generation count: a
// worker refuses mesh connections from any other.
type expectCount struct {
	Sender int
	Groups uint64
}

func (m *msgSeal) encode() (byte, []byte) {
	var w wbuf
	w.u32(uint32(m.Level))
	w.u32(m.Seq)
	w.u(m.Next)
	w.i(len(m.Expect))
	for _, e := range m.Expect {
		w.i(e.Sender)
		w.u(e.Groups)
	}
	return mtSeal, w.b
}

func decodeSeal(p []byte) (*msgSeal, error) {
	r := newRbuf(p)
	m := &msgSeal{Level: int32(r.u32()), Seq: r.u32(), Next: r.u()}
	n := r.count()
	m.Expect = make([]expectCount, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		m.Expect = append(m.Expect, expectCount{Sender: r.i(), Groups: r.u()})
	}
	return m, r.done()
}

// msgTraceQuery resolves one step of counterexample reconstruction: the
// owner of the state's shard replies with its recorded trace parent.
// The state is named by its encoding (the first hop), or ByRef by its
// global ref.
type msgTraceQuery struct {
	ByRef bool
	Ref   uint32
	Enc   []byte
}

func (m *msgTraceQuery) encode() (byte, []byte) {
	var w wbuf
	w.boolean(m.ByRef)
	w.u32(m.Ref)
	w.bytes(m.Enc)
	return mtTraceQuery, w.b
}

func decodeTraceQuery(p []byte) (*msgTraceQuery, error) {
	r := newRbuf(p)
	m := &msgTraceQuery{ByRef: r.boolean(), Ref: r.u32(), Enc: r.bytes()}
	return m, r.done()
}

// msgStop asks a worker to send its mtBye and exit.
type msgStop struct{}

func (m *msgStop) encode() (byte, []byte) { return mtStop, nil }

// msgHello acknowledges a processed msgConfig. Err is a config-stage
// failure (unknown spec, unreadable restore snapshot, ...) — fatal for
// the run.
type msgHello struct {
	Index int
	Err   string
}

func (m *msgHello) encode() (byte, []byte) {
	var w wbuf
	w.i(m.Index)
	w.str(m.Err)
	return mtHello, w.b
}

func decodeHello(p []byte) (*msgHello, error) {
	r := newRbuf(p)
	m := &msgHello{Index: r.i(), Err: r.str()}
	return m, r.done()
}

// msgExpandDone closes one msgExpand: Counts[i] is the successor count
// of Slots[i] (the serial sweep's per-slot transition count), SentTo
// declares how many mesh groups this expansion generated per
// destination (all of them flush-synced to the wire before this message
// was sent), and the optional violation candidate is the worker's lowest-keyed
// transition-invariant violation (ViolFrom/ViolTo are the raw from/to
// encodings — ViolTo pre-canonicalization, exactly what the engine
// reports). Expanded is the worker process's cumulative generated-
// transition counter once this expansion is done (the recovery-cost
// ledger): expansion is the only work it counts, so the counter a level
// ends with is known before the level's seal.
type msgExpandDone struct {
	Level    int32
	ID       uint32
	Counts   []uint32
	SentTo   []sentCount
	HasViol  bool
	ViolKey  uint64
	ViolFrom []byte
	ViolTo   []byte
	Expanded uint64
}

// sentCount is one destination's generated-group declaration.
type sentCount struct {
	Dest   int
	Groups uint64
}

func (m *msgExpandDone) encode() (byte, []byte) {
	var w wbuf
	w.u32(uint32(m.Level))
	w.u32(m.ID)
	w.i(len(m.Counts))
	for _, c := range m.Counts {
		w.u32(c)
	}
	w.i(len(m.SentTo))
	for _, s := range m.SentTo {
		w.i(s.Dest)
		w.u(s.Groups)
	}
	w.boolean(m.HasViol)
	w.u(m.ViolKey)
	w.bytes(m.ViolFrom)
	w.bytes(m.ViolTo)
	w.u(m.Expanded)
	return mtExpandDone, w.b
}

func decodeExpandDone(p []byte) (*msgExpandDone, error) {
	r := newRbuf(p)
	m := &msgExpandDone{Level: int32(r.u32()), ID: r.u32()}
	n := r.count()
	m.Counts = make([]uint32, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		m.Counts = append(m.Counts, r.u32())
	}
	n = r.count()
	m.SentTo = make([]sentCount, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		m.SentTo = append(m.SentTo, sentCount{Dest: r.i(), Groups: r.u()})
	}
	m.HasViol = r.boolean()
	m.ViolKey = r.u()
	m.ViolFrom = r.bytes()
	m.ViolTo = r.bytes()
	m.Expanded = r.u()
	return m, r.done()
}

// msgLevelReport closes a worker's level: the final (min-key)
// claim keys of the states it admitted this level in ascending order
// (delta-encoded), any state-invariant violations with their final keys,
// totals, the barrier snapshot ack, and the worker process's cumulative
// wire counters.
type msgLevelReport struct {
	Level       int32
	Seq         uint32 // the executed seal's sequence number
	Keys        []uint64
	StViolKeys  []uint64
	StViolEncs  [][]byte
	States      int64
	Resident    int64
	Full        bool
	SnapshotErr string // why the barrier snapshot failed to write; "" when it was written
	WireFrames  uint64 // cumulative frames this worker process has written
	WireBytes   uint64 // cumulative bytes this worker process has written
}

func (m *msgLevelReport) encode() (byte, []byte) {
	var w wbuf
	w.u32(uint32(m.Level))
	w.u32(m.Seq)
	w.i(len(m.Keys))
	prev := uint64(0)
	for _, k := range m.Keys {
		w.u(k - prev)
		prev = k
	}
	w.i(len(m.StViolKeys))
	for i := range m.StViolKeys {
		w.u(m.StViolKeys[i])
		w.bytes(m.StViolEncs[i])
	}
	w.u(uint64(m.States))
	w.u(uint64(m.Resident))
	w.boolean(m.Full)
	w.str(m.SnapshotErr)
	w.u(m.WireFrames)
	w.u(m.WireBytes)
	return mtLevelReport, w.b
}

func decodeLevelReport(p []byte) (*msgLevelReport, error) {
	r := newRbuf(p)
	m := &msgLevelReport{Level: int32(r.u32()), Seq: r.u32()}
	n := r.count()
	m.Keys = make([]uint64, 0, n)
	prev := uint64(0)
	for i := 0; i < n && r.err == nil; i++ {
		prev += r.u()
		m.Keys = append(m.Keys, prev)
	}
	n = r.count()
	m.StViolKeys = make([]uint64, 0, n)
	m.StViolEncs = make([][]byte, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		m.StViolKeys = append(m.StViolKeys, r.u())
		m.StViolEncs = append(m.StViolEncs, r.bytes())
	}
	m.States = int64(r.u())
	m.Resident = int64(r.u())
	m.Full = r.boolean()
	m.SnapshotErr = r.str()
	m.WireFrames = r.u()
	m.WireBytes = r.u()
	return m, r.done()
}

// msgTraceReply answers a msgTraceQuery: the state's parent as a
// global ref, and for a query by ref the state's encoding.
type msgTraceReply struct {
	Found     bool
	HasParent bool
	Parent    uint32
	Enc       []byte
}

func (m *msgTraceReply) encode() (byte, []byte) {
	var w wbuf
	w.boolean(m.Found)
	w.boolean(m.HasParent)
	w.u32(m.Parent)
	w.bytes(m.Enc)
	return mtTraceReply, w.b
}

func decodeTraceReply(p []byte) (*msgTraceReply, error) {
	r := newRbuf(p)
	m := &msgTraceReply{Found: r.boolean(), HasParent: r.boolean(), Parent: r.u32(), Enc: r.bytes()}
	return m, r.done()
}

// msgHeartbeat carries no payload.
type msgHeartbeat struct{}

func (m *msgHeartbeat) encode() (byte, []byte) { return mtHeartbeat, nil }

// msgBye is a worker's final word: its cumulative generated-transition
// counter and wire totals, so the coordinator's recovery-cost ledger
// and traffic accounting are complete.
type msgBye struct {
	Expanded   uint64
	WireFrames uint64
	WireBytes  uint64
}

func (m *msgBye) encode() (byte, []byte) {
	var w wbuf
	w.u(m.Expanded)
	w.u(m.WireFrames)
	w.u(m.WireBytes)
	return mtBye, w.b
}

func decodeBye(p []byte) (*msgBye, error) {
	r := newRbuf(p)
	m := &msgBye{Expanded: r.u(), WireFrames: r.u(), WireBytes: r.u()}
	return m, r.done()
}

// msgFatal reports an unrecoverable worker-side error (protocol
// violation, claim-key overflow, state budget exceeded). The coordinator
// aborts the run.
type msgFatal struct{ Err string }

func (m *msgFatal) encode() (byte, []byte) {
	var w wbuf
	w.str(m.Err)
	return mtFatal, w.b
}

func decodeFatal(p []byte) (*msgFatal, error) {
	r := newRbuf(p)
	m := &msgFatal{Err: r.str()}
	return m, r.done()
}
