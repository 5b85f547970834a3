// Package dist is the crash-tolerant multi-process exploration layer: a
// coordinator/worker protocol that partitions the visited set by the
// engine's shard hash across OS processes, exchanges frontier batches in
// the packed state encoding, and closes every level barrier on the mesh
// links themselves.
//
// Topology is a control-plane/data-plane split. The coordinator star
// carries only control traffic — config, one Expand and one LevelReport
// per worker and level, heartbeats — while successor batches flow
// point-to-point over an N×(N−1) worker↔worker mesh (mesh.go), routed
// by the 64-shard hash. Each mesh link is one FIFO socket per sender and
// destination that is never redialed, so a worker closes its own
// barrier: behind its last batch of a level it sends each peer an End
// frame naming the level and the groups it sent that peer, and it seals
// the level once its own Expand is done and every peer's End is in,
// each End's count matching the groups received from that sender. Crash
// recovery is central: on any worker death the coordinator restarts the
// whole fleet, one generation on, from the last closed level barrier —
// the checkpoint chain's manifest — and redoes the interrupted level
// (recover.go).
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
// redone from the last closed barrier, under injected worker crashes
// too (or the run is refused with ErrUnrecoverable). The barriers are
// the engine's own checkpoint chain, so a run of either kind resumes
// the other's checkpoint.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"ttastar/internal/codec"
	"ttastar/internal/mc"
)

// Wire format: length-prefixed frames over an arbitrary byte stream
// (Unix-socket mesh links, and subprocess stdio pipes or in-memory
// pipes to the coordinator).
//
//	frame   := length:u32le  type:u8  payload
//	payload := uvarint fields, strings/byte-slices length-prefixed
//
// The payload codec is internal/codec, the one the checkpoint files use:
// encoders append, and decoders read through a codec.Reader whose length
// guards and sticky error wrap errBadFrame, so they read straight through
// without per-field checks. Byte fields decode as views of the frame; a
// worker releases a pooled frame once its handler returns, so a handler
// that keeps bytes past that copies them (the store's claims do). The
// data-plane frame (mtMeshBatch) additionally delta-codes successor
// indices and drops per-group framing the receiver can infer, and both
// directions run over a size-classed frame-buffer free list so the
// steady state is allocation-free.

// Message types. Control (C→W, W→C) and mesh (W→W) share one tag space.
// A retired tag (3, 4 and 8) is never reused.
const (
	mtConfig      byte = 1  // C→W: identity, model spec, shard map
	mtExpand      byte = 2  // C→W: expand your frontier (level 0: claim your roots)
	mtTraceQuery  byte = 5  // C→W: resolve a state's trace parent
	mtStop        byte = 6  // C→W: shut down
	mtHello       byte = 7  // W→C: Config processed, ready
	mtLevelReport byte = 9  // W→C: the sealed level: counts, violations, claimed keys, totals
	mtTraceReply  byte = 10 // W→C: TraceQuery answer
	mtHeartbeat   byte = 11 // W→C: liveness (sent from a side goroutine)
	mtBye         byte = 12 // W→C: final counters, shutting down
	mtFatal       byte = 13 // W→C: unrecoverable worker error
	mtMeshBatch   byte = 14 // W→W: successor claim groups for the receiver's shards
	mtMeshEnd     byte = 15 // W→W: the sender's last batch of a level is in
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

// payloadLen is the number of payload bytes appended so far.
func (fb *frameBuf) payloadLen() int { return len(fb.b) - 5 }

// finish patches the length header and returns the wire bytes.
func (fb *frameBuf) finish() []byte {
	binary.LittleEndian.PutUint32(fb.b[:4], uint32(len(fb.b)-4))
	return fb.b
}

// frameOf assembles one frame, header and payload, in a pooled buffer.
func frameOf(typ byte, payload []byte) *frameBuf {
	fb := grabFrame(5 + len(payload))
	fb.b = append(append(fb.b, 0, 0, 0, 0, typ), payload...)
	return fb
}

func writeFrame(w io.Writer, typ byte, payload []byte) error {
	// Assemble header+payload in a pooled buffer and write once: a frame
	// is never interleaved even on a shared stream, and the send path
	// does not allocate.
	fb := frameOf(typ, payload)
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
// whatever arrives, and mesh groups always have parents (roots reach
// their owners in the level-0 Expand).

// beginMeshBatch starts an mtMeshBatch frame in a pooled buffer: 4-byte
// length placeholder, type byte, header, then groups appended raw;
// finish patches the length so the whole frame goes out in one Write.
// The buffer comes from the class that holds a frame filled to the
// flush threshold, so filling it never regrows it and putFrame returns
// it to the class the next batch draws from.
func beginMeshBatch(level int32, base uint64) *frameBuf {
	fb := grabFrame(2 * batchFlushBytes)
	fb.b = codec.AppendUvarint(append(fb.b, 0, 0, 0, 0, mtMeshBatch), uint64(uint32(level)), base)
	return fb
}

// errBadFrame is the sentinel every refused payload wraps.
var errBadFrame = errors.New("dist: malformed frame")

// flag is a bool's wire value.
func flag(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// decodeMeshBatchHeader splits an mtMeshBatch payload into its level,
// base and the raw group sequence.
func decodeMeshBatchHeader(p []byte) (level int32, base uint64, groups []byte, err error) {
	r := codec.NewReader(p, errBadFrame)
	lv, b := r.Uvarint(), r.Uvarint()
	if r.Err() == nil && lv > 1<<31 {
		r.Fail("level %d", lv)
	}
	return int32(uint32(lv)), b, r.View(uint64(r.Len())), r.Err()
}

// walkMeshGroups parses a group sequence (a mesh batch payload after
// its header), invoking visit per successor with views into p.
// Malformed input is refused; visit is never called past the first
// defect.
func walkMeshGroups(p []byte, visit func(slot, parent, j uint32, enc []byte)) (groups int, err error) {
	r := codec.NewReader(p, errBadFrame)
	for r.Len() > 0 {
		slot, parent, nsucc := r.Uvarint(), r.Uvarint(), r.Count()
		if r.Err() == nil && (slot > 1<<32-1 || parent > 1<<32-1) {
			r.Fail("group slot %d parent %d", slot, parent)
		}
		j := uint64(0)
		for k := 0; k < nsucc && r.Err() == nil; k++ {
			next := j + r.Uvarint()
			enc := r.Bytes()
			// Indices ascend strictly: a later 0 delta or a wrap is damage.
			if r.Err() == nil && (next > 1<<32-1 || k > 0 && next <= j) {
				r.Fail("successor index %d after %d", next, j)
			}
			j = next
			if r.Err() == nil && visit != nil {
				visit(uint32(slot), uint32(parent), uint32(j), enc)
			}
		}
		if r.Err() != nil {
			return groups, r.Err()
		}
		groups++
	}
	return groups, nil
}

// msgEnd closes a sender's share of a level on one mesh link: it
// follows the sender's last batch of the level, and Groups is the number
// of groups those batches carried. The link is FIFO, so on arrival the
// receiver must hold exactly Groups groups from the sender.
type msgEnd struct {
	Level  int32
	Groups uint64
}

func (m *msgEnd) encode() (byte, []byte) {
	return mtMeshEnd, codec.AppendUvarint(nil, uint64(uint32(m.Level)), m.Groups)
}

func decodeEnd(p []byte) (*msgEnd, error) {
	r := codec.NewReader(p, errBadFrame)
	m := &msgEnd{Level: int32(uint32(r.Uvarint())), Groups: r.Uvarint()}
	return m, r.Done()
}

// msgConfig initializes a worker: identity, the model spec to rebuild,
// the invariant kind to check, the shard ownership map, the checkpoint
// chain it writes its barrier files to and the one it restores from, the
// SWIFI script and the heartbeat cadence.
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
	Chain       string // the manifest path the worker's barrier files go next to
	Restore     string // the manifest of the barrier to restore; "" starts empty
	MeshName    string // the run's mesh: every worker's socket address derives from it
	Swifi       string
	HeartbeatMs int
}

func (m *msgConfig) encode() (byte, []byte) {
	b := codec.AppendUvarint(nil, uint64(m.Index), uint64(m.Gen), uint64(m.Workers))
	b = codec.AppendBytes(codec.AppendBytes(b, m.SpecName), m.SpecPayload)
	b = append(codec.AppendUvarint(b, flag(m.Reduced), flag(m.CheckState), uint64(m.MaxStates)), m.Assign[:]...)
	for _, s := range []string{m.Chain, m.Restore, m.MeshName, m.Swifi} {
		b = codec.AppendBytes(b, s)
	}
	return mtConfig, codec.AppendUvarint(b, uint64(m.HeartbeatMs))
}

func decodeConfig(p []byte) (*msgConfig, error) {
	r := codec.NewReader(p, errBadFrame)
	m := &msgConfig{Index: int(r.Uvarint()), Gen: int(r.Uvarint()), Workers: int(r.Uvarint()),
		SpecName: string(r.Bytes()), SpecPayload: string(r.Bytes()),
		Reduced: r.Byte() != 0, CheckState: r.Byte() != 0, MaxStates: int(r.Uvarint())}
	copy(m.Assign[:], r.View(mc.NumShards))
	m.Chain, m.Restore, m.MeshName, m.Swifi = string(r.Bytes()), string(r.Bytes()), string(r.Bytes()), string(r.Bytes())
	m.HeartbeatMs = int(r.Uvarint())
	return m, r.Done()
}

// msgExpand asks a worker to expand its whole frontier: Slots[i] is the
// global frontier slot of its i-th state, so claim keys are
// Base + Slots[i]<<24 + j. A worker refuses an Expand whose slot count
// is not its frontier's. The level-0 Expand has no slots: it carries the
// initial states the worker owns, root J claimed under key J.
type msgExpand struct {
	Level int32
	Base  uint64
	Slots []uint32
	Roots []root
}

// root is one initial state: its index and encoding.
type root struct {
	J   uint32
	Enc []byte
}

func (m *msgExpand) encode() (byte, []byte) {
	b := codec.AppendUvarint(nil, uint64(uint32(m.Level)), m.Base, uint64(len(m.Slots)))
	for _, s := range m.Slots {
		b = codec.AppendUvarint(b, uint64(s))
	}
	b = codec.AppendUvarint(b, uint64(len(m.Roots)))
	for _, r := range m.Roots {
		b = codec.AppendBytes(codec.AppendUvarint(b, uint64(r.J)), r.Enc)
	}
	return mtExpand, b
}

func decodeExpand(p []byte) (*msgExpand, error) {
	r := codec.NewReader(p, errBadFrame)
	m := &msgExpand{Level: int32(uint32(r.Uvarint())), Base: r.Uvarint()}
	m.Slots = make([]uint32, r.Count())
	for i := range m.Slots {
		m.Slots[i] = uint32(r.Uvarint())
	}
	m.Roots = make([]root, r.Count())
	for i := range m.Roots {
		m.Roots[i] = root{J: uint32(r.Uvarint()), Enc: r.Bytes()}
	}
	return m, r.Done()
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
	return mtTraceQuery, codec.AppendBytes(codec.AppendUvarint(nil, flag(m.ByRef), uint64(m.Ref)), m.Enc)
}

func decodeTraceQuery(p []byte) (*msgTraceQuery, error) {
	r := codec.NewReader(p, errBadFrame)
	m := &msgTraceQuery{ByRef: r.Byte() != 0, Ref: uint32(r.Uvarint()), Enc: r.Bytes()}
	return m, r.Done()
}

// msgStop asks a worker to send its mtBye and exit.
type msgStop struct{}

func (m *msgStop) encode() (byte, []byte) { return mtStop, nil }

// msgHello acknowledges a processed msgConfig with the restored store's
// totals. Err is a config-stage failure (unknown spec, unreadable
// checkpoint, ...) — fatal for the run.
type msgHello struct {
	Index    int
	Err      string
	States   int64
	Resident int64
}

func (m *msgHello) encode() (byte, []byte) {
	b := codec.AppendBytes(codec.AppendUvarint(nil, uint64(m.Index)), m.Err)
	return mtHello, codec.AppendUvarint(b, uint64(m.States), uint64(m.Resident))
}

func decodeHello(p []byte) (*msgHello, error) {
	r := codec.NewReader(p, errBadFrame)
	m := &msgHello{Index: int(r.Uvarint()), Err: string(r.Bytes()), States: int64(r.Uvarint()), Resident: int64(r.Uvarint())}
	return m, r.Done()
}

// msgLevelReport is a worker's sealed level: Counts[i] is the successor
// count of its Expand's Slots[i] (the serial sweep's per-slot transition
// count); the optional transition-invariant violation candidate is its
// lowest-keyed one (ViolFrom/ViolTo are the raw from/to encodings —
// ViolTo pre-canonicalization, exactly what the engine reports); then
// the final (min-key) claim keys of the states it admitted this level in
// ascending order (delta-encoded), any state-invariant violations with
// their final keys, totals, and the worker process's cumulative wire
// counters. It is sent once the worker's barrier files of the level are
// written.
type msgLevelReport struct {
	Level      int32
	Counts     []uint32
	HasViol    bool
	ViolKey    uint64
	ViolFrom   []byte
	ViolTo     []byte
	Keys       []uint64
	StViolKeys []uint64
	StViolEncs [][]byte
	States     int64
	Resident   int64
	Full       bool
	WireFrames uint64 // cumulative frames this worker process has sent
	WireBytes  uint64 // cumulative bytes this worker process has sent
}

func (m *msgLevelReport) encode() (byte, []byte) {
	b := codec.AppendUvarint(nil, uint64(uint32(m.Level)), uint64(len(m.Counts)))
	for _, c := range m.Counts {
		b = codec.AppendUvarint(b, uint64(c))
	}
	b = codec.AppendUvarint(b, flag(m.HasViol), m.ViolKey)
	b = codec.AppendBytes(codec.AppendBytes(b, m.ViolFrom), m.ViolTo)
	b = codec.AppendUvarint(b, uint64(len(m.Keys)))
	prev := uint64(0)
	for _, k := range m.Keys {
		b = codec.AppendUvarint(b, k-prev)
		prev = k
	}
	b = codec.AppendUvarint(b, uint64(len(m.StViolKeys)))
	for i, k := range m.StViolKeys {
		b = codec.AppendBytes(codec.AppendUvarint(b, k), m.StViolEncs[i])
	}
	b = codec.AppendUvarint(b, uint64(m.States), uint64(m.Resident), flag(m.Full), m.WireFrames, m.WireBytes)
	return mtLevelReport, b
}

func decodeLevelReport(p []byte) (*msgLevelReport, error) {
	r := codec.NewReader(p, errBadFrame)
	m := &msgLevelReport{Level: int32(uint32(r.Uvarint()))}
	m.Counts = make([]uint32, r.Count())
	for i := range m.Counts {
		m.Counts[i] = uint32(r.Uvarint())
	}
	m.HasViol, m.ViolKey, m.ViolFrom, m.ViolTo = r.Byte() != 0, r.Uvarint(), r.Bytes(), r.Bytes()
	m.Keys = make([]uint64, r.Count())
	prev := uint64(0)
	for i := range m.Keys {
		// Keys ascend strictly: a later 0 delta or a wrap is damage.
		if m.Keys[i] = prev + r.Uvarint(); i > 0 && m.Keys[i] <= prev {
			r.Fail("claim key %d after %d", m.Keys[i], prev)
		}
		prev = m.Keys[i]
	}
	n := r.Count()
	m.StViolKeys, m.StViolEncs = make([]uint64, n), make([][]byte, n)
	for i := range m.StViolKeys {
		m.StViolKeys[i], m.StViolEncs[i] = r.Uvarint(), r.Bytes()
	}
	m.States, m.Resident = int64(r.Uvarint()), int64(r.Uvarint())
	m.Full, m.WireFrames, m.WireBytes = r.Byte() != 0, r.Uvarint(), r.Uvarint()
	return m, r.Done()
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
	return mtTraceReply, codec.AppendBytes(codec.AppendUvarint(nil, flag(m.Found), flag(m.HasParent), uint64(m.Parent)), m.Enc)
}

func decodeTraceReply(p []byte) (*msgTraceReply, error) {
	r := codec.NewReader(p, errBadFrame)
	m := &msgTraceReply{Found: r.Byte() != 0, HasParent: r.Byte() != 0, Parent: uint32(r.Uvarint()), Enc: r.Bytes()}
	return m, r.Done()
}

// msgHeartbeat carries no payload.
type msgHeartbeat struct{}

func (m *msgHeartbeat) encode() (byte, []byte) { return mtHeartbeat, nil }

// msgBye is a worker's final word: its wire totals, so the
// coordinator's traffic accounting is complete.
type msgBye struct {
	WireFrames uint64
	WireBytes  uint64
}

func (m *msgBye) encode() (byte, []byte) {
	return mtBye, codec.AppendUvarint(nil, m.WireFrames, m.WireBytes)
}

func decodeBye(p []byte) (*msgBye, error) {
	r := codec.NewReader(p, errBadFrame)
	m := &msgBye{WireFrames: r.Uvarint(), WireBytes: r.Uvarint()}
	return m, r.Done()
}

// msgFatal is a worker's last word before it exits on an error: a
// protocol violation, or barrier files that failed to write past their
// retries. The coordinator books it as the worker's death, with Err as
// the cause.
type msgFatal struct{ Err string }

func (m *msgFatal) encode() (byte, []byte) { return mtFatal, codec.AppendBytes(nil, m.Err) }

func decodeFatal(p []byte) (*msgFatal, error) {
	r := codec.NewReader(p, errBadFrame)
	m := &msgFatal{Err: string(r.Bytes())}
	return m, r.Done()
}
