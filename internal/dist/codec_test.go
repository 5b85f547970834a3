package dist

// Steady-state allocation and robustness checks for the pooled frame
// codec and the mesh batch format — the data plane's hot path.

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// appendMeshGroup appends one group in mesh layout to dst: the group
// header, then the successors with delta-coded indices — the layout the
// worker's send path builds incrementally. js must be strictly
// ascending.
func appendMeshGroup(dst []byte, slot, parent uint32, js []uint32, encs [][]byte) []byte {
	var s [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(s[:], v)
		dst = append(dst, s[:n]...)
	}
	put(uint64(slot))
	put(uint64(parent))
	put(uint64(len(js)))
	prev := uint32(0)
	for k, j := range js {
		put(uint64(j - prev))
		prev = j
		put(uint64(len(encs[k])))
		dst = append(dst, encs[k]...)
	}
	return dst
}

// TestFramePoolSteadyStateAllocs pins the pooled frame path: once the
// free lists are warm, a writeFrame → readFramePooled round trip must
// be allocation-free. A regression here (a missed putFrame, a copy
// sneaking back in) multiplies by every frame of every level of every
// distributed run, so the bound is deliberately tight.
func TestFramePoolSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	payload := bytes.Repeat([]byte{0xA5}, 4096)
	var buf bytes.Buffer
	round := func() {
		buf.Reset()
		if err := writeFrame(&buf, mtMeshBatch, payload); err != nil {
			t.Fatal(err)
		}
		typ, got, fb, err := readFramePooled(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != mtMeshBatch || len(got) != len(payload) {
			t.Fatalf("round trip mangled: typ %d, %d payload bytes", typ, len(got))
		}
		putFrame(fb)
	}
	for i := 0; i < 16; i++ {
		round() // warm the size-class pools and the buffer
	}
	// sync.Pool may be cleared by a GC mid-measurement, so allow a
	// fractional average; anything near one alloc per round is a leak.
	if allocs := testing.AllocsPerRun(200, round); allocs >= 1 {
		t.Fatalf("pooled frame round trip allocates %.1f times per op, want 0", allocs)
	}
}

// TestMeshBatchFramePoolAllocs: a mesh batch frame filled to the flush
// threshold, as the send path fills one, then released, is served again
// by the pool — the data plane's steady state allocates nothing per
// frame.
func TestMeshBatchFramePoolAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	group := bytes.Repeat([]byte{0x5A}, 4096)
	round := func() {
		fb := beginMeshBatch(3, 1<<30)
		for fb.payloadLen() < batchFlushBytes {
			fb.raw(group)
		}
		putFrame(fb)
	}
	for i := 0; i < 4; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(100, round); allocs >= 1 {
		t.Fatalf("filling a pooled mesh batch allocates %.1f times per op, want 0", allocs)
	}
}

// FuzzDecodeBatch throws arbitrary bytes at the mesh batch decoder:
// any input must either parse or be rejected with an error — never
// panic, never call visit past the first defect. Seeds cover the empty
// payload, well-formed batches, and every truncation of one.
func FuzzDecodeBatch(f *testing.F) {
	var groups []byte
	groups = appendMeshGroup(groups, 7, 0x12345,
		[]uint32{1, 3, 9}, [][]byte{[]byte("s1"), []byte("s2"), []byte("longer-succ-3")})
	groups = appendMeshGroup(groups, 63, 0, []uint32{0}, [][]byte{[]byte("x")})
	groups = appendMeshGroup(groups, 1<<20, 1<<31, []uint32{0, 1}, [][]byte{[]byte("yy"), []byte("zzz")})
	fb := beginMeshBatch(12, 1<<30)
	fb.raw(groups)
	payload := append([]byte(nil), fb.b[5:]...) // after length+type
	putFrame(fb)

	f.Add([]byte{})
	f.Add(payload)
	for i := 0; i < len(payload); i += 3 {
		f.Add(append([]byte(nil), payload[:i]...))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		_, _, groups, err := decodeMeshBatchHeader(p)
		if err != nil {
			return
		}
		n, err := walkMeshGroups(groups, func(slot, parent, j uint32, enc []byte) {
			// Views must stay in bounds; touching them would segfault
			// under the fuzzer if they didn't.
			_ = enc
		})
		if n < 0 {
			t.Fatalf("negative group count %d (err %v)", n, err)
		}
	})
}

// benchGroup is one frontier state's successors bound for one
// receiver.
type benchGroup struct {
	slot, parent uint32
	js           []uint32
	encs         [][]byte
}

// meshBenchGroups is a representative mesh batch: 2048 groups, each a
// frontier state's global parent ref with three 18-byte successors at
// ascending successor indexes — about three claims per state, as in the
// reduced 6-node search.
func meshBenchGroups() []benchGroup {
	var gs []benchGroup
	for g := 0; g < 2048; g++ {
		enc := func(salt int) []byte {
			e := make([]byte, 18)
			for i := range e {
				e[i] = byte(g*31 + salt*7 + i)
			}
			return e
		}
		gs = append(gs, benchGroup{slot: uint32(g * 3), parent: uint32(g*97) << 6,
			js: []uint32{0, 2, 5}, encs: [][]byte{enc(1), enc(2), enc(3)}})
	}
	return gs
}

// BenchmarkMeshBatchCodec: one op encodes a representative batch and
// decodes it again. "mesh" is the data-plane frame expansion traffic
// rides (beginMeshBatch/appendMeshGroup, then decodeMeshBatchHeader and
// walkMeshGroups); "control" is the same successors as a control-plane
// msgBatch of roots (encode, then decodeBatch).
func BenchmarkMeshBatchCodec(b *testing.B) {
	gs := meshBenchGroups()
	const level, base = 12, 7 << 30
	b.Run("mesh", func(b *testing.B) {
		var groups []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fb := beginMeshBatch(level, base)
			groups = groups[:0]
			for k := range gs {
				g := &gs[k]
				groups = appendMeshGroup(groups, g.slot, g.parent, g.js, g.encs)
			}
			fb.raw(groups)
			payload := fb.b[5:]
			b.SetBytes(int64(len(payload)))
			_, _, body, err := decodeMeshBatchHeader(payload)
			if err != nil {
				b.Fatal(err)
			}
			succs := 0
			n, err := walkMeshGroups(body, func(uint32, uint32, uint32, []byte) { succs++ })
			if err != nil || n != len(gs) || succs != 3*len(gs) {
				b.Fatalf("decoded %d groups, %d successors, %v", n, succs, err)
			}
			putFrame(fb)
		}
	})
	b.Run("control", func(b *testing.B) {
		m := &msgBatch{Level: level, Base: base}
		for k := range gs {
			m.Groups = append(m.Groups, batchGroup{Js: gs[k].js, Encs: gs[k].encs})
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, p := m.encode()
			b.SetBytes(int64(len(p)))
			got, err := decodeBatch(p)
			if err != nil || len(got.Groups) != len(m.Groups) {
				b.Fatalf("decoded %d groups, %v", len(got.Groups), err)
			}
		}
	})
}
