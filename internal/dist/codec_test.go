package dist

// Steady-state allocation and robustness checks for the pooled frame
// codec and the mesh batch format — the data plane's hot path.

import (
	"bytes"
	"testing"
)

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

// FuzzDecodeBatch throws arbitrary bytes at the mesh batch decoder:
// any input must either parse or be rejected with an error — never
// panic, never call visit past the first defect. Seeds cover the empty
// payload, well-formed batches, and every truncation of one.
func FuzzDecodeBatch(f *testing.F) {
	var groups []byte
	groups = appendMeshGroup(groups, 7, []byte("parent-a"),
		[]uint32{1, 3, 9}, [][]byte{[]byte("s1"), []byte("s2"), []byte("longer-succ-3")})
	groups = appendMeshGroup(groups, 63, nil, []uint32{0}, [][]byte{[]byte("x")})
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
		n, err := walkMeshGroups(groups, func(slot uint32, parent []byte, j uint32, enc []byte) {
			// Views must stay in bounds; touching them would segfault
			// under the fuzzer if they didn't.
			_ = parent
			_ = enc
		})
		if n < 0 {
			t.Fatalf("negative group count %d (err %v)", n, err)
		}
	})
}

// meshBenchBatch is a representative mesh batch: 2048 groups, each a
// frontier state's 18-byte parent encoding with three 18-byte
// successors at ascending successor indexes — about three claims per
// state, as in the reduced 6-node search, and roughly one
// batchFlushBytes frame.
func meshBenchBatch() *msgBatch {
	m := &msgBatch{Level: 12, Base: 7 << 30}
	for g := 0; g < 2048; g++ {
		enc := func(salt int) []byte {
			e := make([]byte, 18)
			for i := range e {
				e[i] = byte(g*31 + salt*7 + i)
			}
			return e
		}
		m.Groups = append(m.Groups, batchGroup{
			Slot: uint32(g * 3), HasParent: true, Parent: enc(0),
			Js: []uint32{0, 2, 5}, Encs: [][]byte{enc(1), enc(2), enc(3)},
		})
	}
	return m
}

// BenchmarkMeshBatchCodec: one op encodes a representative batch and
// decodes it again. "mesh" is the data-plane frame expansion traffic
// rides (beginMeshBatch/appendMeshGroup, then decodeMeshBatchHeader and
// walkMeshGroups); "control" is the same content as a control-plane
// msgBatch (encode, then decodeBatch).
func BenchmarkMeshBatchCodec(b *testing.B) {
	m := meshBenchBatch()
	b.Run("mesh", func(b *testing.B) {
		var groups []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fb := beginMeshBatch(m.Level, m.Base)
			groups = groups[:0]
			for k := range m.Groups {
				g := &m.Groups[k]
				groups = appendMeshGroup(groups, g.Slot, g.Parent, g.Js, g.Encs)
			}
			fb.raw(groups)
			payload := fb.b[5:]
			b.SetBytes(int64(len(payload)))
			_, _, body, err := decodeMeshBatchHeader(payload)
			if err != nil {
				b.Fatal(err)
			}
			succs := 0
			n, err := walkMeshGroups(body, func(uint32, []byte, uint32, []byte) { succs++ })
			if err != nil || n != len(m.Groups) || succs != 3*len(m.Groups) {
				b.Fatalf("decoded %d groups, %d successors, %v", n, succs, err)
			}
			putFrame(fb)
		}
	})
	b.Run("control", func(b *testing.B) {
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
