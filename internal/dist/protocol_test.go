package dist

// Codec tests: every protocol message must survive an encode→frame→
// decode round trip byte-exactly, and the decoders must reject damaged
// payloads instead of panicking or inventing fields.

import (
	"bytes"
	"reflect"
	"testing"

	"ttastar/internal/mc"
)

func roundTrip(t *testing.T, m encoder, decode func([]byte) (any, error), wantTyp byte) any {
	t.Helper()
	typ, payload := m.encode()
	if typ != wantTyp {
		t.Fatalf("message type %d, want %d", typ, wantTyp)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, typ, payload); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	gotTyp, gotPayload, err := readFrame(&buf)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if gotTyp != typ {
		t.Fatalf("frame type %d, want %d", gotTyp, typ)
	}
	got, err := decode(gotPayload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestProtocolRoundTrips(t *testing.T) {
	var assign [mc.NumShards]uint8
	for i := range assign {
		assign[i] = uint8(i % 5)
	}

	cfg := &msgConfig{
		Index: 3, Gen: 2, Workers: 5, SpecName: "tta", SpecPayload: `{"Nodes":4}`,
		Reduced: true, CheckState: true, MaxStates: 1 << 20, Assign: assign,
		Chain: "/tmp/snaps/chain.mc", Restore: "/tmp/snaps/chain.mc",
		MeshName: "0123456789abcdef01234567",
		Swifi:    "kill@worker=1@level=2", HeartbeatMs: 250,
	}
	if got := roundTrip(t, cfg, func(p []byte) (any, error) { return decodeConfig(p) }, mtConfig); !reflect.DeepEqual(got, cfg) {
		t.Fatalf("config mismatch:\n got %+v\nwant %+v", got, cfg)
	}

	exp := &msgExpand{Level: 7, Base: 1 << 40, ID: 42, Slots: []uint32{0, 3, 1 << 20}}
	if got := roundTrip(t, exp, func(p []byte) (any, error) { return decodeExpand(p) }, mtExpand); !reflect.DeepEqual(got, exp) {
		t.Fatalf("expand mismatch:\n got %+v\nwant %+v", got, exp)
	}

	roots := &msgInit{Js: []uint32{0, 2, 1 << 20}, Encs: [][]byte{[]byte("s0"), []byte("s2"), []byte("x")}}
	if got := roundTrip(t, roots, func(p []byte) (any, error) { return decodeInit(p) }, mtInit); !reflect.DeepEqual(got, roots) {
		t.Fatalf("init mismatch:\n got %+v\nwant %+v", got, roots)
	}

	seal := &msgSeal{Level: 4, Seq: 17,
		Expect: []expectCount{{Sender: 0, Groups: 1 << 40}, {Sender: 4, Groups: 3}}}
	if got := roundTrip(t, seal, func(p []byte) (any, error) { return decodeSeal(p) }, mtSeal); !reflect.DeepEqual(got, seal) {
		t.Fatalf("seal mismatch: %+v", got)
	}

	for _, tq := range []*msgTraceQuery{{Enc: []byte("state-enc")}, {ByRef: true, Ref: 0xfedcba98, Enc: []byte{}}} {
		if got := roundTrip(t, tq, func(p []byte) (any, error) { return decodeTraceQuery(p) }, mtTraceQuery); !reflect.DeepEqual(got, tq) {
			t.Fatalf("trace query mismatch: %+v", got)
		}
	}

	hello := &msgHello{Index: 2, Err: "no builder", States: 1 << 33, Resident: 1 << 40}
	if got := roundTrip(t, hello, func(p []byte) (any, error) { return decodeHello(p) }, mtHello); !reflect.DeepEqual(got, hello) {
		t.Fatalf("hello mismatch: %+v", got)
	}

	ed := &msgExpandDone{Level: 3, ID: 9, Counts: []uint32{4, 0, 17},
		SentTo:  []sentCount{{Dest: 0, Groups: 12}, {Dest: 2, Groups: 1 << 33}},
		HasViol: true, ViolKey: 123456, ViolFrom: []byte("from"), ViolTo: []byte("to")}
	if got := roundTrip(t, ed, func(p []byte) (any, error) { return decodeExpandDone(p) }, mtExpandDone); !reflect.DeepEqual(got, ed) {
		t.Fatalf("expand done mismatch:\n got %+v\nwant %+v", got, ed)
	}

	lr := &msgLevelReport{Level: 6, Seq: 42, Keys: []uint64{10, 11, 500, 1 << 30},
		StViolKeys: []uint64{77}, StViolEncs: [][]byte{[]byte("bad")},
		States: 12345, Resident: 1 << 22, Full: true,
		WireFrames: 4096, WireBytes: 1 << 34}
	if got := roundTrip(t, lr, func(p []byte) (any, error) { return decodeLevelReport(p) }, mtLevelReport); !reflect.DeepEqual(got, lr) {
		t.Fatalf("level report mismatch:\n got %+v\nwant %+v", got, lr)
	}

	trp := &msgTraceReply{Found: true, HasParent: true, Parent: 1 << 31, Enc: []byte("state")}
	if got := roundTrip(t, trp, func(p []byte) (any, error) { return decodeTraceReply(p) }, mtTraceReply); !reflect.DeepEqual(got, trp) {
		t.Fatalf("trace reply mismatch: %+v", got)
	}

	bye := &msgBye{WireFrames: 321, WireBytes: 1 << 44}
	if got := roundTrip(t, bye, func(p []byte) (any, error) { return decodeBye(p) }, mtBye); !reflect.DeepEqual(got, bye) {
		t.Fatalf("bye mismatch: %+v", got)
	}

	fat := &msgFatal{Err: "claim-key overflow"}
	if got := roundTrip(t, fat, func(p []byte) (any, error) { return decodeFatal(p) }, mtFatal); !reflect.DeepEqual(got, fat) {
		t.Fatalf("fatal mismatch: %+v", got)
	}
}

// TestMeshBatchCodec: the zero-copy data-plane codec round-trips a
// frame built the way the worker send path builds it.
func TestMeshBatchCodec(t *testing.T) {
	fb := beginMeshBatch(7, 1<<30)
	g := appendMeshGroup(nil, 3, 0x2a5, []uint32{0, 2, 7}, [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")})
	g1len := len(g)
	g = appendMeshGroup(g, 1<<20, 1<<32-1, []uint32{5}, [][]byte{[]byte("zz")})
	fb.raw(g)
	wire := fb.finish()
	if int(wire[0])|int(wire[1])<<8|int(wire[2])<<16|int(wire[3])<<24 != len(wire)-4 {
		t.Fatalf("length header %v does not match frame size %d", wire[:4], len(wire))
	}
	if wire[4] != mtMeshBatch {
		t.Fatalf("type byte %d, want mtMeshBatch", wire[4])
	}
	level, base, groups, err := decodeMeshBatchHeader(wire[5:])
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	if level != 7 || base != 1<<30 {
		t.Fatalf("header level=%d base=%d", level, base)
	}
	type succ struct {
		slot, par, j uint32
		enc          string
	}
	var got []succ
	n, err := walkMeshGroups(groups, func(slot, parent, j uint32, enc []byte) {
		got = append(got, succ{slot, parent, j, string(enc)})
	})
	if err != nil || n != 2 {
		t.Fatalf("walk: groups=%d err=%v", n, err)
	}
	want := []succ{
		{3, 0x2a5, 0, "a"}, {3, 0x2a5, 2, "bb"}, {3, 0x2a5, 7, "ccc"},
		{1 << 20, 1<<32 - 1, 5, "zz"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walk mismatch:\n got %+v\nwant %+v", got, want)
	}
	putFrame(fb)

	// Truncations must reject, never panic, never silently accept —
	// except the empty prefix and the exact first-group boundary, which
	// are complete sequences in their own right.
	for i := 0; i < len(groups); i++ {
		if i == 0 || i == g1len {
			continue
		}
		if _, err := walkMeshGroups(groups[:i], nil); err == nil {
			t.Errorf("truncation to %d group bytes accepted", i)
		}
	}
}

// TestProtocolRejectsDamage: decoders on truncated payloads must error,
// never panic, never accept.
func TestProtocolRejectsDamage(t *testing.T) {
	msgs := []struct {
		name   string
		m      encoder
		decode func([]byte) error
	}{
		{"config", &msgConfig{Index: 1, SpecName: "x", Restore: "r.mc", Swifi: "s"},
			func(p []byte) error { _, err := decodeConfig(p); return err }},
		{"expand", &msgExpand{Level: 2, Slots: []uint32{1, 2, 3}},
			func(p []byte) error { _, err := decodeExpand(p); return err }},
		{"seal", &msgSeal{Level: 3, Seq: 9, Expect: []expectCount{{Sender: 1, Groups: 7}}},
			func(p []byte) error { _, err := decodeSeal(p); return err }},
		{"init", &msgInit{Js: []uint32{0}, Encs: [][]byte{[]byte("e")}},
			func(p []byte) error { _, err := decodeInit(p); return err }},
		{"report", &msgLevelReport{Level: 1, Keys: []uint64{5, 6}, States: 2},
			func(p []byte) error { _, err := decodeLevelReport(p); return err }},
		{"expanddone", &msgExpandDone{Level: 1, Counts: []uint32{1}, ViolFrom: []byte("f"), ViolTo: []byte("t")},
			func(p []byte) error { _, err := decodeExpandDone(p); return err }},
	}
	for _, tc := range msgs {
		_, payload := tc.m.encode()
		for n := 0; n < len(payload); n++ {
			if err := tc.decode(payload[:n]); err == nil {
				t.Errorf("%s: truncation to %d bytes accepted", tc.name, n)
			}
		}
		// Trailing garbage must be rejected too.
		if err := tc.decode(append(append([]byte{}, payload...), 0xff)); err == nil {
			t.Errorf("%s: trailing byte accepted", tc.name)
		}
	}
}

// TestFrameLengthGuard: a corrupt length prefix may not allocate
// gigabytes or be accepted.
func TestFrameLengthGuard(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // 4 GiB frame
	if _, _, err := readFrame(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0}) // zero-length frame (no type byte)
	if _, _, err := readFrame(&buf); err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

// controlDecoders lists every control-message decoder, each returning
// its message as an encoder so a decoded value can be re-encoded.
var controlDecoders = []struct {
	name   string
	decode func([]byte) (encoder, error)
}{
	{"config", func(p []byte) (encoder, error) { return decodeConfig(p) }},
	{"expand", func(p []byte) (encoder, error) { return decodeExpand(p) }},
	{"init", func(p []byte) (encoder, error) { return decodeInit(p) }},
	{"seal", func(p []byte) (encoder, error) { return decodeSeal(p) }},
	{"tracequery", func(p []byte) (encoder, error) { return decodeTraceQuery(p) }},
	{"hello", func(p []byte) (encoder, error) { return decodeHello(p) }},
	{"expanddone", func(p []byte) (encoder, error) { return decodeExpandDone(p) }},
	{"report", func(p []byte) (encoder, error) { return decodeLevelReport(p) }},
	{"tracereply", func(p []byte) (encoder, error) { return decodeTraceReply(p) }},
	{"bye", func(p []byte) (encoder, error) { return decodeBye(p) }},
	{"fatal", func(p []byte) (encoder, error) { return decodeFatal(p) }},
}

// FuzzDecodeControl throws arbitrary payloads at every control-message
// decoder: each must parse or refuse without panicking, and whatever
// parses must survive re-encoding — decoding its encoding yields the
// same message. Seeds are the encodings of well-formed messages.
func FuzzDecodeControl(f *testing.F) {
	var assign [mc.NumShards]uint8
	assign[5] = 2
	seeds := []encoder{
		&msgConfig{Index: 1, Gen: 2, Workers: 3, SpecName: "tta", SpecPayload: "{}", Reduced: true,
			MaxStates: 9, Assign: assign, Chain: "c.mc", Restore: "c.mc", Swifi: "kill@worker=1@level=2"},
		&msgExpand{Level: 3, Base: 1 << 30, ID: 4, Slots: []uint32{0, 7}},
		&msgInit{Js: []uint32{0, 3}, Encs: [][]byte{[]byte("a"), []byte("bc")}},
		&msgSeal{Level: 2, Seq: 5, Expect: []expectCount{{Sender: 1, Groups: 8}}},
		&msgTraceQuery{ByRef: true, Ref: 0x41, Enc: []byte("enc")},
		&msgHello{Index: 1, Err: "x", States: 3, Resident: 4},
		&msgExpandDone{Level: 1, ID: 2, Counts: []uint32{3}, SentTo: []sentCount{{Dest: 1, Groups: 2}},
			HasViol: true, ViolKey: 9, ViolFrom: []byte("f"), ViolTo: []byte("t")},
		&msgLevelReport{Level: 1, Seq: 2, Keys: []uint64{4, 9}, StViolKeys: []uint64{4},
			StViolEncs: [][]byte{[]byte("s")}, States: 5, Full: true},
		&msgTraceReply{Found: true, HasParent: true, Parent: 0x81, Enc: []byte("p")},
		&msgBye{WireFrames: 7},
		&msgFatal{Err: "boom"},
	}
	f.Add([]byte{})
	// A truncated varint where a count belongs: its partial value once
	// sized an allocation of terabytes.
	f.Add([]byte("0\x13\x03000\x98\x98\x98\x98\x98\xef"))
	for _, m := range seeds {
		_, p := m.encode()
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		for _, d := range controlDecoders {
			m, err := d.decode(p)
			if err != nil {
				continue
			}
			_, again := m.encode()
			m2, err := d.decode(again)
			if err != nil {
				t.Fatalf("%s: re-encoding of a decoded message does not decode: %v", d.name, err)
			}
			if !reflect.DeepEqual(m, m2) {
				t.Fatalf("%s: decode∘encode changed the message:\n got %+v\nwant %+v", d.name, m2, m)
			}
		}
	})
}
