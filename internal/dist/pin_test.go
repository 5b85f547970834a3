package dist

// Format pins: the byte form of every control message, of a mesh batch,
// and of every file of a small checkpoint chain, compared against hex
// captured once. A codec change that moves one byte of the wire format
// or of the chain files fails here before it fails a resume across
// versions.

import (
	"context"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ttastar/internal/mc"
)

func TestWireAndChainFormatsPinned(t *testing.T) {
	var assign [mc.NumShards]uint8
	for i := range assign {
		assign[i] = uint8(i % 3)
	}
	msgs := []struct {
		name string
		m    encoder
		want string
	}{
		{"config", &msgConfig{Index: 2, Gen: 1, Workers: 3, SpecName: "tta", SpecPayload: `{"n":4}`,
			Reduced: true, CheckState: false, MaxStates: 1000, Assign: assign, Chain: "c.mc", Restore: "r.mc",
			MeshName: "mesh", Swifi: "kill@worker=1@level=2", HeartbeatMs: 250}, "0102010303747461077b226e223a347d0100e8070001020001020001020001020001020001020001020001020001020001020001020001020001020001020001020001020001020001020001020001020001020004632e6d6304722e6d63046d657368156b696c6c40776f726b65723d31406c6576656c3d32fa01"},
		{"expand", &msgExpand{Level: 3, Base: 1 << 40, Slots: []uint32{0, 127, 128, 1 << 20}}, "020380808080802004007f800180804000"},
		{"expand0", &msgExpand{Roots: []root{{J: 0, Enc: []byte("ab")}, {J: 5, Enc: []byte{}}}}, "0200000002000261620500"},
		{"tracequery", &msgTraceQuery{ByRef: true, Ref: 0xdeadbeef, Enc: []byte{0, 0xff}}, "0501effdb6f50d0200ff"},
		{"stop", &msgStop{}, "06"},
		{"hello", &msgHello{Index: 1, Err: "no spec", States: 12345, Resident: 1 << 30}, "0701076e6f2073706563b9608080808004"},
		{"report", &msgLevelReport{Level: 5, Counts: []uint32{3, 0, 200}, HasViol: true, ViolKey: 1<<48 + 3,
			ViolFrom: []byte("from"), ViolTo: []byte("to"), Keys: []uint64{3, 130, 1 << 35},
			StViolKeys: []uint64{130}, StViolEncs: [][]byte{[]byte("bad")}, States: 77, Resident: 4096,
			Full: true, WireFrames: 19, WireBytes: 1 << 22}, "0905030300c80101838080808080400466726f6d02746f03037ffefeffff7f018201036261644d8020011380808002"},
		{"tracereply", &msgTraceReply{Found: true, HasParent: false, Parent: 64, Enc: []byte("st")}, "0a010040027374"},
		{"heartbeat", &msgHeartbeat{}, "0b"},
		{"bye", &msgBye{WireFrames: 300, WireBytes: 1 << 20}, "0cac02808040"},
		{"fatal", &msgFatal{Err: "level 3: barrier files: boom"}, "0d1c6c6576656c20333a20626172726965722066696c65733a20626f6f6d"},
		{"end", &msgEnd{Level: 4, Groups: 1 << 33}, "0f048080808020"},
	}
	for _, tc := range msgs {
		typ, payload := tc.m.encode()
		if got := hex.EncodeToString(append([]byte{typ}, payload...)); got != tc.want {
			t.Errorf("%s: encodes as\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}

	fb := beginMeshBatch(6, 1<<31)
	g := appendMeshGroup(nil, 9, 0x1234, []uint32{0, 2, 300}, [][]byte{[]byte("x"), []byte("yz"), {}})
	g = appendMeshGroup(g, 1<<20, 0, []uint32{4}, [][]byte{[]byte("w")})
	fb.b = append(fb.b, g...)
	if got, want := hex.EncodeToString(fb.finish()),
		"1d0000000e06808080800809b424030001780202797aaa02008080400001040177"; got != want {
		t.Errorf("mesh batch: encodes as\n%s\nwant\n%s", got, want)
	}
	putFrame(fb)

	// A chain cut at the barrier of frontier depth 3, written by the
	// in-process engine with a checkpoint after every level.
	dir := t.TempDir()
	path := filepath.Join(dir, "pin.mc")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g40 := graphModel{N: 40, Target: 40}
	_, err := mc.CheckTransitionInvariantBytes(g40, g40.trInvBytes(), mc.Options{
		Context: ctx, CheckpointPath: path, CheckpointEvery: 1,
		Progress: func(p mc.Progress) {
			if p.Depth == 3 {
				cancel()
			}
		},
	})
	if !errors.Is(err, mc.ErrInterrupted) {
		t.Fatalf("cut run: %v, want ErrInterrupted", err)
	}
	files := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = hex.EncodeToString(data)
	}
	want := map[string]string{
		"pin.mc":          "5454414d43435000060103031800bcf889fb97b7de9b9e0180808048030d70696e2e6d632e6c312e736567b6e888d6d294d6ff510d70696e2e6d632e6c322e736567c299c8fcb2b4a2ffff010d70696e2e6d632e6c332e73656782bbd2c4a991bfa265010f70696e2e6d632e6c332e66726f6e74f2c5affb90a8f5c3fe011e01b7ee801e3686",
		"pin.mc.l1.seg":   "5454414d434350000602000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000100040002000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000051ff58a52ac23436",
		"pin.mc.l2.seg":   "5454414d434350000602000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000100042e020003000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000010000000000000000000000000000000000000000000000000000000000000000000000000000000100042e020001000000000000000000000000000000fffe89a32f920cc2",
		"pin.mc.l3.front": "5454414d4343500006030a02000d82808020080200098080802816020010818080281602000580808030220200178280803022020007808080383c02000c818080383c020021828080383c02001380808040180200248180804018fe87d5410f6be2f2",
		"pin.mc.l3.seg":   "5454414d434350000602000000000000000000000000000000000000000000000100043b020002000000000000000000000000000000000000000000000000000000000000000000000000010000000100043b0200080000000001000415020012000000000000000000000000000000000000000000000000000000000100041502000400000000000000000000000000000000000000000000000000000000000000000001000000000000000000000000000000000000000000000000000000000000000000000000000001000000010004150200060000000000000000000000006544fc8a98949d82",
	}
	if len(files) != len(want) {
		t.Errorf("chain files %d, want %d", len(files), len(want))
	}
	for name, got := range files {
		if got != want[name] {
			t.Errorf("%s: holds\n%s\nwant\n%s", name, got, want[name])
		}
	}
}
