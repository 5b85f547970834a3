package frame

import (
	"testing"
	"testing/quick"

	"ttastar/internal/bitstr"
	"ttastar/internal/cstate"
	"ttastar/internal/sim"
)

// randomBits builds an arbitrary bit string from fuzz inputs.
func randomBits(seed uint64, length uint16) *bitstr.String {
	rng := sim.NewRNG(seed)
	n := int(length) % 2200
	s := bitstr.New(n)
	for i := 0; i < n; i++ {
		s.AppendBit(rng.Bool())
	}
	return s
}

// TestDecodeTotalOnRandomBits: Decode must be total — no panic on any
// input — and must essentially never judge random bits correct (the CRC
// would have to collide).
func TestDecodeTotalOnRandomBits(t *testing.T) {
	rx := cstate.CState{GlobalTime: 3, RoundSlot: 1, Membership: 0b1111}
	f := func(seed uint64, length uint16, kindSeed uint8) bool {
		bits := randomBits(seed, length)
		kind := Kind(1 + kindSeed%4)
		res := Decode(kind, bits, rx)
		if res.Status == StatusCorrect {
			// A 24-bit CRC collision on random input would be a one in
			// 16M fluke; with explicit C-state comparison on top, treat
			// any hit as a bug.
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeForIntegrationTotalOnRandomBits: the integration decoder is
// total and never accepts random bits.
func TestDecodeForIntegrationTotalOnRandomBits(t *testing.T) {
	f := func(seed uint64, length uint16) bool {
		_, ok := DecodeForIntegration(randomBits(seed, length))
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeTotalOnTruncatedFrames: prefixes of genuine frames (what a
// tail-cutting guardian or a mid-frame collision produces) must decode
// without panicking and never as correct.
func TestDecodeTotalOnTruncatedFrames(t *testing.T) {
	cs := cstate.CState{GlobalTime: 7, RoundSlot: 2, Membership: 0b11}
	whole, err := NewI(2, cs).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < whole.Len(); cut++ {
		prefix := whole.Slice(0, cut)
		for _, k := range []Kind{KindColdStart, KindN, KindI, KindX} {
			if res := Decode(k, prefix, cs); res.Status == StatusCorrect {
				t.Fatalf("truncated frame (%d bits) decoded correct as %v", cut, k)
			}
		}
		if _, ok := DecodeForIntegration(prefix); ok {
			t.Fatalf("truncated frame (%d bits) accepted for integration", cut)
		}
	}
}

// TestDecodeBitFlipSweepXFrame: every single-bit corruption of an X-frame
// must be detected (invalid or incorrect, never correct). The trailing
// XFramePadBits are meaningless filler outside both CRCs and are exempt.
func TestDecodeBitFlipSweepXFrame(t *testing.T) {
	cs := cstate.CState{GlobalTime: 1, RoundSlot: 1, Membership: 1}
	data := bitstr.New(24).AppendUint(0xABCDEF, 24)
	bits, err := NewX(1, cs, data).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < bits.Len()-XFramePadBits; i++ {
		bits.Flip(i)
		if res := Decode(KindX, bits, cs); res.Status == StatusCorrect {
			t.Fatalf("bit flip at %d undetected", i)
		}
		bits.Flip(i)
	}
	if res := Decode(KindX, bits, cs); res.Status != StatusCorrect {
		t.Fatal("pristine frame no longer correct after sweep")
	}
}

// bitsFrom builds a bit string from raw bytes, dropping trim trailing bits
// so lengths that are not whole bytes are reached too.
func bitsFrom(raw []byte, trim int) *bitstr.String {
	s := bitstr.New(8 * len(raw))
	for _, b := range raw {
		s.AppendUint(uint64(b), 8)
	}
	return s.Slice(0, max(0, s.Len()-trim))
}

// presentExactlyWhenJudged reports whether a result carries a frame
// exactly when its status is incorrect or correct.
func presentExactlyWhenJudged(res DecodeResult) bool {
	judged := res.Status == StatusIncorrect || res.Status == StatusCorrect
	return judged == (res.Frame != Frame{})
}

func sameDecoded(a, b Frame) bool {
	if a.Kind != b.Kind || a.Sender != b.Sender || a.ModeChangeRequest != b.ModeChangeRequest ||
		a.CState != b.CState || (a.Data == nil) != (b.Data == nil) {
		return false
	}
	return a.Data == nil || a.Data.Equal(b.Data)
}

// sameResult reports whether two judgements agree in status and frame.
func sameResult(a, b DecodeResult) bool {
	return a.Status == b.Status && sameDecoded(a.Frame, b.Frame)
}

// checkCached fails unless every judgement and the integration decode
// from w's cached parse equal the uncached ones on a fresh copy of want,
// the bits w should carry. Each kind is judged under every C-state in
// turn, so later receivers are judged from the parse the first one made.
func checkCached(t *testing.T, what string, w *Wire, want *bitstr.String, rxs ...cstate.CState) {
	t.Helper()
	if w.Len() != want.Len() {
		t.Fatalf("%s: wire has %d bits, want %d", what, w.Len(), want.Len())
	}
	for _, k := range []Kind{KindColdStart, KindN, KindI, KindX, Kind(0), Kind(9)} {
		for _, rx := range rxs {
			if got, fresh := w.Decode(k, rx), Decode(k, want.Clone(), rx); !sameResult(got, fresh) {
				t.Fatalf("%s: cached %v judgement under %v: %v %+v, fresh copy: %v %+v", what, k, rx, got.Status, got.Frame, fresh.Status, fresh.Frame)
			}
		}
	}
	got, ok := w.Integration()
	fresh, freshOK := DecodeForIntegration(want.Clone())
	if ok != freshOK || !sameDecoded(got, fresh) {
		t.Fatalf("%s: cached integration %v %+v, fresh copy %v %+v", what, ok, got, freshOK, fresh)
	}
	if w.LooksLikeFrame() != LooksLikeFrame(want) {
		t.Fatalf("%s: cached LooksLikeFrame differs", what)
	}
}

// FuzzDecode checks the decoders on arbitrary bits and on frames built
// from arbitrary fields:
//   - Decode and DecodeForIntegration never panic;
//   - a frame is present exactly when the status is incorrect or correct
//     (for DecodeForIntegration: exactly when it reports ok);
//   - Encode followed by Decode returns the original frame for every kind,
//     and DecodeForIntegration returns it for the kinds a listening node
//     integrates on;
//   - on one Wire, the cached judgements under two receiver C-states, and
//     again after a bit flip and after re-encoding another frame into the
//     same wire, equal decodes of a fresh copy of the bits.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{0xA5, 0x5A, 0xFF, 0x00, 0x13}, uint8(3), uint16(77), uint16(2), uint16(0), uint16(0), uint32(0b1011), uint8(2), uint8(5))
	f.Add([]byte{}, uint8(0), uint16(0), uint16(0), uint16(0), uint16(0), uint32(0), uint8(0), uint8(0))
	f.Add(make([]byte, 260), uint8(7), uint16(0xFFFF), uint16(0xFFFF), uint16(9), uint16(4), uint32(0xFFFFFFFF), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, raw []byte, trim uint8, gt, rs, mode, dmc uint16, mem uint32, sender, mcr uint8) {
		cs := cstate.CState{GlobalTime: gt, RoundSlot: rs, ClusterMode: mode, DMC: dmc, Membership: cstate.Membership(mem)}

		// Arbitrary bits.
		bits := bitsFrom(raw, int(trim%8))
		for _, k := range []Kind{KindColdStart, KindN, KindI, KindX, Kind(0), Kind(9)} {
			if res := Decode(k, bits, cs); !presentExactlyWhenJudged(res) {
				t.Fatalf("Decode(%v, %d bits): status %v with frame %+v", k, bits.Len(), res.Status, res.Frame)
			}
		}
		if fr, ok := DecodeForIntegration(bits); ok != (fr != Frame{}) {
			t.Fatalf("DecodeForIntegration(%d bits): ok %v with frame %+v", bits.Len(), ok, fr)
		}

		// The cached parse, under the fuzzed C-state and a second one that
		// differs in every field, then after a flip of one bit.
		other := cstate.CState{GlobalTime: rs, RoundSlot: gt, ClusterMode: dmc, DMC: mode, Membership: ^cstate.Membership(mem)}
		w := NewWire(bits.Clone())
		checkCached(t, "arbitrary bits", w, bits, cs, other)
		if bits.Len() > 0 {
			i := (int(sender)<<8 | int(mcr)) % bits.Len()
			w.Flip(i)
			flipped := bits.Clone()
			flipped.Flip(i)
			checkCached(t, "after a flip", w, flipped, other, cs)
		}

		// Encode then decode: each kind built from only the fields it
		// carries on the wire (an N-frame's C-state is the receiver's).
		var data *bitstr.String
		if len(raw) > 0 {
			data = bitsFrom(raw, int(trim%8))
			if data.Len() > MaxDataBits {
				data = data.Slice(0, MaxDataBits)
			}
			if data.Len() == 0 {
				data = nil
			}
		}
		m := mcr % 8
		for _, orig := range []Frame{
			NewColdStart(cstate.NodeID(sender), gt),
			{Kind: KindN, ModeChangeRequest: m, CState: cs, Data: data},
			{Kind: KindI, ModeChangeRequest: m, CState: cstate.CState{GlobalTime: gt, RoundSlot: rs, Membership: cstate.Membership(mem & 0xFFFF)}},
			{Kind: KindX, ModeChangeRequest: m, CState: cs, Data: data},
		} {
			enc, err := orig.Encode()
			if err != nil {
				t.Fatalf("%v Encode: %v", orig.Kind, err)
			}
			res := Decode(orig.Kind, enc, orig.CState)
			if res.Status != StatusCorrect || !sameDecoded(res.Frame, orig) {
				t.Fatalf("%v round trip: %v %+v, want correct %+v", orig.Kind, res.Status, res.Frame, orig)
			}
			got, ok := DecodeForIntegration(enc)
			if ok != orig.Kind.Explicit() || (ok && !sameDecoded(got, orig)) {
				t.Fatalf("%v DecodeForIntegration: %v %+v, want %v %+v", orig.Kind, ok, got, orig.Kind.Explicit(), orig)
			}
			// A sender reusing its wire: EncodeTo replaces the bits and the
			// parse, whatever the wire carried before.
			if err := orig.EncodeTo(w); err != nil {
				t.Fatalf("%v EncodeTo: %v", orig.Kind, err)
			}
			checkCached(t, orig.Kind.String()+" re-encoded", w, enc, orig.CState, other)
		}
	})
}
