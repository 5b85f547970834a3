package frame

import (
	"testing"

	"ttastar/internal/bitstr"
	"ttastar/internal/cstate"
)

func TestDecodeForIntegrationColdStart(t *testing.T) {
	bits, err := NewColdStart(3, 12).Encode()
	if err != nil {
		t.Fatal(err)
	}
	f, ok := DecodeForIntegration(bits)
	if !ok || f.Kind != KindColdStart || f.Sender != 3 {
		t.Errorf("cold-start: ok=%v f=%+v", ok, f)
	}
}

func TestDecodeForIntegrationIFrame(t *testing.T) {
	cs := cstate.CState{GlobalTime: 9, RoundSlot: 2, Membership: cstate.Membership(0).With(1).With(2)}
	bits, err := NewI(2, cs).Encode()
	if err != nil {
		t.Fatal(err)
	}
	f, ok := DecodeForIntegration(bits)
	if !ok || f.Kind != KindI || f.CState.RoundSlot != 2 || f.CState.GlobalTime != 9 {
		t.Errorf("I-frame: ok=%v f=%+v", ok, f)
	}
}

func TestDecodeForIntegrationXFrame(t *testing.T) {
	cs := cstate.CState{GlobalTime: 4, RoundSlot: 1, Membership: cstate.Membership(0).With(1)}
	data := bitstr.New(16).AppendUint(0xBEEF, 16)
	bits, err := NewX(1, cs, data).Encode()
	if err != nil {
		t.Fatal(err)
	}
	f, ok := DecodeForIntegration(bits)
	if !ok || f.Kind != KindX || !f.CState.Equal(cs) {
		t.Errorf("X-frame: ok=%v f=%+v", ok, f)
	}
	// Corrupting the C-state makes it unusable for integration.
	bits.Flip(HeaderBits + 5)
	if _, ok := DecodeForIntegration(bits); ok {
		t.Error("corrupted X-frame accepted for integration")
	}
}

func TestDecodeForIntegrationRejects(t *testing.T) {
	if _, ok := DecodeForIntegration(nil); ok {
		t.Error("nil accepted")
	}
	if _, ok := DecodeForIntegration(bitstr.New(0)); ok {
		t.Error("empty accepted")
	}
	// N-frames carry no verifiable C-state.
	nBits, err := NewN(1, cstate.CState{}, nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := DecodeForIntegration(nBits); ok {
		t.Error("N-frame accepted for integration")
	}
	// A corrupted I-frame.
	iBits, err := NewI(1, cstate.CState{RoundSlot: 1}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	iBits.Flip(20)
	if _, ok := DecodeForIntegration(iBits); ok {
		t.Error("corrupted I-frame accepted for integration")
	}
	if _, ok := DecodeForIntegration(channelNoise(64)); ok {
		t.Error("noise accepted for integration")
	}
}

func channelNoise(n int) *bitstr.String {
	s := bitstr.New(n)
	for i := 0; i < n; i++ {
		s.AppendBit(i%3 == 0)
	}
	return s
}

func TestLooksLikeFrame(t *testing.T) {
	cases := []struct {
		build func() *bitstr.String
		want  bool
	}{
		{func() *bitstr.String { b, _ := NewColdStart(1, 0).Encode(); return b }, true},
		{func() *bitstr.String { b, _ := NewI(1, cstate.CState{}).Encode(); return b }, true},
		{func() *bitstr.String { b, _ := NewN(1, cstate.CState{}, nil).Encode(); return b }, true},
		{func() *bitstr.String { return nil }, false},
		{func() *bitstr.String { return bitstr.FromBits(true, false) }, false},
	}
	for i, tc := range cases {
		if got := LooksLikeFrame(tc.build()); got != tc.want {
			t.Errorf("case %d: LooksLikeFrame = %v, want %v", i, got, tc.want)
		}
	}
}

// refDecodeForIntegration is DecodeForIntegration as it was before the
// I-frame path stopped re-verifying its CRC through Decode: the oracle the
// pin below compares against.
func refDecodeForIntegration(s *bitstr.String) (Frame, bool) {
	if s == nil || s.Len() == 0 {
		return Frame{}, false
	}
	if res := Decode(KindColdStart, s, emptyCState); res.Status == StatusCorrect {
		return res.Frame, true
	}
	if s.Len() == MinIFrameBits && s.Uint(0, 1) == 1 && bitstr.CRC24.Verify(s) {
		if res := Decode(KindI, s, emptyCState); res.Status >= StatusIncorrect {
			return res.Frame, true
		}
	}
	xMin := HeaderBits + 96 + CRCBits + DataCRCBits + XFramePadBits
	if s.Len() >= xMin && s.Len() != MinIFrameBits && s.Uint(0, 1) == 1 {
		if probe := Decode(KindX, s, emptyCState); probe.Status >= StatusIncorrect {
			if res := Decode(KindX, s, probe.Frame.CState); res.Status == StatusCorrect {
				return res.Frame, true
			}
		}
	}
	return Frame{}, false
}

func sameFrame(a, b Frame) bool {
	if a.Kind != b.Kind || a.Sender != b.Sender || a.ModeChangeRequest != b.ModeChangeRequest ||
		!a.CState.Equal(b.CState) || (a.Data == nil) != (b.Data == nil) {
		return false
	}
	return a.Data == nil || a.Data.Equal(b.Data)
}

// TestDecodeForIntegrationPinned pins DecodeForIntegration on every frame
// kind — genuine, bit-flipped at every position, cut or extended by a bit,
// and replayed with a foreign (stale) C-state — against the reference
// decode, and pins which of them a listening node may integrate on.
func TestDecodeForIntegrationPinned(t *testing.T) {
	cs := cstate.CState{GlobalTime: 40, RoundSlot: 3, Membership: cstate.Membership(0).With(1).With(3)}
	stale := cstate.CState{GlobalTime: 12, RoundSlot: 3, Membership: cstate.Membership(0).With(3)}
	data := bitstr.New(20).AppendUint(0xABCDE, 20)
	build := func(kind Kind, c cstate.CState) *bitstr.String {
		f := Frame{Kind: kind, Sender: 3, ModeChangeRequest: 5, CState: c}
		switch kind {
		case KindColdStart:
			f = NewColdStart(3, c.GlobalTime)
		case KindN, KindX:
			f.Data = data
		}
		bits, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return bits
	}
	// carried is what a frame built from c carries on the wire: an
	// I-frame only the compact C-state, a cold-start frame only its time
	// and sender.
	carried := func(kind Kind, c cstate.CState) Frame {
		switch kind {
		case KindColdStart:
			return NewColdStart(3, c.GlobalTime)
		case KindI:
			return Frame{Kind: kind, ModeChangeRequest: 5, CState: cstate.CState{
				GlobalTime: c.GlobalTime, RoundSlot: c.RoundSlot, Membership: c.Membership & 0xFFFF}}
		default:
			return Frame{Kind: kind, ModeChangeRequest: 5, CState: c, Data: data}
		}
	}
	check := func(name string, s *bitstr.String, wantOK bool) {
		t.Helper()
		got, ok := DecodeForIntegration(s)
		want, refOK := refDecodeForIntegration(s)
		if ok != refOK || !sameFrame(got, want) {
			t.Errorf("%s: got (%+v, %v), reference (%+v, %v)", name, got, ok, want, refOK)
		}
		if ok != wantOK {
			t.Errorf("%s: ok = %v, want %v", name, ok, wantOK)
		}
	}
	for _, kind := range []Kind{KindColdStart, KindN, KindI, KindX} {
		explicit := kind.Explicit()
		genuine := build(kind, cs)
		check(kind.String()+" genuine", genuine, explicit)
		// A listening node has no C-state of its own to compare, so a
		// replay carrying a stale C-state integrates just as well.
		check(kind.String()+" replayed", build(kind, stale), explicit)
		if explicit {
			for _, c := range []cstate.CState{cs, stale} {
				got, _ := DecodeForIntegration(build(kind, c))
				if want := carried(kind, c); !sameFrame(got, want) {
					t.Errorf("%v: decoded %+v, want %+v", kind, got, want)
				}
			}
		}
		for i := 0; i < genuine.Len(); i++ {
			flipped := genuine.Clone()
			flipped.Flip(i)
			// No CRC covers an X-frame's trailing pad bits.
			pad := kind == KindX && i >= genuine.Len()-XFramePadBits
			check(kind.String()+" flipped", flipped, pad)
		}
		check(kind.String()+" cut", genuine.Slice(0, genuine.Len()-1), false)
		check(kind.String()+" extended", genuine.Clone().AppendBit(false), false)
	}
}
