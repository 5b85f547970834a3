package frame

import (
	"errors"
	"testing"
	"testing/quick"

	"ttastar/internal/bitstr"
	"ttastar/internal/cstate"
)

var testCS = cstate.CState{
	GlobalTime: 100,
	RoundSlot:  3,
	Membership: cstate.Membership(0).With(1).With(2).With(3).With(4),
}

func TestPaperFrameSizes(t *testing.T) {
	// The §6 analysis depends on these exact sizes.
	if MinNFrameBits != 28 {
		t.Errorf("MinNFrameBits = %d, want 28", MinNFrameBits)
	}
	if MinIFrameBits != 76 {
		t.Errorf("MinIFrameBits = %d, want 76", MinIFrameBits)
	}
	if MaxXFrameBits != 2076 {
		t.Errorf("MaxXFrameBits = %d, want 2076", MaxXFrameBits)
	}
	if ColdStartBits != 50 {
		t.Errorf("ColdStartBits = %d, want 50 (paper itemization)", ColdStartBits)
	}
	if ColdStartBitsPaper != 40 {
		t.Errorf("ColdStartBitsPaper = %d, want 40", ColdStartBitsPaper)
	}
}

func TestEncodedLengthsMatchEncode(t *testing.T) {
	data := bitstr.New(16).AppendUint(0xBEEF, 16)
	frames := []Frame{
		NewColdStart(2, 55),
		NewN(1, testCS, nil),
		NewN(1, testCS, data),
		NewI(3, testCS),
		NewX(4, testCS, data),
		NewX(4, testCS, nil),
	}
	for _, f := range frames {
		s, err := f.Encode()
		if err != nil {
			t.Fatalf("%v Encode: %v", f.Kind, err)
		}
		if s.Len() != f.EncodedBits() {
			t.Errorf("%v: encoded %d bits, EncodedBits says %d", f.Kind, s.Len(), f.EncodedBits())
		}
	}
	if NewN(1, testCS, nil).EncodedBits() != MinNFrameBits {
		t.Error("empty N-frame is not the minimum frame")
	}
	full := bitstr.New(MaxDataBits).AppendUint(0, 64)
	for full.Len() < MaxDataBits {
		full.AppendBit(false)
	}
	if NewX(1, testCS, full).EncodedBits() != MaxXFrameBits {
		t.Error("full X-frame is not the maximum frame")
	}
}

func TestEncodeErrors(t *testing.T) {
	tooLong := bitstr.New(MaxDataBits + 1)
	for i := 0; i <= MaxDataBits; i++ {
		tooLong.AppendBit(false)
	}
	if _, err := NewN(1, testCS, tooLong).Encode(); !errors.Is(err, ErrDataTooLong) {
		t.Errorf("long N-frame: err = %v, want ErrDataTooLong", err)
	}
	if _, err := NewX(1, testCS, tooLong).Encode(); !errors.Is(err, ErrDataTooLong) {
		t.Errorf("long X-frame: err = %v, want ErrDataTooLong", err)
	}
	bad := NewI(1, testCS)
	bad.ModeChangeRequest = 8
	if _, err := bad.Encode(); !errors.Is(err, ErrBadModeRequest) {
		t.Errorf("mode request 8: err = %v, want ErrBadModeRequest", err)
	}
	withData := NewI(1, testCS)
	withData.Data = bitstr.FromBits(true)
	if _, err := withData.Encode(); !errors.Is(err, ErrDataOnIFrame) {
		t.Errorf("I-frame with data: err = %v, want ErrDataOnIFrame", err)
	}
	if _, err := (&Frame{Kind: Kind(99)}).Encode(); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("unknown kind: err = %v, want ErrUnknownKind", err)
	}
}

func TestColdStartRoundTrip(t *testing.T) {
	f := NewColdStart(3, 77)
	s, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	res := Decode(KindColdStart, s, cstate.CState{})
	if res.Status != StatusCorrect {
		t.Fatalf("status = %v, want correct", res.Status)
	}
	if res.Frame.Sender != 3 || res.Frame.CState.GlobalTime != 77 || res.Frame.CState.RoundSlot != 3 {
		t.Errorf("decoded frame = %+v", res.Frame)
	}
}

func TestIFrameRoundTrip(t *testing.T) {
	s, err := NewI(3, testCS).Encode()
	if err != nil {
		t.Fatal(err)
	}
	res := Decode(KindI, s, testCS)
	if res.Status != StatusCorrect {
		t.Fatalf("status = %v, want correct", res.Status)
	}
	if !res.Frame.CState.CompactEqual(testCS) {
		t.Errorf("decoded C-state %v != %v", res.Frame.CState, testCS)
	}
}

func TestIFrameCStateDisagreement(t *testing.T) {
	s, err := NewI(3, testCS).Encode()
	if err != nil {
		t.Fatal(err)
	}
	other := testCS
	other.GlobalTime++
	res := Decode(KindI, s, other)
	if res.Status != StatusIncorrect {
		t.Errorf("status with disagreeing receiver = %v, want incorrect", res.Status)
	}
}

func TestNFrameImplicitCState(t *testing.T) {
	data := bitstr.New(8).AppendUint(0x5A, 8)
	s, err := NewN(1, testCS, data).Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Matching receiver C-state → correct.
	if res := Decode(KindN, s, testCS); res.Status != StatusCorrect {
		t.Errorf("matching C-state: status = %v", res.Status)
	} else if res.Frame.Data == nil || res.Frame.Data.Uint(0, 8) != 0x5A {
		t.Error("payload not recovered")
	}
	// Any C-state disagreement → incorrect, indistinguishable from corruption.
	other := testCS
	other.Membership = other.Membership.Without(2)
	if res := Decode(KindN, s, other); res.Status != StatusIncorrect {
		t.Errorf("disagreeing C-state: status = %v, want incorrect", res.Status)
	}
}

func TestXFrameRoundTrip(t *testing.T) {
	data := bitstr.New(32).AppendUint(0xFEEDC0DE, 32)
	s, err := NewX(4, testCS, data).Encode()
	if err != nil {
		t.Fatal(err)
	}
	res := Decode(KindX, s, testCS)
	if res.Status != StatusCorrect {
		t.Fatalf("status = %v, want correct", res.Status)
	}
	if !res.Frame.CState.Equal(testCS) {
		t.Errorf("C-state = %v", res.Frame.CState)
	}
	if res.Frame.Data.Uint(0, 32) != 0xFEEDC0DE {
		t.Error("payload not recovered")
	}
	other := testCS
	other.DMC = 1
	if res := Decode(KindX, s, other); res.Status != StatusIncorrect {
		t.Errorf("disagreeing receiver: status = %v", res.Status)
	}
}

func TestDecodeNull(t *testing.T) {
	if res := Decode(KindI, nil, testCS); res.Status != StatusNull {
		t.Errorf("nil bits: status = %v, want null", res.Status)
	}
	if res := Decode(KindI, bitstr.New(0), testCS); res.Status != StatusNull {
		t.Errorf("empty bits: status = %v, want null", res.Status)
	}
}

func TestDecodeStructurallyInvalid(t *testing.T) {
	noise := bitstr.New(10).AppendUint(0x3FF, 10)
	for _, k := range []Kind{KindColdStart, KindN, KindI, KindX} {
		if res := Decode(k, noise, testCS); res.Status != StatusInvalid {
			t.Errorf("%v noise: status = %v, want invalid", k, res.Status)
		}
	}
	// Wrong explicit-flag bit makes a structurally invalid frame.
	s, err := NewI(1, testCS).Encode()
	if err != nil {
		t.Fatal(err)
	}
	s.SetBit(0, false)
	if res := Decode(KindI, s, testCS); res.Status != StatusInvalid {
		t.Errorf("flag-corrupted I-frame: status = %v, want invalid", res.Status)
	}
	if res := Decode(Kind(42), s, testCS); res.Status != StatusInvalid {
		t.Errorf("unknown kind: status = %v, want invalid", res.Status)
	}
}

func TestDecodeCorruptionIncorrect(t *testing.T) {
	// Flipping a payload/CRC bit (not the structure flag) → incorrect.
	for _, build := range []func() (Frame, Kind){
		func() (Frame, Kind) { return NewColdStart(1, 9), KindColdStart },
		func() (Frame, Kind) { return NewI(1, testCS), KindI },
		func() (Frame, Kind) { return NewN(1, testCS, nil), KindN },
		func() (Frame, Kind) { return NewX(1, testCS, nil), KindX },
	} {
		f, k := build()
		s, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		s.Flip(s.Len() - 1 - XFramePadBits) // inside a CRC for every kind
		if res := Decode(k, s, testCS); res.Status != StatusIncorrect {
			t.Errorf("%v corrupted: status = %v, want incorrect", k, res.Status)
		}
	}
}

func TestXFrameHeaderCorruption(t *testing.T) {
	s, err := NewX(1, testCS, nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	s.Flip(HeaderBits + 3) // inside the explicit C-state, breaks header CRC
	if res := Decode(KindX, s, testCS); res.Status != StatusIncorrect {
		t.Errorf("header-corrupted X-frame: status = %v, want incorrect", res.Status)
	}
}

func TestStatusAccounting(t *testing.T) {
	cases := []struct {
		st             Status
		agreed, failed bool
	}{
		{StatusNull, false, false},
		{StatusInvalid, false, true},
		{StatusIncorrect, false, true},
		{StatusCorrect, true, false},
	}
	for _, tc := range cases {
		if tc.st.CountsAsAgreed() != tc.agreed || tc.st.CountsAsFailed() != tc.failed {
			t.Errorf("%v: agreed=%v failed=%v", tc.st, tc.st.CountsAsAgreed(), tc.st.CountsAsFailed())
		}
	}
	if StatusNull.String() != "null" || StatusCorrect.String() != "correct" ||
		StatusInvalid.String() != "invalid" || StatusIncorrect.String() != "incorrect" ||
		Status(9).String() != "unknown" {
		t.Error("Status.String() wrong")
	}
}

func TestKindHelpers(t *testing.T) {
	if !KindI.Explicit() || !KindX.Explicit() || !KindColdStart.Explicit() || KindN.Explicit() {
		t.Error("Explicit() wrong")
	}
	names := map[Kind]string{
		KindColdStart: "cold-start", KindN: "N-frame", KindI: "I-frame", KindX: "X-frame",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(77).String() != "Kind(77)" {
		t.Errorf("unknown kind string = %q", Kind(77).String())
	}
}

func TestEncodeDecodePropertyIFrames(t *testing.T) {
	f := func(gt, rs uint16, mem uint16, mcr uint8) bool {
		cs := cstate.CState{GlobalTime: gt, RoundSlot: rs, Membership: cstate.Membership(mem)}
		fr := NewI(1, cs)
		fr.ModeChangeRequest = mcr % 8
		s, err := fr.Encode()
		if err != nil {
			return false
		}
		res := Decode(KindI, s, cs)
		return res.Status == StatusCorrect &&
			res.Frame.ModeChangeRequest == mcr%8 &&
			res.Frame.CState.CompactEqual(cs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodePropertyNFramePayload(t *testing.T) {
	f := func(payload uint64, widthSeed uint8) bool {
		width := int(widthSeed) % 64
		payload &= (1 << uint(width)) - 1
		var data *bitstr.String
		if width > 0 {
			data = bitstr.New(width).AppendUint(payload, width)
		}
		s, err := NewN(1, testCS, data).Encode()
		if err != nil {
			return false
		}
		res := Decode(KindN, s, testCS)
		if res.Status != StatusCorrect {
			return false
		}
		if width == 0 {
			return res.Frame.Data == nil
		}
		return res.Frame.Data.Len() == width && res.Frame.Data.Uint(0, width) == payload
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
