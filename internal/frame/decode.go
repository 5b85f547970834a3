package frame

import (
	"ttastar/internal/bitstr"
	"ttastar/internal/cstate"
)

// Status is a receiver's judgement of one slot, following the TTP/C
// classification the paper's §2.1 describes: a slot is null (silence),
// invalid (activity that is not a well-formed frame), incorrect (a valid
// frame whose C-state/CRC disagrees with the receiver), or correct.
type Status uint8

// Slot judgements, in increasing order of goodness.
const (
	StatusNull Status = iota + 1
	StatusInvalid
	StatusIncorrect
	StatusCorrect
)

// String returns the judgement name.
func (s Status) String() string {
	switch s {
	case StatusNull:
		return "null"
	case StatusInvalid:
		return "invalid"
	case StatusIncorrect:
		return "incorrect"
	case StatusCorrect:
		return "correct"
	default:
		return "unknown"
	}
}

// CountsAsAgreed reports whether the judgement increments the receiver's
// agreed-slots counter (only correct frames do).
func (s Status) CountsAsAgreed() bool { return s == StatusCorrect }

// CountsAsFailed reports whether the judgement increments the receiver's
// failed-slots counter. Null slots count as neither agreed nor failed.
func (s Status) CountsAsFailed() bool { return s == StatusInvalid || s == StatusIncorrect }

// DecodeResult is the outcome of decoding one received bit string.
type DecodeResult struct {
	// Frame is the decoded frame. It is present exactly when Status is
	// StatusIncorrect or StatusCorrect; for null and invalid bits (not
	// structurally a frame of the expected kind) it is the zero Frame.
	Frame Frame
	// Status is the receiver judgement (null / invalid / incorrect /
	// correct).
	Status Status
}

// judged returns the result for a structurally valid frame f: correct when
// ok, incorrect otherwise.
func judged(f Frame, ok bool) DecodeResult {
	if ok {
		return DecodeResult{Frame: f, Status: StatusCorrect}
	}
	return DecodeResult{Frame: f, Status: StatusIncorrect}
}

var invalid = DecodeResult{Status: StatusInvalid}

// Decode parses the received bits as a frame of the expected kind (the MEDL
// tells receivers what to expect) and judges it against the receiver's
// C-state rx. A nil or empty bit string judges as null.
//
// For N-frames the C-state is implicit: the CRC can only be verified by
// folding the *receiver's* C-state into it, so a CRC mismatch means either
// corruption or C-state disagreement — exactly the ambiguity TTP/C exploits.
func Decode(kind Kind, s *bitstr.String, rx cstate.CState) DecodeResult {
	if s == nil || s.Len() == 0 {
		return DecodeResult{Status: StatusNull}
	}
	switch kind {
	case KindColdStart:
		return decodeColdStart(s)
	case KindN:
		return decodeN(s, rx)
	case KindI:
		return decodeI(s, rx)
	case KindX:
		return decodeX(s, rx)
	default:
		return invalid
	}
}

func decodeColdStart(s *bitstr.String) DecodeResult {
	if s.Len() != ColdStartBits || s.Uint(0, ColdStartTypeBits) != 1 {
		return invalid
	}
	sender := cstate.NodeID(s.Uint(ColdStartTypeBits+cstate.GlobalTimeBits, ColdStartRoundSlotPos))
	f := Frame{
		Kind:   KindColdStart,
		Sender: sender,
		CState: cstate.CState{
			GlobalTime: uint16(s.Uint(ColdStartTypeBits, cstate.GlobalTimeBits)),
			RoundSlot:  uint16(sender),
		},
	}
	return judged(f, bitstr.CRC24.Verify(s))
}

func decodeN(s *bitstr.String, rx cstate.CState) DecodeResult {
	if s.Len() < MinNFrameBits || s.Uint(0, 1) != 0 {
		return invalid
	}
	f := Frame{
		Kind:              KindN,
		ModeChangeRequest: uint8(s.Uint(1, 3)),
		CState:            rx, // implicit: only verifiable against the receiver's own
	}
	if dataBits := s.Len() - HeaderBits - CRCBits; dataBits > 0 {
		f.Data = s.Slice(HeaderBits, HeaderBits+dataBits)
	}
	covered := s.Slice(0, s.Len()-CRCBits)
	rx.AppendFull(covered)
	return judged(f, bitstr.CRC24.Checksum(covered) == s.Uint(s.Len()-CRCBits, CRCBits))
}

func decodeI(s *bitstr.String, rx cstate.CState) DecodeResult {
	if !isIFrame(s) {
		return invalid
	}
	f := iFrame(s)
	return judged(f, bitstr.CRC24.Verify(s) && f.CState.CompactEqual(rx))
}

// isIFrame reports whether s is structurally an I-frame.
func isIFrame(s *bitstr.String) bool { return s.Len() == MinIFrameBits && s.Uint(0, 1) == 1 }

// iFrame reads the fields of s, already checked to be structurally an
// I-frame; its CRC is the caller's to check.
func iFrame(s *bitstr.String) Frame {
	return Frame{
		Kind:              KindI,
		ModeChangeRequest: uint8(s.Uint(1, 3)),
		CState:            cstate.DecodeCompact(s, HeaderBits),
	}
}

// minXFrameBits is the length of an X-frame with no data.
const minXFrameBits = HeaderBits + cstate.FullBits + CRCBits + DataCRCBits + XFramePadBits

func decodeX(s *bitstr.String, rx cstate.CState) DecodeResult {
	if s.Len() < minXFrameBits || s.Len() > MaxXFrameBits || s.Uint(0, 1) != 1 {
		return invalid
	}
	f := Frame{
		Kind:              KindX,
		ModeChangeRequest: uint8(s.Uint(1, 3)),
		CState:            cstate.DecodeFull(s, HeaderBits),
	}
	headerEnd := HeaderBits + cstate.FullBits + CRCBits
	if !bitstr.CRC24.Verify(s.Slice(0, headerEnd)) {
		return judged(f, false)
	}
	dataBits := s.Len() - minXFrameBits
	if dataBits > 0 {
		f.Data = s.Slice(headerEnd, headerEnd+dataBits)
	}
	covered := bitstr.New(dataBits + cstate.FullBits)
	if f.Data != nil {
		covered.Append(f.Data)
	}
	f.CState.AppendFull(covered)
	dataCRC := s.Uint(s.Len()-XFramePadBits-DataCRCBits, DataCRCBits)
	return judged(f, bitstr.CRC24.Checksum(covered) == dataCRC && f.CState.Equal(rx))
}
