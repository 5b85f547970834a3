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
	// Frame is the decoded frame; nil when the bits are not structurally a
	// frame of the expected kind.
	Frame *Frame
	// Status is the receiver judgement (invalid / incorrect / correct).
	Status Status
}

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
		return DecodeResult{Status: StatusInvalid}
	}
}

func decodeColdStart(s *bitstr.String) DecodeResult {
	if s.Len() != ColdStartBits || s.Uint(0, ColdStartTypeBits) != 1 {
		return DecodeResult{Status: StatusInvalid}
	}
	f := &Frame{
		Kind:   KindColdStart,
		Sender: cstate.NodeID(s.Uint(ColdStartTypeBits+cstate.GlobalTimeBits, ColdStartRoundSlotPos)),
	}
	f.CState.GlobalTime = uint16(s.Uint(ColdStartTypeBits, cstate.GlobalTimeBits))
	f.CState.RoundSlot = uint16(f.Sender)
	if !bitstr.CRC24.Verify(s) {
		return DecodeResult{Frame: f, Status: StatusIncorrect}
	}
	return DecodeResult{Frame: f, Status: StatusCorrect}
}

func decodeN(s *bitstr.String, rx cstate.CState) DecodeResult {
	if s.Len() < MinNFrameBits || s.Uint(0, 1) != 0 {
		return DecodeResult{Status: StatusInvalid}
	}
	f := &Frame{
		Kind:              KindN,
		ModeChangeRequest: uint8(s.Uint(1, 3)),
		CState:            rx, // implicit: only verifiable against the receiver's own
	}
	if dataBits := s.Len() - HeaderBits - CRCBits; dataBits > 0 {
		f.Data = s.Slice(HeaderBits, HeaderBits+dataBits)
	}
	covered := s.Slice(0, s.Len()-CRCBits)
	rx.AppendFull(covered)
	if bitstr.CRC24.Checksum(covered) != s.Uint(s.Len()-CRCBits, CRCBits) {
		return DecodeResult{Frame: f, Status: StatusIncorrect}
	}
	return DecodeResult{Frame: f, Status: StatusCorrect}
}

func decodeI(s *bitstr.String, rx cstate.CState) DecodeResult {
	if s.Len() != MinIFrameBits || s.Uint(0, 1) != 1 {
		return DecodeResult{Status: StatusInvalid}
	}
	f := iFrame(s)
	switch {
	case !bitstr.CRC24.Verify(s):
		return DecodeResult{Frame: f, Status: StatusIncorrect}
	case !f.CState.CompactEqual(rx):
		return DecodeResult{Frame: f, Status: StatusIncorrect}
	default:
		return DecodeResult{Frame: f, Status: StatusCorrect}
	}
}

// iFrame reads the fields of s, already checked to be structurally an
// I-frame; its CRC is the caller's to check.
func iFrame(s *bitstr.String) *Frame {
	return &Frame{
		Kind:              KindI,
		ModeChangeRequest: uint8(s.Uint(1, 3)),
		CState:            cstate.DecodeCompact(s, HeaderBits),
	}
}

func decodeX(s *bitstr.String, rx cstate.CState) DecodeResult {
	minLen := HeaderBits + cstate.FullBits + CRCBits + DataCRCBits + XFramePadBits
	if s.Len() < minLen || s.Len() > MaxXFrameBits || s.Uint(0, 1) != 1 {
		return DecodeResult{Status: StatusInvalid}
	}
	f := &Frame{
		Kind:              KindX,
		ModeChangeRequest: uint8(s.Uint(1, 3)),
		CState:            cstate.DecodeFull(s, HeaderBits),
	}
	headerEnd := HeaderBits + cstate.FullBits + CRCBits
	if !bitstr.CRC24.Verify(s.Slice(0, headerEnd)) {
		return DecodeResult{Frame: f, Status: StatusIncorrect}
	}
	dataBits := s.Len() - minLen
	if dataBits > 0 {
		f.Data = s.Slice(headerEnd, headerEnd+dataBits)
	}
	covered := bitstr.New(dataBits + cstate.FullBits)
	if f.Data != nil {
		covered.Append(f.Data)
	}
	f.CState.AppendFull(covered)
	dataCRC := s.Uint(s.Len()-XFramePadBits-DataCRCBits, DataCRCBits)
	switch {
	case bitstr.CRC24.Checksum(covered) != dataCRC:
		return DecodeResult{Frame: f, Status: StatusIncorrect}
	case !f.CState.Equal(rx):
		return DecodeResult{Frame: f, Status: StatusIncorrect}
	default:
		return DecodeResult{Frame: f, Status: StatusCorrect}
	}
}
