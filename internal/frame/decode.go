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

// reading is the receiver-independent parse of a bit string as one
// expected kind: whether it is structurally such a frame, the fields it
// carries and the CRC verdicts that do not depend on who receives it.
// Only the comparison with a receiver's C-state is left to judge.
type reading struct {
	valid bool // structurally a frame of the kind
	// crcOK is the CRC verdict of a cold-start or I-frame, and the header
	// CRC verdict of an X-frame.
	crcOK bool
	// dataOK is an X-frame's data CRC verdict, read only when the header
	// CRC holds. The data CRC covers the frame's own explicit C-state.
	dataOK bool
	// frame holds the fields on the wire, without the payload; an
	// N-frame's C-state is the receiver's and is filled in by judge.
	frame Frame
	// body is an N-frame's CRC register after header and payload, and fcs
	// its transmitted CRC: judging continues body over the receiver's
	// C-state and compares.
	body bitstr.CRC
	fcs  uint64
}

// read parses the non-empty s as a frame of the given kind. An unknown
// kind reads as not a frame.
func read(kind Kind, s *bitstr.String) reading {
	switch kind {
	case KindColdStart:
		return readColdStart(s)
	case KindN:
		return readN(s)
	case KindI:
		return readI(s)
	case KindX:
		return readX(s)
	default:
		return reading{}
	}
}

// judge is the verdict of a receiver expecting C-state rx on s, read as r.
// It compares only C-states; a frame's payload is sliced from s afresh, so
// every receiver gets a payload of its own.
func (r *reading) judge(s *bitstr.String, rx cstate.CState) DecodeResult {
	if !r.valid {
		return invalid
	}
	f := r.frame
	switch f.Kind {
	case KindN:
		f.CState = rx // implicit: only verifiable against the receiver's own
		f.Data = payload(s, HeaderBits, s.Len()-CRCBits)
		return judged(f, rx.FeedFull(r.body).Sum() == r.fcs)
	case KindI:
		return judged(f, r.crcOK && f.CState.CompactEqual(rx))
	case KindX:
		if !r.crcOK {
			return judged(f, false)
		}
		f.Data = payload(s, xHeaderEnd, xDataEnd(s))
		return judged(f, r.dataOK && f.CState.Equal(rx))
	default:
		return judged(f, r.crcOK)
	}
}

// integrates reports whether a listening node integrates on the bits read
// as r: a cold-start, I- or X-frame with every CRC intact.
func (r *reading) integrates() bool {
	switch r.frame.Kind {
	case KindColdStart, KindI:
		return r.valid && r.crcOK
	case KindX:
		return r.valid && r.crcOK && r.dataOK
	default:
		return false
	}
}

// integration is the frame a listening node integrates on, s read as r;
// an X-frame's payload is sliced from s afresh.
func (r *reading) integration(s *bitstr.String) Frame {
	f := r.frame
	if f.Kind == KindX {
		f.Data = payload(s, xHeaderEnd, xDataEnd(s))
	}
	return f
}

// payload returns a copy of bits [from, to) of s, or nil if there are
// none.
func payload(s *bitstr.String, from, to int) *bitstr.String {
	if to <= from {
		return nil
	}
	return s.Slice(from, to)
}

func readColdStart(s *bitstr.String) reading {
	if s.Len() != ColdStartBits || s.Uint(0, ColdStartTypeBits) != 1 {
		return reading{}
	}
	sender := cstate.NodeID(s.Uint(ColdStartTypeBits+cstate.GlobalTimeBits, ColdStartRoundSlotPos))
	return reading{
		valid: true,
		crcOK: bitstr.CRC24.Verify(s),
		frame: Frame{
			Kind:   KindColdStart,
			Sender: sender,
			CState: cstate.CState{
				GlobalTime: uint16(s.Uint(ColdStartTypeBits, cstate.GlobalTimeBits)),
				RoundSlot:  uint16(sender),
			},
		},
	}
}

func readN(s *bitstr.String) reading {
	if s.Len() < MinNFrameBits || s.Uint(0, 1) != 0 {
		return reading{}
	}
	body := s.Len() - CRCBits
	return reading{
		valid: true,
		frame: Frame{Kind: KindN, ModeChangeRequest: uint8(s.Uint(1, 3))},
		body:  bitstr.CRC24.Begin().Bits(s, 0, body),
		fcs:   s.Uint(body, CRCBits),
	}
}

func readI(s *bitstr.String) reading {
	if s.Len() != MinIFrameBits || s.Uint(0, 1) != 1 {
		return reading{}
	}
	return reading{
		valid: true,
		crcOK: bitstr.CRC24.Verify(s),
		frame: Frame{
			Kind:              KindI,
			ModeChangeRequest: uint8(s.Uint(1, 3)),
			CState:            cstate.DecodeCompact(s, HeaderBits),
		},
	}
}

// X-frame layout: header and C-state under the header CRC, then the
// payload, the data CRC and the padding.
const (
	xHeaderEnd    = HeaderBits + cstate.FullBits + CRCBits
	minXFrameBits = xHeaderEnd + DataCRCBits + XFramePadBits
)

// xDataEnd is where the payload of the X-frame s ends.
func xDataEnd(s *bitstr.String) int { return s.Len() - DataCRCBits - XFramePadBits }

// readX checks both X-frame CRCs in place: the header CRC on the prefix,
// the data CRC from a register over the payload continued over the
// frame's C-state.
func readX(s *bitstr.String) reading {
	if s.Len() < minXFrameBits || s.Len() > MaxXFrameBits || s.Uint(0, 1) != 1 {
		return reading{}
	}
	r := reading{
		valid: true,
		frame: Frame{
			Kind:              KindX,
			ModeChangeRequest: uint8(s.Uint(1, 3)),
			CState:            cstate.DecodeFull(s, HeaderBits),
		},
	}
	crcAt := xHeaderEnd - CRCBits
	r.crcOK = bitstr.CRC24.Begin().Bits(s, 0, crcAt).Sum() == s.Uint(crcAt, CRCBits)
	if r.crcOK {
		end := xDataEnd(s)
		crc := r.frame.CState.FeedFull(bitstr.CRC24.Begin().Bits(s, xHeaderEnd, end))
		r.dataOK = crc.Sum() == s.Uint(end, DataCRCBits)
	}
	return r
}
