// Package frame implements TTP/C frame construction, bit-level encoding and
// decoding, and the validity/correctness checks receivers apply.
//
// Frames are not self-describing: the MEDL tells every node which frame kind
// and length to expect in each slot, so Wire.Decode takes the expected
// kind. The C-state is carried explicitly by I- and X-frames and cold-start
// frames, and implicitly by N-frames (mixed into the CRC), so receivers
// whose C-state disagrees with the sender's see an incorrect frame.
//
// Decoding is split in two: a parse that depends only on the bits, made
// at most once per transmitted string and kept with it in a Wire, and a
// per-receiver judgement that compares the parsed C-state with the
// receiver's own.
package frame

import (
	"errors"
	"fmt"

	"ttastar/internal/bitstr"
	"ttastar/internal/cstate"
)

// Kind identifies the TTP/C frame kind.
type Kind uint8

// Frame kinds. ColdStart frames bootstrap the time base; I-frames carry an
// explicit C-state and no data; N-frames carry data with implicit C-state;
// X-frames carry both explicit C-state and data.
const (
	KindColdStart Kind = iota + 1
	KindN
	KindI
	KindX
)

// String returns the conventional TTP/C name of the kind.
func (k Kind) String() string {
	switch k {
	case KindColdStart:
		return "cold-start"
	case KindN:
		return "N-frame"
	case KindI:
		return "I-frame"
	case KindX:
		return "X-frame"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Bit-layout constants. The header of N/I/X frames is 4 bits (1-bit
// C-state-explicit flag + 3-bit mode change request); cold-start frames have
// a 1-bit type flag, a 16-bit global time, and a 9-bit round-slot position,
// per the paper's §6 itemization.
const (
	HeaderBits            = 4
	CRCBits               = 24
	DataCRCBits           = 24
	XFramePadBits         = 8
	ColdStartTypeBits     = 1
	ColdStartRoundSlotPos = 9
	MaxDataBits           = 1920
)

// Canonical frame sizes (bits). These drive the §6 analysis.
const (
	// MinNFrameBits is the shortest TTP/C frame: an N-frame with no data
	// and implicit CRC (4 header + 24 CRC).
	MinNFrameBits = HeaderBits + CRCBits // 28
	// MinIFrameBits is the minimum frame with explicit C-state
	// (4 header + 48 compact C-state + 24 CRC).
	MinIFrameBits = HeaderBits + cstate.CompactBits + CRCBits // 76
	// MaxXFrameBits is the longest allowable TTP/C frame (4 header +
	// 96 C-state + 1920 data + two CRCs + 8 padding).
	MaxXFrameBits = HeaderBits + cstate.FullBits + MaxDataBits + CRCBits + DataCRCBits + XFramePadBits // 2076
	// ColdStartBits is the itemized cold-start frame length
	// (1 type + 16 time + 9 round slot + 24 CRC).
	ColdStartBits = ColdStartTypeBits + cstate.GlobalTimeBits + ColdStartRoundSlotPos + CRCBits // 50
	// ColdStartBitsPaper is the headline figure the paper quotes for the
	// minimum cold-start frame; its own itemization sums to ColdStartBits.
	// Exposed because the analysis examples cite the paper's number.
	ColdStartBitsPaper = 40
)

// Frame is a decoded (or to-be-encoded) TTP/C frame. It is a small value:
// constructors and decoders return it by value, so building or judging a
// frame allocates nothing beyond its payload.
type Frame struct {
	Kind   Kind
	Sender cstate.NodeID // sending slot's node; cold-start frames carry it on the wire
	// ModeChangeRequest is the 3-bit host mode change request of N/I/X
	// frames.
	ModeChangeRequest uint8
	// CState is the sender's controller state. For N-frames it is implicit:
	// used for the CRC but not transmitted.
	CState cstate.CState
	// Data is the application payload of N- and X-frames (nil means none).
	Data *bitstr.String
}

// Errors returned by Encode.
var (
	ErrDataTooLong    = errors.New("frame: data exceeds MaxDataBits")
	ErrBadModeRequest = errors.New("frame: mode change request exceeds 3 bits")
	ErrDataOnIFrame   = errors.New("frame: I-frames carry no data")
	ErrUnknownKind    = errors.New("frame: unknown kind")
)

// NewColdStart builds the cold-start frame a node in cold-start state sends:
// it carries the sender's view of the global time and its own round-slot
// position.
func NewColdStart(sender cstate.NodeID, globalTime uint16) Frame {
	return Frame{
		Kind:   KindColdStart,
		Sender: sender,
		CState: cstate.CState{GlobalTime: globalTime, RoundSlot: uint16(sender)},
	}
}

// NewI builds an I-frame carrying cs explicitly.
func NewI(sender cstate.NodeID, cs cstate.CState) Frame {
	return Frame{Kind: KindI, Sender: sender, CState: cs}
}

// NewN builds an N-frame whose CRC implicitly covers cs.
func NewN(sender cstate.NodeID, cs cstate.CState, data *bitstr.String) Frame {
	return Frame{Kind: KindN, Sender: sender, CState: cs, Data: data}
}

// NewX builds an X-frame carrying cs explicitly plus data.
func NewX(sender cstate.NodeID, cs cstate.CState, data *bitstr.String) Frame {
	return Frame{Kind: KindX, Sender: sender, CState: cs, Data: data}
}

func (f Frame) dataLen() int {
	if f.Data == nil {
		return 0
	}
	return f.Data.Len()
}

// EncodedBits returns the on-wire length of the frame in bits.
func (f Frame) EncodedBits() int {
	switch f.Kind {
	case KindColdStart:
		return ColdStartBits
	case KindN:
		return HeaderBits + f.dataLen() + CRCBits
	case KindI:
		return MinIFrameBits
	case KindX:
		return HeaderBits + cstate.FullBits + f.dataLen() + CRCBits + DataCRCBits + XFramePadBits
	default:
		return 0
	}
}

// Encode serializes the frame. The returned bit string is what travels on
// the wire; for N-frames the C-state is folded into the CRC but not
// transmitted.
func (f Frame) Encode() (*bitstr.String, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	s := bitstr.New(f.EncodedBits())
	f.appendTo(s)
	return s, nil
}

// EncodeTo serializes the frame into w, replacing its bits and dropping
// its cached parse. A sender that encodes into wires of its own reuses
// their storage, so a warm sender encodes without allocating. On an error
// w is left as it was.
func (f Frame) EncodeTo(w *Wire) error {
	if err := f.check(); err != nil {
		return err
	}
	w.reset()
	f.appendTo(&w.bits)
	return nil
}

// check reports why the frame cannot be encoded, or nil.
func (f Frame) check() error {
	if f.ModeChangeRequest > 7 {
		return ErrBadModeRequest
	}
	switch f.Kind {
	case KindColdStart:
	case KindN, KindX:
		if f.dataLen() > MaxDataBits {
			return ErrDataTooLong
		}
	case KindI:
		if f.Data != nil && f.Data.Len() > 0 {
			return ErrDataOnIFrame
		}
	default:
		return fmt.Errorf("%w: %d", ErrUnknownKind, uint8(f.Kind))
	}
	return nil
}

// appendTo appends the encoding of the checked frame to the empty s.
func (f Frame) appendTo(s *bitstr.String) {
	switch f.Kind {
	case KindColdStart:
		s.AppendUint(1, ColdStartTypeBits)
		s.AppendUint(uint64(f.CState.GlobalTime), cstate.GlobalTimeBits)
		s.AppendUint(uint64(f.Sender)&0x1FF, ColdStartRoundSlotPos)
		bitstr.CRC24.AppendChecksum(s)

	case KindN:
		s.AppendUint(0, 1) // implicit C-state
		s.AppendUint(uint64(f.ModeChangeRequest), 3)
		if f.Data != nil {
			s.Append(f.Data)
		}
		// Implicit C-state: the CRC covers body ++ C-state, but only the
		// body ++ CRC is transmitted.
		crc := f.CState.FeedFull(bitstr.CRC24.Begin().Bits(s, 0, s.Len()))
		s.AppendUint(crc.Sum(), CRCBits)

	case KindI:
		s.AppendUint(1, 1) // explicit C-state
		s.AppendUint(uint64(f.ModeChangeRequest), 3)
		f.CState.AppendCompact(s)
		bitstr.CRC24.AppendChecksum(s)

	case KindX:
		s.AppendUint(1, 1)
		s.AppendUint(uint64(f.ModeChangeRequest), 3)
		f.CState.AppendFull(s)
		bitstr.CRC24.AppendChecksum(s) // header CRC over header + C-state
		crc := bitstr.CRC24.Begin()
		if f.Data != nil {
			s.Append(f.Data)
			crc = crc.Bits(f.Data, 0, f.Data.Len())
		}
		// Data CRC covers the data and, implicitly, the C-state again.
		s.AppendUint(f.CState.FeedFull(crc).Sum(), DataCRCBits)
		s.AppendUint(0, XFramePadBits)
	}
}
