// Package bitstr implements bit-exact strings and the cyclic redundancy
// checks TTP/C frames use. Frames in TTP/C are not byte aligned (a minimum
// N-frame is 28 bits), so all frame encoding is done at bit granularity.
package bitstr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
)

// String is a mutable sequence of bits, most significant bit first within
// the sequence. The zero value is an empty string ready for use.
//
// Bits are packed eight to a byte, first bit in the top bit of data[0], and
// data holds exactly (n+7)/8 bytes. The padding bits past n in the final
// byte are always zero: every mutator keeps that invariant, and Equal,
// Append and Bytes rely on it.
type String struct {
	data []byte
	n    int
}

// New returns an empty bit string with capacity for sizeHint bits.
func New(sizeHint int) *String {
	return &String{data: make([]byte, 0, (sizeHint+7)/8)}
}

// FromBits builds a string from explicit bit values.
func FromBits(bits ...bool) *String {
	s := New(len(bits))
	for _, b := range bits {
		s.AppendBit(b)
	}
	return s
}

// Reset empties the string and keeps its storage for the next appends.
func (s *String) Reset() {
	s.data = s.data[:0]
	s.n = 0
}

// Len returns the number of bits in the string.
func (s *String) Len() int { return s.n }

// AppendBit appends one bit.
func (s *String) AppendBit(bit bool) *String {
	if s.n%8 == 0 {
		s.data = append(s.data, 0)
	}
	if bit {
		s.data[s.n/8] |= 1 << (7 - uint(s.n%8))
	}
	s.n++
	return s
}

// AppendUint appends the low width bits of v, most significant first.
// It panics if width is outside [0, 64] or v does not fit in width bits.
func (s *String) AppendUint(v uint64, width int) *String {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitstr: AppendUint width %d out of range", width))
	}
	if width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("bitstr: value %d does not fit in %d bits", v, width))
	}
	if width == 0 {
		return s
	}
	v <<= uint(64 - width) // left-aligned: the next bit to append on top
	if r := s.n % 8; r != 0 {
		// Fill the free low bits of the last byte first.
		s.data[len(s.data)-1] |= byte(v >> uint(56+r))
		if width <= 8-r {
			s.n += width
			return s
		}
		v <<= uint(8 - r)
		width -= 8 - r
		s.n += 8 - r
	}
	for width > 0 {
		take := min(8, width)
		s.data = append(s.data, byte(v>>56))
		v <<= 8
		s.n += take
		width -= take
	}
	return s
}

// Append appends all bits of other.
func (s *String) Append(other *String) *String {
	n := other.n
	if s.n%8 == 0 {
		s.data = append(s.data, other.data...)
		s.n += n
		return s
	}
	for i := 0; i < n; i += 8 {
		take := min(8, n-i)
		s.appendByte(other.bitsAt(i, take), take)
	}
	return s
}

// appendByte appends the top take bits of b (1 <= take <= 8); the low
// 8-take bits of b must be zero.
func (s *String) appendByte(b byte, take int) {
	r := uint(s.n % 8)
	if r == 0 {
		s.data = append(s.data, b)
	} else {
		s.data[len(s.data)-1] |= b >> r
		if take > int(8-r) {
			s.data = append(s.data, b<<(8-r))
		}
	}
	s.n += take
}

// bitsAt returns bits [i, i+take) in the top take bits of a byte, the rest
// zero (1 <= take <= 8, i+take <= s.n).
func (s *String) bitsAt(i, take int) byte {
	k, sh := i/8, uint(i%8)
	b := s.data[k] << sh
	if sh != 0 && k+1 < len(s.data) {
		b |= s.data[k+1] >> (8 - sh)
	}
	return b &^ (0xFF >> uint(take))
}

// Bit returns the bit at index i. It panics if i is out of range.
func (s *String) Bit(i int) bool {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstr: index %d out of range [0,%d)", i, s.n))
	}
	return s.data[i/8]>>(7-uint(i%8))&1 == 1
}

// SetBit sets the bit at index i.
func (s *String) SetBit(i int, bit bool) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstr: index %d out of range [0,%d)", i, s.n))
	}
	mask := byte(1) << (7 - uint(i%8))
	if bit {
		s.data[i/8] |= mask
	} else {
		s.data[i/8] &^= mask
	}
}

// Flip inverts the bit at index i. Fault injectors use it to corrupt frames.
func (s *String) Flip(i int) { s.SetBit(i, !s.Bit(i)) }

// Uint reads width bits starting at offset, most significant first. It
// panics if width is outside [0, 64] or the bits run outside the string;
// a zero-width read is 0 at any offset. The read is one big-endian 64-bit
// load at the first byte, plus the next byte when the bits spill past it.
func (s *String) Uint(offset, width int) uint64 {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitstr: Uint width %d out of range", width))
	}
	if width == 0 {
		return 0
	}
	if offset < 0 || offset >= s.n {
		panic(fmt.Sprintf("bitstr: index %d out of range [0,%d)", offset, s.n))
	}
	if offset > s.n-width {
		panic(fmt.Sprintf("bitstr: index %d out of range [0,%d)", s.n, s.n))
	}
	k, sh := offset/8, uint(offset%8)
	var w uint64
	if k+8 <= len(s.data) {
		w = binary.BigEndian.Uint64(s.data[k:])
		if sh+uint(width) > 64 {
			// The read ends in the byte past the window.
			w = w<<sh | uint64(s.data[k+8])>>(8-sh)
			return w >> (64 - uint(width))
		}
	} else {
		// Fewer than eight bytes left: the read ends inside them.
		for i, b := range s.data[k:] {
			w |= uint64(b) << (56 - 8*uint(i))
		}
	}
	return w << sh >> (64 - uint(width))
}

// Slice returns a copy of bits [from, to).
func (s *String) Slice(from, to int) *String {
	if from < 0 || to > s.n || from > to {
		panic(fmt.Sprintf("bitstr: slice [%d,%d) out of range [0,%d)", from, to, s.n))
	}
	out := New(to - from)
	for i := from; i < to; i += 8 {
		out.data = append(out.data, s.bitsAt(i, min(8, to-i)))
	}
	out.n = to - from
	return out
}

// Clone returns an independent copy.
func (s *String) Clone() *String {
	out := &String{data: make([]byte, len(s.data)), n: s.n}
	copy(out.data, s.data)
	return out
}

// Equal reports whether s and other hold the same bit sequence.
func (s *String) Equal(other *String) bool {
	return s.n == other.n && bytes.Equal(s.data, other.data)
}

// String renders the bits as '0'/'1' characters grouped in nibbles.
func (s *String) String() string {
	var b strings.Builder
	for i := 0; i < s.n; i++ {
		if i > 0 && i%4 == 0 {
			b.WriteByte(' ')
		}
		if s.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
