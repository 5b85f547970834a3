package bitstr

import (
	"fmt"
	"sync/atomic"
)

// CRCParams describes a CRC computed most-significant-bit first over a bit
// string of arbitrary (not necessarily byte-aligned) length.
type CRCParams struct {
	Width int    // checksum width in bits, 1 to 64
	Poly  uint64 // generator polynomial, top bit implicit
	Init  uint64 // initial shift-register value
	Name  string // diagnostic label
}

// CRC24 is the 24-bit CRC used for TTP/C frame check sequences in this
// implementation. The exact TTP/C polynomial is not given in the paper; we
// use the well-documented CRC-24/Radix-64 polynomial (see DESIGN.md §4 —
// only the agreement semantics matter, not the polynomial choice).
var CRC24 = CRCParams{Width: 24, Poly: 0x864CFB, Init: 0xB704CE, Name: "CRC-24"}

// CRC16 is the CCITT 16-bit CRC, used for the second (data) CRC of X-frames.
var CRC16 = CRCParams{Width: 16, Poly: 0x1021, Init: 0xFFFF, Name: "CRC-16/CCITT"}

// Checksum computes the CRC of the bit string under p.
func (p CRCParams) Checksum(s *String) uint64 {
	return p.Begin().Bits(s, 0, s.n).Sum()
}

// CRC is a checksum part way through its message: the shift register of
// one CRCParams after the bits fed so far. It is a small value, so a
// register saved after a common prefix can be continued with different
// suffixes. Begin one with CRCParams.Begin.
//
// The register is kept left-aligned in 64 bits so one table shape serves
// every width: whole bytes go through the (Width, Poly) table eight bits
// per step, and the remaining bits through the shift register one at a
// time.
type CRC struct {
	t     *[256]uint64
	poly  uint64 // left-aligned
	reg   uint64 // left-aligned
	shift uint
}

// Begin returns p's register before any bits.
func (p CRCParams) Begin() CRC {
	shift := uint(64 - p.Width)
	return CRC{t: p.table(), poly: p.Poly << shift, reg: p.Init << shift, shift: shift}
}

// Sum returns the checksum of the bits fed so far.
func (c CRC) Sum() uint64 { return c.reg >> c.shift }

// Bits feeds bits [from, to) of s. It reads s in place: a byte-aligned
// start steps over s's bytes directly, any other start over 64-bit reads.
// It panics if the range runs outside s.
func (c CRC) Bits(s *String, from, to int) CRC {
	if from < 0 || to > s.n || from > to {
		panic(fmt.Sprintf("bitstr: CRC range [%d,%d) out of range [0,%d)", from, to, s.n))
	}
	i := from
	if i%8 == 0 {
		for _, b := range s.data[i/8 : to/8] {
			c.reg = c.reg<<8 ^ c.t[byte(c.reg>>56)^b]
		}
		i = to / 8 * 8
	} else {
		for ; i+64 <= to; i += 64 {
			c = c.Uint(s.Uint(i, 64), 64)
		}
	}
	if i < to {
		c = c.Uint(s.Uint(i, to-i), to-i)
	}
	return c
}

// Uint feeds the low width bits of v, most significant first (width in
// [0, 64]).
func (c CRC) Uint(v uint64, width int) CRC {
	v <<= uint(64 - width)
	for ; width >= 8; width -= 8 {
		c.reg = c.reg<<8 ^ c.t[byte(c.reg>>56)^byte(v>>56)]
		v <<= 8
	}
	for ; width > 0; width-- {
		feedback := (c.reg ^ v) >> 63
		c.reg <<= 1
		if feedback == 1 {
			c.reg ^= c.poly
		}
		v <<= 1
	}
	return c
}

// AppendChecksum computes the CRC of s and appends it, returning s.
func (p CRCParams) AppendChecksum(s *String) *String {
	return s.AppendUint(p.Checksum(s), p.Width)
}

// Verify reports whether the final Width bits of s are the correct CRC of
// the preceding bits. Strings shorter than Width bits never verify.
func (p CRCParams) Verify(s *String) bool {
	if s.Len() < p.Width {
		return false
	}
	body := s.Len() - p.Width
	return p.Begin().Bits(s, 0, body).Sum() == s.Uint(body, p.Width)
}

// crcTable is the byte-step table of one (Width, Poly): entry b is the
// left-aligned register after shifting the eight bits of b through a zero
// register.
type crcTable struct {
	width int
	poly  uint64
	step  [256]uint64
}

// crcTables holds every table built so far. The list is immutable once
// published, so a lookup is one atomic load and a short scan; a new
// (Width, Poly) is added by copy and compare-and-swap.
var crcTables atomic.Pointer[[]*crcTable]

// table returns the byte-step table of p's (Width, Poly), building and
// publishing it on first use.
func (p CRCParams) table() *[256]uint64 {
	for {
		cur := crcTables.Load()
		var known []*crcTable
		if cur != nil {
			known = *cur
		}
		for _, t := range known {
			if t.width == p.Width && t.poly == p.Poly {
				return &t.step
			}
		}
		t := &crcTable{width: p.Width, poly: p.Poly}
		poly := p.Poly << uint(64-p.Width)
		for b := range t.step {
			reg := uint64(b) << 56
			for k := 0; k < 8; k++ {
				if reg>>63 == 1 {
					reg = reg<<1 ^ poly
				} else {
					reg <<= 1
				}
			}
			t.step[b] = reg
		}
		next := append(known[:len(known):len(known)], t)
		if crcTables.CompareAndSwap(cur, &next) {
			return &t.step
		}
	}
}
