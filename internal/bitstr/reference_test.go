package bitstr

// The bit-serial reference: one-bit-at-a-time versions of the packed
// operations in bitstr.go and crc.go, built only from Bit and AppendBit.
// The fuzz and differential tests compare the packed code against them.

func refAppendUint(s *String, v uint64, width int) *String {
	for i := width - 1; i >= 0; i-- {
		s.AppendBit(v>>uint(i)&1 == 1)
	}
	return s
}

func refAppend(s, other *String) *String {
	for i := 0; i < other.n; i++ {
		s.AppendBit(other.Bit(i))
	}
	return s
}

func refUint(s *String, offset, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v <<= 1
		if s.Bit(offset + i) {
			v |= 1
		}
	}
	return v
}

func refSlice(s *String, from, to int) *String {
	out := New(to - from)
	for i := from; i < to; i++ {
		out.AppendBit(s.Bit(i))
	}
	return out
}

func refEqual(s, other *String) bool {
	if s.n != other.n {
		return false
	}
	for i := 0; i < s.n; i++ {
		if s.Bit(i) != other.Bit(i) {
			return false
		}
	}
	return true
}

func refChecksum(p CRCParams, s *String) uint64 {
	reg := p.Init
	top := uint64(1) << uint(p.Width-1)
	mask := top<<1 - 1
	for i := 0; i < s.Len(); i++ {
		in := uint64(0)
		if s.Bit(i) {
			in = 1
		}
		feedback := (reg>>uint(p.Width-1))&1 ^ in
		reg = (reg << 1) & mask
		if feedback == 1 {
			reg ^= p.Poly
		}
	}
	return reg & mask
}

func refVerify(p CRCParams, s *String) bool {
	if s.Len() < p.Width {
		return false
	}
	body := refSlice(s, 0, s.Len()-p.Width)
	got := refUint(s, s.Len()-p.Width, p.Width)
	return refChecksum(p, body) == got
}
