package bitstr

import (
	"bytes"
	"math/rand"
	"testing"
)

// crcWidth5 exercises the path for widths below one table byte.
var crcWidth5 = CRCParams{Width: 5, Poly: 0x15, Init: 0x1F, Name: "CRC-5/test"}

var fuzzCRCs = []CRCParams{CRC24, CRC16, crcWidth5}

// maxFuzzBits runs past the longest frame the simulator builds (a
// 2076-bit maximum X-frame).
const maxFuzzBits = 2200

// fromBytes builds an n-bit string from raw, cycling it (zeros if empty),
// one bit at a time so construction does not depend on the code under test.
func fromBytes(raw []byte, n int) *String {
	s := New(n)
	for i := 0; i < n; i++ {
		var bit bool
		if len(raw) > 0 {
			bit = raw[(i/8)%len(raw)]>>(7-uint(i%8))&1 == 1
		}
		s.AppendBit(bit)
	}
	return s
}

// checkInvariant fails unless s holds exactly (n+7)/8 bytes with zero
// padding past n.
func checkInvariant(t *testing.T, what string, s *String) {
	t.Helper()
	if len(s.data) != (s.n+7)/8 {
		t.Fatalf("%s: %d bits in %d bytes", what, s.n, len(s.data))
	}
	if r := s.n % 8; r != 0 && s.data[len(s.data)-1]&(0xFF>>uint(r)) != 0 {
		t.Fatalf("%s: nonzero padding past bit %d: %08b", what, s.n, s.data[len(s.data)-1])
	}
}

// identical compares length and packed bytes directly, independent of Equal.
func identical(a, b *String) bool {
	return a.n == b.n && bytes.Equal(a.data, b.data)
}

// checkAgainstReference compares every packed operation on s with the
// bit-serial reference; a, b and c pick offsets, widths and prefixes.
func checkAgainstReference(t *testing.T, s *String, a, b, c int) {
	t.Helper()
	n := s.Len()
	for _, p := range fuzzCRCs {
		if got, want := p.Checksum(s), refChecksum(p, s); got != want {
			t.Fatalf("%s Checksum(%d bits) = %#x, want %#x", p.Name, n, got, want)
		}
		if got, want := p.Verify(s), refVerify(p, s); got != want {
			t.Fatalf("%s Verify(%d bits) = %v, want %v", p.Name, n, got, want)
		}
		sealed := p.AppendChecksum(s.Clone())
		if !p.Verify(sealed) || !refVerify(p, sealed) {
			t.Fatalf("%s: checksummed %d-bit string does not verify", p.Name, n)
		}
		// A register continued at any split, over the string in place or
		// over the suffix's bits fed as words, sums the whole string.
		split := 0
		if n > 0 {
			split = c % (n + 1)
		}
		head := p.Begin().Bits(s, 0, split)
		if got, want := head.Bits(s, split, n).Sum(), refChecksum(p, s); got != want {
			t.Fatalf("%s Bits split at %d of %d = %#x, want %#x", p.Name, split, n, got, want)
		}
		for i, w := split, 1+b%64; i < n; i += w {
			w = min(w, n-i)
			head = head.Uint(refUint(s, i, w), w)
		}
		if got, want := head.Sum(), refChecksum(p, s); got != want {
			t.Fatalf("%s Uint feed from %d of %d = %#x, want %#x", p.Name, split, n, got, want)
		}
	}

	// Uint at an offset and width picked by a and b.
	if n > 0 {
		off := a % n
		w := min(1+b%64, n-off)
		if got, want := s.Uint(off, w), refUint(s, off, w); got != want {
			t.Fatalf("Uint(%d, %d) on %d bits = %#x, want %#x", off, w, n, got, want)
		}
	}

	// Slice at any alignment.
	from := 0
	if n > 0 {
		from = a % (n + 1)
	}
	to := from + b%(n-from+1)
	sl, ref := s.Slice(from, to), refSlice(s, from, to)
	checkInvariant(t, "Slice", sl)
	if !identical(sl, ref) {
		t.Fatalf("Slice(%d, %d) = %v, want %v", from, to, sl, ref)
	}

	// Append onto a prefix of every length mod 8, and AppendUint.
	prefix := fromBytes([]byte{byte(c)}, c%17)
	got, want := prefix.Clone().Append(s), refAppend(prefix.Clone(), s)
	checkInvariant(t, "Append", got)
	if !identical(got, want) {
		t.Fatalf("Append(%d bits) onto %d bits differs from reference", n, prefix.n)
	}
	w := b % 65
	v := uint64(a)*0x9E3779B97F4A7C15 ^ uint64(c)
	if w < 64 {
		v &= 1<<uint(w) - 1
	}
	gotU, wantU := prefix.Clone().AppendUint(v, w), refAppendUint(prefix.Clone(), v, w)
	checkInvariant(t, "AppendUint", gotU)
	if !identical(gotU, wantU) {
		t.Fatalf("AppendUint(%#x, %d) onto %d bits differs from reference", v, w, prefix.n)
	}

	// Reset keeps the storage and leaves a string the appends refill
	// exactly.
	reused := s.Clone()
	reused.Reset()
	checkInvariant(t, "Reset", reused)
	if reused.Append(prefix).Append(s); !identical(reused, refAppend(prefix.Clone(), s)) {
		t.Fatalf("Append after Reset differs from reference (%d + %d bits)", prefix.n, n)
	}

	// Equal against an identical copy, a flipped copy and a shorter one.
	other := s.Clone()
	if n > 0 {
		other.Flip(c % n)
	}
	for _, o := range []*String{s.Clone(), other, s.Slice(0, n/2)} {
		if got, want := s.Equal(o), refEqual(s, o); got != want {
			t.Fatalf("Equal = %v, want %v (%d vs %d bits)", got, want, n, o.n)
		}
	}
}

func FuzzBitString(f *testing.F) {
	for _, n := range []int{0, 1, 5, 7, 8, 9, 23, 24, 25, 28, 76, 100, 2076, maxFuzzBits} {
		for _, a := range []int{0, 3, 8, 13} {
			f.Add([]byte{0xA5, 0x3C, 0xFF, 0x01}, uint16(n), uint16(a), uint16(n/3), uint8(a+n))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, nbits, a, b uint16, c uint8) {
		s := fromBytes(raw, int(nbits)%(maxFuzzBits+1))
		checkAgainstReference(t, s, int(a), int(b), int(c))
	})
}

// TestAgainstReferenceRandom runs the fuzz body over a fixed-seed sweep of
// random strings, so plain `go test` covers every length and alignment.
func TestAgainstReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	raw := make([]byte, 64)
	for i := 0; i < 4000; i++ {
		n := rng.Intn(301)
		if i%20 == 0 {
			n = rng.Intn(maxFuzzBits + 1)
		}
		rng.Read(raw)
		s := fromBytes(raw[:1+rng.Intn(len(raw))], n)
		checkAgainstReference(t, s, rng.Int(), rng.Int(), rng.Intn(256))
	}
}

// TestPaddingStaysZero: Equal, Append and Bytes read the packed bytes
// whole, so no mutator may leave a bit set past the end of the string.
func TestPaddingStaysZero(t *testing.T) {
	s := New(16).AppendUint(0x1FFF, 13)
	checkInvariant(t, "AppendUint", s)
	s.SetBit(12, false)
	checkInvariant(t, "SetBit(false)", s)
	s.Flip(12)
	s.Flip(12)
	checkInvariant(t, "Flip", s)
	u := FromBits(true, true, true).Append(s)
	checkInvariant(t, "unaligned Append", u)
	for from := 0; from < u.Len(); from++ {
		checkInvariant(t, "Slice", u.Slice(from, u.Len()))
		checkInvariant(t, "Slice", u.Slice(0, u.Len()-from))
	}
	if !identical(u, refAppend(FromBits(true, true, true), s)) {
		t.Error("unaligned Append differs from reference")
	}
}

func TestHotPathsDoNotAllocate(t *testing.T) {
	s := fromBytes([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x42}, 2076)
	CRC24.AppendChecksum(s)
	for name, fn := range map[string]func(){
		"Checksum": func() { sink = CRC24.Checksum(s) },
		"Verify": func() {
			if !CRC24.Verify(s) {
				t.Fatal("checksummed string does not verify")
			}
		},
		"Uint": func() { sink = s.Uint(13, 64) },
		"CRC":  func() { sink = CRC24.Begin().Bits(s, 0, 101).Bits(s, 101, 2000).Uint(sink, 40).Sum() },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}
