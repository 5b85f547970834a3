package bitstr

import (
	"sync"
	"testing"
	"testing/quick"
)

func message(bits uint64, width int) *String {
	return New(width).AppendUint(bits, width)
}

func TestCRCAppendVerifyRoundTrip(t *testing.T) {
	for _, p := range []CRCParams{CRC24, CRC16} {
		s := message(0xDEADBEEF, 32)
		p.AppendChecksum(s)
		if s.Len() != 32+p.Width {
			t.Errorf("%s: len = %d", p.Name, s.Len())
		}
		if !p.Verify(s) {
			t.Errorf("%s: freshly checksummed message fails Verify", p.Name)
		}
	}
}

func TestCRCDetectsSingleBitFlip(t *testing.T) {
	// A CRC must detect any single-bit error; flip every position in turn.
	for _, p := range []CRCParams{CRC24, CRC16} {
		s := message(0x12345678, 32)
		p.AppendChecksum(s)
		for i := 0; i < s.Len(); i++ {
			s.Flip(i)
			if p.Verify(s) {
				t.Errorf("%s: flip at bit %d undetected", p.Name, i)
			}
			s.Flip(i)
		}
	}
}

func TestCRCDetectsBurstErrors(t *testing.T) {
	// CRCs detect all burst errors shorter than their width.
	p := CRC24
	s := message(0xCAFEBABE, 32)
	p.AppendChecksum(s)
	for start := 0; start+p.Width <= s.Len(); start += 5 {
		for l := 2; l < p.Width; l += 7 {
			for i := start; i < start+l; i++ {
				s.Flip(i)
			}
			if p.Verify(s) {
				t.Errorf("burst [%d,%d) undetected", start, start+l)
			}
			for i := start; i < start+l; i++ {
				s.Flip(i)
			}
		}
	}
}

func TestCRCVerifyRejectsShortStrings(t *testing.T) {
	if CRC24.Verify(message(0x3, 2)) {
		t.Error("2-bit string verified against 24-bit CRC")
	}
}

func TestCRCDistinctMessagesDistinctSums(t *testing.T) {
	a := CRC24.Checksum(message(1, 28))
	b := CRC24.Checksum(message(2, 28))
	if a == b {
		t.Error("distinct messages share a checksum (suspicious implementation)")
	}
}

func TestCRCChecksumDependsOnInit(t *testing.T) {
	m := message(0xAA, 8)
	modified := CRC24
	modified.Init = 0
	if CRC24.Checksum(m) == modified.Checksum(m) {
		t.Error("Init value has no effect")
	}
}

func TestCRCPropertyRoundTrip(t *testing.T) {
	f := func(payload uint64, widthSeed uint8) bool {
		width := 1 + int(widthSeed)%63
		payload &= (1 << uint(width)) - 1
		s := message(payload, width)
		CRC16.AppendChecksum(s)
		return CRC16.Verify(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestCRCPropertyFlipDetected(t *testing.T) {
	f := func(payload uint32, flipSeed uint16) bool {
		s := message(uint64(payload), 32)
		CRC24.AppendChecksum(s)
		s.Flip(int(flipSeed) % s.Len())
		return !CRC24.Verify(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// The implicit C-state scheme relies on this: two parties computing a CRC
// over (body ++ hidden-state) agree iff their hidden states agree.
func TestCRCImplicitStateAgreement(t *testing.T) {
	body := message(0x77, 8)
	stateA := message(0x1234, 16)
	stateB := message(0x1235, 16)

	withA := body.Clone().Append(stateA)
	withB := body.Clone().Append(stateB)
	if CRC24.Checksum(withA) == CRC24.Checksum(withB) {
		t.Error("differing hidden states produced identical checksums")
	}
	if CRC24.Checksum(withA) != CRC24.Checksum(body.Clone().Append(stateA.Clone())) {
		t.Error("identical hidden states produced differing checksums")
	}
}

// TestCRCTableConcurrentFirstUse: goroutines that meet new (Width, Poly)
// pairs at the same time all publish into the shared table list; every
// checksum must still match the reference and every table stay findable.
func TestCRCTableConcurrentFirstUse(t *testing.T) {
	msg := message(0x0123456789ABCDEF, 61)
	params := make([]CRCParams, 16)
	for i := range params {
		params[i] = CRCParams{Width: 7 + i, Poly: 0x5B + uint64(i)*2, Init: 1, Name: "concurrent"}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range params {
				p := params[(k+g*5)%len(params)]
				if got, want := p.Checksum(msg), refChecksum(p, msg); got != want {
					t.Errorf("width %d: Checksum = %#x, want %#x", p.Width, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
	for _, p := range params {
		if p.table() != p.table() {
			t.Errorf("width %d: table rebuilt after publication", p.Width)
		}
	}
}
