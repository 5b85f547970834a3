package bitstr

import "testing"

// sink keeps measured results live so the compiler cannot drop the calls.
var sink uint64

func BenchmarkChecksum(b *testing.B) {
	for _, bc := range []struct {
		name string
		bits int // checksummed body: an I-frame and a maximum X-frame
	}{{"IFrame76", 76}, {"XFrame2076", 2076}} {
		s := fromBytes([]byte{0x5A, 0xC3, 0x96}, bc.bits)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = CRC24.Checksum(s)
			}
		})
	}
}
