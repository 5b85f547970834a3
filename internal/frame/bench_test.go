package frame

import (
	"testing"

	"ttastar/internal/bitstr"
	"ttastar/internal/cstate"
)

// benchFrames returns one genuine encoded frame of every kind, as the
// campaigns put them on the wire, plus the C-state they were built with.
func benchFrames(b *testing.B) (map[Kind]*bitstr.String, cstate.CState) {
	cs := cstate.CState{GlobalTime: 77, RoundSlot: 2, Membership: cstate.Membership(0).With(1).With(2).With(3)}
	data := bitstr.New(64).AppendUint(0x0123456789ABCDEF, 64)
	frames := map[Kind]*bitstr.String{}
	for _, f := range []Frame{NewColdStart(2, 77), NewN(2, cs, data), NewI(2, cs), NewX(2, cs, data)} {
		bits, err := f.Encode()
		if err != nil {
			b.Fatal(err)
		}
		frames[f.Kind] = bits
	}
	return frames, cs
}

func BenchmarkDecode(b *testing.B) {
	frames, cs := benchFrames(b)
	for _, kind := range []Kind{KindColdStart, KindN, KindI, KindX} {
		bits := frames[kind]
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if Decode(kind, bits, cs).Status != StatusCorrect {
					b.Fatal("genuine frame not judged correct")
				}
			}
		})
	}
}

func BenchmarkDecodeForIntegration(b *testing.B) {
	frames, _ := benchFrames(b)
	for _, kind := range []Kind{KindColdStart, KindN, KindI, KindX} {
		bits, want := frames[kind], kind.Explicit()
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := DecodeForIntegration(bits); ok != want {
					b.Fatalf("ok = %v, want %v", ok, want)
				}
			}
		})
	}
}
