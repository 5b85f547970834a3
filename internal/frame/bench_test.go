package frame

import (
	"testing"

	"ttastar/internal/bitstr"
	"ttastar/internal/cstate"
)

// benchFrames returns one genuine encoded frame of every kind, as the
// campaigns put them on the wire, plus the C-state they were built with.
func benchFrames(b testing.TB) (map[Kind]*bitstr.String, cstate.CState) {
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

// BenchmarkDecode times the uncached parse plus the judgement of one
// genuine frame of every kind, and under cached/ the per-receiver
// judgement alone: the verdict of a receiver of a transmission whose
// parse an earlier receiver already made.
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
	for _, kind := range []Kind{KindColdStart, KindN, KindI, KindX} {
		w := NewWire(frames[kind].Clone())
		b.Run("cached/"+kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if w.Decode(kind, cs).Status != StatusCorrect {
					b.Fatal("genuine frame not judged correct")
				}
			}
		})
	}
}

// TestDecodeAllocatesOnlyThePayload pins the zero-copy decode: both CRCs
// of an X-frame and the implicit-C-state CRC of an N-frame are checked in
// place, so a decode allocates exactly the payload it returns, and a
// cold-start or I-frame nothing. The cached judgement allocates no more.
func TestDecodeAllocatesOnlyThePayload(t *testing.T) {
	frames, cs := benchFrames(t)
	for _, kind := range []Kind{KindColdStart, KindN, KindI, KindX} {
		bits := frames[kind]
		var want float64
		if res := Decode(kind, bits, cs); res.Frame.Data != nil {
			data := res.Frame.Data.Len()
			want = testing.AllocsPerRun(100, func() { _ = bits.Slice(0, data) })
		}
		w := NewWire(bits.Clone())
		for name, decode := range map[string]func() DecodeResult{
			"Decode":      func() DecodeResult { return Decode(kind, bits, cs) },
			"Wire.Decode": func() DecodeResult { return w.Decode(kind, cs) },
		} {
			if got := testing.AllocsPerRun(100, func() { _ = decode() }); got != want {
				t.Errorf("%v %s: %v allocs, want %v (the payload's)", kind, name, got, want)
			}
		}
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
