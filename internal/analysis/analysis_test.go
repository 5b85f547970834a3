package analysis

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDelta(t *testing.T) {
	if got := Delta(1.0001, 0.9999); !almost(got, 0.0002, 1e-7) {
		t.Errorf("Delta = %g", got)
	}
	if Delta(0, 1) != 0 {
		t.Error("Delta with zero fast clock should be 0")
	}
	if Delta(1, 1) != 0 {
		t.Error("equal clocks have nonzero delta")
	}
}

func TestEquationFive(t *testing.T) {
	// Δ = 2 · (0.0001) = 0.0002.
	if got := DeltaFromPPM(100); !almost(got, 0.0002, 1e-12) {
		t.Errorf("eq.(5): Δ = %g, want 0.0002", got)
	}
}

func TestEquationSix(t *testing.T) {
	// f_max = (28 − 1 − 4)/0.0002 = 115,000 bits.
	got := FMax(PaperFMin, PaperLineEncodingBits, 0.0002)
	if !almost(got, 115000, 1e-6) {
		t.Errorf("eq.(6): f_max = %g, want 115000", got)
	}
}

func TestEquationEight(t *testing.T) {
	// Δ = (28 − 1 − 4)/76 = 0.3026 → 30.26%.
	got := MaxDelta(PaperFMin, PaperLineEncodingBits, PaperIFrameBits)
	if !almost(got, 23.0/76.0, 1e-12) {
		t.Errorf("eq.(8): Δ = %g, want 23/76 ≈ 0.3026", got)
	}
}

func TestEquationNine(t *testing.T) {
	// Δ = (28 − 1 − 4)/2076 = 0.0111 → 1.11%.
	got := MaxDelta(PaperFMin, PaperLineEncodingBits, PaperXFrameBits)
	if !almost(got, 23.0/2076.0, 1e-12) {
		t.Errorf("eq.(9): Δ = %g, want 23/2076 ≈ 0.0111", got)
	}
}

func TestEquationTenAnd128Remark(t *testing.T) {
	// ρmax/ρmin = f_max/(f_max − f_min + 1 + le); at 128/128 it is
	// 128/5 = 25.6, the paper's remark about the 1 + le term.
	if got := ClockRatio(128, 128, 4); !almost(got, 25.6, 1e-9) {
		t.Errorf("ratio(128,128) = %g, want 25.6", got)
	}
	if got := ClockRatio(2076, 28, 4); !almost(got, 2076.0/2053.0, 1e-12) {
		t.Errorf("ratio(2076,28) = %g", got)
	}
	if ClockRatio(10, 28, 4) != 0 {
		t.Error("non-positive denominator not guarded")
	}
}

func TestBMinBMax(t *testing.T) {
	if got := BMin(4, 0.0002, 115000); !almost(got, 27, 1e-9) {
		t.Errorf("B_min = %g, want 27", got)
	}
	if got := BMax(28); got != 27 {
		t.Errorf("B_max = %d, want 27", got)
	}
}

func TestSafeBufferRange(t *testing.T) {
	// The eq. (6) operating point is exactly feasible.
	bMin, bMax, ok := SafeBufferRange(28, 115000, 4, 0.0002)
	if !ok || !almost(bMin, 27, 1e-9) || bMax != 27 {
		t.Errorf("range = [%g, %d] ok=%v", bMin, bMax, ok)
	}
	// Any longer frame at the same Δ is infeasible.
	if _, _, ok := SafeBufferRange(28, 120000, 4, 0.0002); ok {
		t.Error("infeasible configuration reported feasible")
	}
	// Zero mismatch is always feasible for sane sizes.
	if _, _, ok := SafeBufferRange(28, 1<<20, 4, 0); !ok {
		t.Error("zero-mismatch configuration infeasible")
	}
}

func TestPaperExamples(t *testing.T) {
	ex := PaperExamples()
	if !almost(ex.Delta100PPM, 0.0002, 1e-12) {
		t.Errorf("Delta100PPM = %g", ex.Delta100PPM)
	}
	if !almost(ex.FMaxAt100PPM, 115000, 1e-6) {
		t.Errorf("FMaxAt100PPM = %g", ex.FMaxAt100PPM)
	}
	if !almost(100*ex.MaxDeltaIFrame, 30.26, 0.01) {
		t.Errorf("MaxDeltaIFrame = %g%%", 100*ex.MaxDeltaIFrame)
	}
	if !almost(100*ex.MaxDeltaXFrame, 1.11, 0.01) {
		t.Errorf("MaxDeltaXFrame = %g%%", 100*ex.MaxDeltaXFrame)
	}
	if ex.Ratio128 != 25.6 {
		t.Errorf("Ratio128 = %g", ex.Ratio128)
	}
	s := ex.String()
	for _, want := range []string{"115000", "30.26", "1.11", "25.6"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestFigure3Series(t *testing.T) {
	series, err := Figure3Series(28, 4, 28, 2076, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != (2076-28)/8+1 {
		t.Errorf("series length = %d", len(series))
	}
	if series[0].FMax != 28 || series[len(series)-1].FMax > 2076 {
		t.Error("series bounds wrong")
	}
	// The curve must decrease monotonically in f_max for f_max ≥ f_min:
	// longer frames leave less slack for clock mismatch.
	for i := 1; i < len(series); i++ {
		if series[i].Ratio >= series[i-1].Ratio {
			t.Fatalf("curve not decreasing at f_max=%d", series[i].FMax)
		}
	}
	// And approaches 1 from above as f_max grows.
	last := series[len(series)-1].Ratio
	if last <= 1 || last > 1.02 {
		t.Errorf("tail ratio = %g, want just above 1", last)
	}
}

func TestFigure3SeriesErrors(t *testing.T) {
	for _, call := range [][4]int{
		{28, 27, 100, 1},  // lo < fMin
		{28, 100, 50, 1},  // hi < lo
		{28, 100, 200, 0}, // bad step
	} {
		if _, err := Figure3Series(call[0], 4, call[1], call[2], call[3]); !errors.Is(err, ErrBadRange) {
			t.Errorf("Figure3Series(%v) err = %v, want ErrBadRange", call, err)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	series, err := Figure3Series(28, 4, 28, 60, 16)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteCSV(&b, series); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "f_max_bits,clock_ratio_max\n") {
		t.Errorf("CSV header wrong: %q", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != len(series)+1 {
		t.Error("CSV row count wrong")
	}
}

// Consistency property: eq. (4) and eq. (7) are inverses.
func TestFMaxMaxDeltaInverseProperty(t *testing.T) {
	f := func(fMinSeed, fMaxSeed uint16) bool {
		fMin := 28 + int(fMinSeed)%100
		fMax := fMin + 1 + int(fMaxSeed)%4000
		delta := MaxDelta(fMin, 4, fMax)
		if delta <= 0 {
			return true
		}
		back := FMax(fMin, 4, delta)
		return almost(back, float64(fMax), 0.5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Consistency property: B_min at the eq. (4) operating point equals B_max.
func TestOperatingPointProperty(t *testing.T) {
	f := func(fMinSeed uint8, deltaSeed uint16) bool {
		fMin := 28 + int(fMinSeed)%200
		delta := float64(1+deltaSeed%9999) / 1e6
		fMax := FMax(fMin, 4, delta)
		bMin := BMin(4, delta, int(fMax))
		return almost(bMin, float64(BMax(fMin)), 1) // integer truncation slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
