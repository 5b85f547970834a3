package experiments

import (
	"fmt"
	"strings"

	"ttastar/internal/analysis"
)

// EquationTable renders the §6 worked examples (E4–E6) as a table.
func EquationTable() string {
	ex := analysis.PaperExamples()
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-58s %14s\n", "eq.", "quantity", "value")
	fmt.Fprintf(&b, "%-8s %-58s %14.4f\n", "(5)", "Δ for ±100 ppm commodity oscillators", ex.Delta100PPM)
	fmt.Fprintf(&b, "%-8s %-58s %14.0f\n", "(6)", "largest allowable frame f_max [bits] at Δ=0.0002", ex.FMaxAt100PPM)
	fmt.Fprintf(&b, "%-8s %-58s %13.2f%%\n", "(8)", "max Δ for minimal protocol operation (f_max=76)", 100*ex.MaxDeltaIFrame)
	fmt.Fprintf(&b, "%-8s %-58s %13.2f%%\n", "(9)", "max Δ with maximum X-frames (f_max=2076)", 100*ex.MaxDeltaXFrame)
	fmt.Fprintf(&b, "%-8s %-58s %14.1f\n", "(10)", "ρmax/ρmin at f_max=f_min=128 (Figure 3 remark)", ex.Ratio128)
	return b.String()
}

// AsciiPlot renders a Figure-3 style log-scale impression of a series as
// rows of f_max versus a bar proportional to the allowable clock ratio.
func AsciiPlot(series []analysis.RatioPoint, rows int) string {
	if len(series) == 0 || rows <= 0 {
		return ""
	}
	var b strings.Builder
	maxRatio := series[0].Ratio
	for _, p := range series {
		if p.Ratio > maxRatio {
			maxRatio = p.Ratio
		}
	}
	stride := len(series) / rows
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < len(series); i += stride {
		p := series[i]
		bar := int(40 * p.Ratio / maxRatio)
		if bar < 1 {
			bar = 1
		}
		fmt.Fprintf(&b, "f_max=%5d | %-40s %.3f\n", p.FMax, strings.Repeat("#", bar), p.Ratio)
	}
	return b.String()
}
