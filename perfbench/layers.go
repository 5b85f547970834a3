package main

// The per-layer report: the metric table the traced run prints, and the
// accumulators that feed it besides the tracer's own search sums.

import (
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"ttastar/internal/dist"
)

// metricDef names one metric with its unit; the names match
// BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd is the untraced run's metric set.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"max_rss_B", "B"},
}

// perLayer is the traced run's metric set. Every workload reports every
// name; a layer the workload does not run reads 0. Counts and times are
// per pass.
var perLayer = []metricDef{
	{"model.successors_calls", "count"},
	{"model.successors_out", "count"},
	{"model.successors_s", "s"},
	{"model.canonicalize_calls", "count"},
	{"model.canonicalize_s", "s"},
	{"model.property_calls", "count"},
	{"model.property_s", "s"},
	{"mc.searches", "count"},
	{"mc.search_s", "s"},
	{"mc.search_overhead_s", "s"},
	{"mc.levels", "count"},
	{"mc.level_s_p50", "s"},
	{"mc.level_s_max", "s"},
	{"mc.states", "count"},
	{"mc.transitions", "count"},
	{"mc.dedup_ratio", "ratio"},
	{"mc.probe_mean", "steps"},
	{"mc.probe_tail_frac", "ratio"},
	{"mc.load_factor", "ratio"},
	{"mc.sealed_states", "count"},
	{"mc.sealed_B_per_state", "B/state"},
	{"mc.sealed_index_B", "B"},
	{"mc.peak_resident_B", "B"},
	{"mc.claim_s", "s"},
	{"mc.boundary_s", "s"},
	{"trace.render_calls", "count"},
	{"trace.render_s", "s"},
	{"dist.levels", "count"},
	{"dist.level_s_p50", "s"},
	{"dist.level_s_max", "s"},
	{"dist.recovery_level_s", "s"},
	{"dist.worker_starts", "count"},
	{"dist.worker_start_s", "s"},
	{"dist.control_frames", "count"},
	{"dist.control_B", "B"},
	{"dist.frames", "count"},
	{"dist.wire_B", "B"},
	{"dist.snapshot_B", "B"},
	{"dist.respawns", "count"},
	{"dist.takeovers", "count"},
	{"dist.work_transitions", "count"},
	{"dist.reexpanded_transitions", "count"},
	{"experiments.cells", "count"},
	{"experiments.runs", "count"},
	{"experiments.attempts", "count"},
	{"experiments.retried", "count"},
	{"experiments.failed", "count"},
	{"experiments.cell_s_p50", "s"},
	{"experiments.cell_s_max", "s"},
	{"experiments.runs_per_s", "1/s"},
	{"cluster.sim_events", "count"},
	{"cluster.events_per_s", "1/s"},
	{"runtime.alloc_B", "B"},
	{"runtime.allocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.cpu_s", "s"},
	{"bench.trace_overhead", "ratio"},
	{"bench.addup_residual_s", "s"},
	{"bench.addup_residual_frac", "ratio"},
	{"bench.failed_frac", "ratio"},
}

// layerSums holds the accumulators of the layers the tracer does not
// time itself.
type layerSums struct {
	dist    distSums
	exp     expSums
	cluster clusterSums
	runtime runtimeSums
}

type distSums struct {
	levelS                                 []float64
	recoveryNs                             int64
	workerStarts, workerStartNs            int64
	controlFrames, controlB                int64
	frames, wireB, snapshotB               int64
	respawns, takeovers                    int64
	workTransitions, reexpandedTransitions int64
}

// add folds one dist pass: the run's ledger, the launcher's counts, the
// level walls by depth and the snapshot bytes left behind.
func (d *distSums) add(rep dist.Report, l *tracedLauncher, walls map[int]int64, killLevel int, snapshotB int64) {
	for depth := 1; depth <= len(walls); depth++ {
		d.levelS = append(d.levelS, seconds(walls[depth]))
	}
	d.recoveryNs += walls[killLevel]
	starts, startNs, frames, bytes := l.totals()
	d.workerStarts += starts
	d.workerStartNs += startNs
	d.controlFrames += frames
	d.controlB += bytes
	d.frames += int64(rep.Frames)
	d.wireB += int64(rep.BytesOnWire)
	d.snapshotB += snapshotB
	d.respawns += int64(rep.Respawns)
	d.takeovers += int64(rep.Takeovers)
	d.workTransitions += int64(rep.WorkTransitions)
	d.reexpandedTransitions += int64(rep.ReexpandedTransitions)
}

type expSums struct {
	cellS                           []float64
	runs, attempts, retried, failed int64
	cellNs                          int64
}

func (e *expSums) cell(st cellStats, d time.Duration) {
	e.cellS = append(e.cellS, d.Seconds())
	e.cellNs += int64(d)
	e.runs += int64(st.runs)
	e.attempts += int64(st.attempts)
	e.retried += int64(st.retried)
	e.failed += int64(st.failed)
}

type clusterSums struct {
	events uint64
	ns     int64
}

// runtimeSums accumulates the Go runtime's and the OS's view of the
// traced passes.
type runtimeSums struct {
	allocB, allocs, gcCycles uint64
	gcPauseNs, cpuNs         int64
}

// runtimeSample is a point reading of the monotonic runtime and rusage
// counters.
type runtimeSample struct {
	ms    runtime.MemStats
	cpuNs int64
}

func readRuntime() runtimeSample {
	var s runtimeSample
	runtime.ReadMemStats(&s.ms)
	s.cpuNs = cpuNanos()
	return s
}

func (r *runtimeSums) add(a, b runtimeSample) {
	r.allocB += b.ms.TotalAlloc - a.ms.TotalAlloc
	r.allocs += b.ms.Mallocs - a.ms.Mallocs
	r.gcCycles += uint64(b.ms.NumGC - a.ms.NumGC)
	r.gcPauseNs += int64(b.ms.PauseTotalNs - a.ms.PauseTotalNs)
	r.cpuNs += b.cpuNs - a.cpuNs
}

// cpuNanos is the process's user plus system CPU time.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// maxRSS is the process's peak resident set in bytes.
func maxRSS() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports KiB
}

// layerMetrics computes every per-layer metric for a traced run of
// passes passes; traceOverhead is the traced over the untraced pass wall.
func layerMetrics(tr *tracer, l *layerSums, passes int, workers int, traceOverhead, failedFrac float64, log io.Writer) map[string]float64 {
	per := func(x float64) float64 { return x / float64(passes) }
	s := &tr.sum
	m := map[string]float64{
		"model.successors_calls":   per(float64(s.succCalls)),
		"model.successors_out":     per(float64(s.succOut)),
		"model.successors_s":       per(seconds(s.succNs)),
		"model.canonicalize_calls": per(float64(s.canonCalls)),
		"model.canonicalize_s":     per(seconds(s.canonNs)),
		"model.property_calls":     per(float64(s.propCalls)),
		"model.property_s":         per(seconds(s.propNs)),

		"mc.searches":          per(float64(s.searches)),
		"mc.search_s":          per(seconds(s.searchNs)),
		"mc.search_overhead_s": per(seconds(s.overheadNs)),
		"mc.levels":            per(float64(s.levels)),
		"mc.level_s_p50":       median(s.levelS),
		"mc.level_s_max":       maxOf(s.levelS),
		"mc.states":            per(float64(s.states)),
		"mc.transitions":       per(float64(s.transitions)),
		"mc.load_factor":       s.loadFactor,
		"mc.sealed_states":     per(float64(s.sealedStates)),
		"mc.sealed_index_B":    per(float64(s.sealedIndexB)),
		"mc.peak_resident_B":   float64(s.peakResidentB),
		"mc.claim_s":           per(seconds(s.claimNs)),
		"mc.boundary_s":        per(seconds(s.boundaryNs)),

		"trace.render_calls": per(float64(s.renderCalls)),
		"trace.render_s":     per(seconds(s.renderNs)),

		"dist.levels":                 per(float64(len(l.dist.levelS))),
		"dist.level_s_p50":            median(l.dist.levelS),
		"dist.level_s_max":            maxOf(l.dist.levelS),
		"dist.recovery_level_s":       per(seconds(l.dist.recoveryNs)),
		"dist.worker_starts":          per(float64(l.dist.workerStarts)),
		"dist.worker_start_s":         per(seconds(l.dist.workerStartNs)),
		"dist.control_frames":         per(float64(l.dist.controlFrames)),
		"dist.control_B":              per(float64(l.dist.controlB)),
		"dist.frames":                 per(float64(l.dist.frames)),
		"dist.wire_B":                 per(float64(l.dist.wireB)),
		"dist.snapshot_B":             per(float64(l.dist.snapshotB)),
		"dist.respawns":               per(float64(l.dist.respawns)),
		"dist.takeovers":              per(float64(l.dist.takeovers)),
		"dist.work_transitions":       per(float64(l.dist.workTransitions)),
		"dist.reexpanded_transitions": per(float64(l.dist.reexpandedTransitions)),

		"experiments.cells":      per(float64(len(l.exp.cellS))),
		"experiments.runs":       per(float64(l.exp.runs)),
		"experiments.attempts":   per(float64(l.exp.attempts)),
		"experiments.retried":    per(float64(l.exp.retried)),
		"experiments.failed":     per(float64(l.exp.failed)),
		"experiments.cell_s_p50": median(l.exp.cellS),
		"experiments.cell_s_max": maxOf(l.exp.cellS),
		"cluster.sim_events":     per(float64(l.cluster.events)),
		"runtime.alloc_B":        per(float64(l.runtime.allocB)),
		"runtime.allocs":         per(float64(l.runtime.allocs)),
		"runtime.gc_cycles":      per(float64(l.runtime.gcCycles)),
		"runtime.gc_pause_s":     per(seconds(l.runtime.gcPauseNs)),
		"runtime.cpu_s":          per(seconds(l.runtime.cpuNs)),
		"bench.trace_overhead":   traceOverhead,
		"bench.failed_frac":      failedFrac,
	}
	if s.transitions > 0 {
		m["mc.dedup_ratio"] = float64(s.states) / float64(s.transitions)
	}
	m["mc.probe_mean"], m["mc.probe_tail_frac"] = probeSummary(s.probeHist[:])
	if s.sealedStates > 0 {
		m["mc.sealed_B_per_state"] = float64(s.sealedArenaB) / float64(s.sealedStates)
	}
	if l.exp.cellNs > 0 {
		m["experiments.runs_per_s"] = float64(l.exp.runs) / seconds(l.exp.cellNs)
	}
	if l.cluster.ns > 0 {
		m["cluster.events_per_s"] = float64(l.cluster.events) / seconds(l.cluster.ns)
	}

	// The add-up check: the workers' model time, their claim time and the
	// boundaries they all wait through should cover workers × the search
	// time. The residual is per-search set-up and teardown plus the idle
	// time of workers that finished a level before the slowest one.
	if s.searches > 0 {
		w := float64(workers)
		parts := seconds(s.succNs+s.canonNs+s.propNs) + seconds(s.claimNs) + w*seconds(s.boundaryNs)
		whole := w * seconds(s.searchNs)
		m["bench.addup_residual_s"] = per(whole - parts)
		m["bench.addup_residual_frac"] = (whole - parts) / whole
		fmt.Fprintf(log, "perfbench: add-up per pass: model %.3fs + claim %.3fs + %d×boundary %.3fs = %.3fs vs %d×search %.3fs; residual %.3fs (%.1f%%)\n",
			per(seconds(s.succNs+s.canonNs+s.propNs)), per(seconds(s.claimNs)), workers, per(seconds(s.boundaryNs)),
			per(parts), workers, per(seconds(s.searchNs)), per(whole-parts), 100*(whole-parts)/whole)
	}
	return m
}
