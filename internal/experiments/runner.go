package experiments

// The parallel campaign engine. Every fault-injection campaign is the
// same shape — N seeded runs, each on its own fully independent
// sim.Scheduler/cluster instance, reduced to one aggregate — so the fan-
// out lives here once: a bounded worker pool that executes runs in any
// order but surfaces results (and the first error) in run-index order,
// making campaign output byte-identical regardless of worker count.
//
// Seed streams are derived by splitmix64 mixing of (base seed, cell label
// hash, run index): see sim.Mix. Unlike linear seed arithmetic, no two
// runs — within a cell or across cells — can share or overlap a stream.
//
// The engine is itself fault-tolerant: runs are cancellable at run
// granularity (partial verdicts survive), a panicking run is recovered
// inside its worker and retried on a derived seed stream up to
// MaxRetries times before being recorded as a per-run failure, and an
// active Checkpoint replays completed runs from disk instead of
// re-simulating them.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"ttastar/internal/sim"
)

// parallelism is the configured worker-pool width; 0 means NumCPU.
var parallelism atomic.Int32

// Parallelism returns the worker-pool width campaigns fan out over.
func Parallelism() int {
	if n := parallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.NumCPU()
}

// SetParallelism sets the campaign worker-pool width. n < 1 restores the
// NumCPU default. The aggregate of a campaign is independent of this
// setting; only wall-clock time changes.
func SetParallelism(n int) {
	if n < 1 {
		n = 0
	}
	parallelism.Store(int32(n))
}

// DefaultMaxRetries is how often a panicking run is re-attempted on a
// derived seed stream before it is recorded as failed.
const DefaultMaxRetries = 2

// maxRetriesPlus1 stores the configured retry bound biased by one so the
// zero value means "unset → default".
var maxRetriesPlus1 atomic.Int32

// MaxRetries returns the per-run retry bound for panicking runs.
func MaxRetries() int {
	if n := maxRetriesPlus1.Load(); n > 0 {
		return int(n) - 1
	}
	return DefaultMaxRetries
}

// SetMaxRetries sets the per-run retry bound; 0 disables retries
// (a panicking run fails on its first attempt), negative values are
// treated as 0.
func SetMaxRetries(n int) {
	if n < 0 {
		n = 0
	}
	maxRetriesPlus1.Store(int32(n) + 1)
}

// ErrInterrupted reports that the campaign's context was cancelled; the
// partial results accumulated so far are still returned.
var ErrInterrupted = errors.New("experiments: campaign interrupted")

// ErrDeadline is the ErrInterrupted variant for an expired deadline.
var ErrDeadline = errors.New("experiments: campaign deadline exceeded")

// ErrRunSkipped marks a run that never started because the campaign was
// cancelled first; it is the per-run error for every hole in a partial
// result slice.
var ErrRunSkipped = errors.New("experiments: run skipped")

// RunPanicError records a run whose every attempt panicked. It is a
// per-run failure, never a campaign failure: the campaign completes and
// reports it in RunStats.
type RunPanicError struct {
	Label    string
	Run      int
	Attempts int
	Value    any    // the last recovered panic value
	Stack    []byte // stack of the last panicking attempt
}

func (e *RunPanicError) Error() string {
	return fmt.Sprintf("experiments: %s run %d panicked on all %d attempts: %v",
		e.Label, e.Run, e.Attempts, e.Value)
}

// RunStats summarizes the health of one campaign cell's execution.
type RunStats struct {
	Requested int // runs asked for
	Completed int // runs that produced a verdict
	Cached    int // verdicts replayed from a checkpoint
	Attempts  int // simulation attempts actually executed
	Panics    int // attempts that panicked
	Retried   int // runs that succeeded only after a retry
	Failed    int // runs whose every attempt panicked
	Skipped   int // runs never started (cancellation)
	// CheckpointRetries counts transient checkpoint-flush failures
	// (ENOSPC, EINTR, ...) retried away while these runs recorded.
	CheckpointRetries int
}

// Footer writes the health lines a table ends with, only when something
// went wrong: panics or failed runs, then the runs cancellation skipped.
// label, when not empty, names the table row; noun names what a run is.
func (s RunStats) Footer(w io.Writer, label, noun string) {
	if label != "" {
		label += ": "
	}
	if s.Panics > 0 || s.Failed > 0 {
		fmt.Fprintf(w, "! %s%d panics across %d attempts, %d runs retried, %d runs failed\n",
			label, s.Panics, s.Attempts, s.Retried, s.Failed)
	}
	if s.Skipped > 0 {
		fmt.Fprintf(w, "! %spartial — %d %s skipped by cancellation\n", label, s.Skipped, noun)
	}
}

func (s *RunStats) add(o RunStats) {
	s.Requested += o.Requested
	s.Completed += o.Completed
	s.Cached += o.Cached
	s.Attempts += o.Attempts
	s.Panics += o.Panics
	s.Retried += o.Retried
	s.Failed += o.Failed
	s.Skipped += o.Skipped
	s.CheckpointRetries += o.CheckpointRetries
}

// Domain separators so the cluster's noise RNG and the experiment's fault
// RNG draw from unrelated streams even though both derive from one run —
// and so retry attempts draw from streams unrelated to any attempt-0 run.
const (
	seedDomainCluster    = 0xc1
	seedDomainExperiment = 0xe2
	seedDomainRetry      = 0xa7
)

// RunSeeds carries the independent random streams one campaign run owns.
type RunSeeds struct {
	// Cluster seeds cluster.Config.Seed (channel noise, per-node jitter).
	Cluster uint64
	// RNG is the experiment's private stream for fault timing/values.
	RNG *sim.RNG
}

// seedsFor derives the streams for run r of the cell named label.
func seedsFor(base uint64, label string, r int) RunSeeds {
	return seedsForAttempt(base, label, r, 0)
}

// seedsForAttempt derives the streams for attempt a of run r. Attempt 0
// is the historical derivation — published tables depend on it — and
// retries mix in a separate domain so they can never collide with any
// first attempt.
func seedsForAttempt(base uint64, label string, r, a int) RunSeeds {
	h := fnv.New64a()
	h.Write([]byte(label))
	run := sim.Mix(base, h.Sum64(), uint64(r))
	if a > 0 {
		run = sim.Mix(run, seedDomainRetry, uint64(a))
	}
	return RunSeeds{
		Cluster: sim.Mix(run, seedDomainCluster),
		RNG:     sim.NewRNG(sim.Mix(run, seedDomainExperiment)),
	}
}

// mapRuns executes fn(0..runs-1) over a pool of at most workers
// goroutines and returns results and per-run errors in index order.
// Cancellation is cooperative at run granularity: in-flight runs finish,
// unstarted runs keep ErrRunSkipped, and every worker has exited before
// mapRuns returns — no goroutine outlives the call.
func mapRuns[T any](ctx context.Context, runs, workers int, fn func(i int) (T, error)) ([]T, []error) {
	if runs <= 0 {
		return nil, nil
	}
	if workers > runs {
		workers = runs
	}
	if workers < 1 {
		workers = 1
	}
	out := make([]T, runs)
	errs := make([]error, runs)
	for i := range errs {
		errs[i] = ErrRunSkipped
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= runs {
					return
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out, errs
}

// firstError returns the lowest-indexed fatal error. Skipped runs and
// per-run panic failures are not fatal — the campaign carries on around
// them and reports them through RunStats.
func firstError(errs []error) error {
	for _, err := range errs {
		if err == nil || errors.Is(err, ErrRunSkipped) {
			continue
		}
		var pe *RunPanicError
		if errors.As(err, &pe) {
			continue
		}
		return err
	}
	return nil
}

// interruptErr maps a cancelled context to the campaign's typed errors.
func interruptErr(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return ErrDeadline
	}
	return ErrInterrupted
}

// panicRecord carries a recovered panic out of runGuarded.
type panicRecord struct {
	value any
	stack []byte
}

// runGuarded executes one attempt with panic isolation: a panic is
// recovered inside the worker and returned as data, never propagated.
func runGuarded[T any](fn func() (T, error)) (out T, err error, pr *panicRecord) {
	defer func() {
		if v := recover(); v != nil {
			pr = &panicRecord{value: v, stack: debug.Stack()}
		}
	}()
	out, err = fn()
	return
}

// RunSeededContext fans runs seeded runs of the cell named label over the
// campaign worker pool. runOne receives the run index and the run's
// derived seed streams and must be self-contained: it builds its own
// cluster, injects its own faults, and returns a verdict. Verdicts come
// back in run-index order, so any fold over them is reproducible
// regardless of Parallelism().
//
// The returned errs slice is index-aligned with the verdicts: nil for a
// completed run, ErrRunSkipped for a run cancellation prevented, a
// *RunPanicError for a run that panicked on every attempt, or the fatal
// error runOne returned. The final error is the lowest-indexed fatal
// error if any, else ErrInterrupted/ErrDeadline when ctx was cancelled,
// else nil — panicking and skipped runs alone never fail a campaign.
func RunSeededContext[T any](ctx context.Context, label string, runs int, base uint64,
	runOne func(r int, s RunSeeds) (T, error)) ([]T, []error, RunStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cp := ActiveCheckpoint()
	statsCh := make(chan RunStats, runs)
	out, errs := mapRuns(ctx, runs, Parallelism(), func(i int) (T, error) {
		var st RunStats
		defer func() { statsCh <- st }()
		var v T
		if cp != nil {
			hit, err := cp.lookup(label, i, &v)
			if err != nil {
				return v, err
			}
			if hit {
				st.Cached++
				st.Completed++
				return v, nil
			}
		}
		maxRetries := MaxRetries()
		var last *panicRecord
		for a := 0; a <= maxRetries; a++ {
			st.Attempts++
			v, err, pr := runGuarded(func() (T, error) {
				return runOne(i, seedsForAttempt(base, label, i, a))
			})
			if pr == nil {
				if err != nil {
					return v, err
				}
				st.Completed++
				if a > 0 {
					st.Retried++
				}
				if cp != nil {
					if err := cp.record(label, i, v); err != nil {
						return v, err
					}
				}
				return v, nil
			}
			st.Panics++
			last = pr
		}
		st.Failed++
		var zero T
		return zero, &RunPanicError{
			Label: label, Run: i, Attempts: maxRetries + 1,
			Value: last.value, Stack: last.stack,
		}
	})
	close(statsCh)
	stats := RunStats{Requested: runs}
	for st := range statsCh {
		stats.add(st)
	}
	stats.Skipped = 0
	for _, err := range errs {
		if errors.Is(err, ErrRunSkipped) {
			stats.Skipped++
		}
	}
	if cp != nil {
		stats.CheckpointRetries += cp.takeRetries()
	}
	err := firstError(errs)
	if err == nil && ctx.Err() != nil {
		err = interruptErr(ctx)
	}
	return out, errs, stats, err
}
