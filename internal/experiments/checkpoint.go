package experiments

// Campaign checkpointing: a store of completed run verdicts keyed by
// (cell label, run index). When a checkpoint is active, RunSeededContext
// replays recorded verdicts instead of re-simulating — and because run
// verdicts are pure values derived from deterministic seed streams, a
// resumed campaign's tables are byte-identical to an uninterrupted run's.
//
// The file is the shared envelope of internal/codec — magic, version,
// kind, FNV-64a trailer, written to a temp file and renamed into place —
// around one length-prefixed body: the cells as JSON, key-sorted and
// hence canonical. Version 1, a bare JSON file, is refused.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"ttastar/internal/codec"
	"ttastar/internal/retry"
)

// flushEvery is how many newly recorded runs accumulate between automatic
// flushes to disk.
const flushEvery = 64

// ErrBadCheckpoint reports a campaign checkpoint file that failed
// validation.
var ErrBadCheckpoint = errors.New("experiments: invalid checkpoint")

// campaignFormat is the campaign checkpoint's envelope; its one file kind
// is kindCells.
var campaignFormat = codec.Format{Magic: "TTAFICP\x00", Version: 2, Corrupt: ErrBadCheckpoint}

const kindCells = 1

// Checkpoint is a persistent store of completed campaign run verdicts.
// It is safe for concurrent use by the worker pool.
type Checkpoint struct {
	mu         sync.Mutex
	path       string
	cells      map[string]map[string]json.RawMessage // label → run index → verdict
	sinceFlush int
	retries    atomic.Int64 // transient-failure retries spent in Flush
}

// OpenCheckpoint opens the store at path. With resume set, an existing
// file is loaded and validated (a missing file is not an error — the
// campaign simply starts fresh); without it any prior progress is
// ignored and will be overwritten on the first flush.
func OpenCheckpoint(path string, resume bool) (*Checkpoint, error) {
	cp := &Checkpoint{path: path, cells: make(map[string]map[string]json.RawMessage)}
	if !resume {
		return cp, nil
	}
	r, _, err := campaignFormat.ReadFile(path, kindCells)
	if errors.Is(err, os.ErrNotExist) {
		return cp, nil
	}
	if err == nil {
		cells := r.Bytes()
		if err = r.Done(); err == nil && json.Unmarshal(cells, &cp.cells) != nil {
			err = fmt.Errorf("%w: cells are not JSON", ErrBadCheckpoint)
		}
	}
	if err != nil {
		return nil, err
	}
	return cp, nil
}

// lookup replays the verdict for run r of the named cell into v,
// reporting whether one was recorded.
func (cp *Checkpoint) lookup(label string, r int, v any) (bool, error) {
	cp.mu.Lock()
	raw, ok := cp.cells[label][strconv.Itoa(r)]
	cp.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return false, fmt.Errorf("%w: cell %q run %d: %v", ErrBadCheckpoint, label, r, err)
	}
	return true, nil
}

// record stores the verdict for run r of the named cell, flushing to disk
// every flushEvery new records.
func (cp *Checkpoint) record(label string, r int, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("experiments: checkpoint: cell %q run %d: %w", label, r, err)
	}
	cp.mu.Lock()
	cell, ok := cp.cells[label]
	if !ok {
		cell = make(map[string]json.RawMessage)
		cp.cells[label] = cell
	}
	cell[strconv.Itoa(r)] = raw
	cp.sinceFlush++
	flush := cp.sinceFlush >= flushEvery
	if flush {
		cp.sinceFlush = 0
	}
	cp.mu.Unlock()
	if flush {
		return cp.Flush()
	}
	return nil
}

// Flush atomically writes the store to its path (temp-file + rename).
// encoding/json emits map keys sorted, so equal progress always produces
// equal bytes. Transient write failures (ENOSPC, EINTR, ...) are retried
// with bounded backoff; the retries are tallied for RunStats.
func (cp *Checkpoint) Flush() error {
	cp.mu.Lock()
	cells, err := json.Marshal(cp.cells)
	cp.mu.Unlock()
	if err != nil {
		return fmt.Errorf("experiments: checkpoint: %w", err)
	}
	n, err := retry.Do(func() error {
		return campaignFormat.WriteFile(cp.path, kindCells, func(w codec.Writer) { w.Bytes(cells) })
	})
	cp.retries.Add(int64(n))
	if err != nil {
		return fmt.Errorf("experiments: checkpoint: %w", err)
	}
	return nil
}

// takeRetries drains the flush-retry tally (read-and-reset), so each
// campaign cell reports the retries spent while its runs recorded.
func (cp *Checkpoint) takeRetries() int { return int(cp.retries.Swap(0)) }

// Remove deletes the checkpoint file — called when a campaign completes
// conclusively so stale progress can never shadow a finished run.
func (cp *Checkpoint) Remove() error {
	err := os.Remove(cp.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// activeCheckpoint is the store RunSeededContext consults; nil disables
// checkpointing.
var activeCheckpoint atomic.Pointer[Checkpoint]

// SetCheckpoint installs (or, with nil, clears) the campaign checkpoint
// store consulted by RunSeededContext.
func SetCheckpoint(cp *Checkpoint) { activeCheckpoint.Store(cp) }

// ActiveCheckpoint returns the installed store, or nil.
func ActiveCheckpoint() *Checkpoint { return activeCheckpoint.Load() }
