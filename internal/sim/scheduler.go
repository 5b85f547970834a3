package sim

import (
	"errors"
	"fmt"
	"time"
)

// ErrEventLimit is returned by Run when the configured event budget is
// exhausted before the event queue drains.
var ErrEventLimit = errors.New("sim: event limit exceeded")

// Event is a handle to a scheduled callback, returned by At/After so the
// caller can cancel it before it fires. It is a small value: copying it is
// free and the zero Event refers to nothing.
type Event struct {
	s    *Scheduler
	slot int32
	gen  uint32
}

// Cancel prevents the event from firing. It is a no-op on the zero Event
// and once the event has fired or been cancelled, even after the
// scheduler has reused the event's record for a later event.
func (e Event) Cancel() {
	if e.s == nil {
		return
	}
	if r := &e.s.recs[e.slot]; r.gen == e.gen {
		r.fn = nil
	}
}

// record is one slab entry: the callback of a scheduled event.
// gen advances every time the record is released, which invalidates the
// handles given out for its previous occupant. A pending record with a nil
// fn has been cancelled.
type record struct {
	fn  func()
	gen uint32
}

// entry is one heap element. Ordering is by (at, seq); seq is unique, so
// the order is total and events at one instant fire in scheduling order.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// arity is the fan-out of the event heap: a 4-ary heap is shallower than
// a binary one, and a node's children share a cache line or two.
const arity = 4

// Scheduler is a deterministic discrete-event scheduler. Events scheduled
// for the same instant fire in scheduling order (FIFO tie-break), which
// keeps simulations reproducible run to run.
//
// Events live in a slab of records recycled through a free list, ordered
// by a 4-ary heap of plain values, so a warm scheduler schedules and fires
// without allocating. Cancellation is lazy: a cancelled event keeps its
// heap entry, and its record, until it reaches the head of the queue.
//
// Scheduler is not safe for concurrent use; a simulation is a single
// logical thread of control.
type Scheduler struct {
	now   Time
	heap  []entry
	recs  []record
	free  []int32
	seq   uint64
	fired uint64
}

// NewScheduler returns a scheduler positioned at time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current simulated reference time.
func (s *Scheduler) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// At schedules fn to run at instant t; name labels the event only in the
// panic scheduling in the past raises: that is always a simulation bug,
// never a recoverable condition.
func (s *Scheduler) At(t Time, name string, fn func()) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", name, t, s.now))
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.recs))
		s.recs = append(s.recs, record{})
	}
	r := &s.recs[slot]
	r.fn = fn
	s.push(entry{at: t, seq: s.seq, slot: slot})
	s.seq++
	return Event{s: s, slot: slot, gen: r.gen}
}

// After schedules fn to run d after the current instant.
func (s *Scheduler) After(d time.Duration, name string, fn func()) Event {
	return s.At(s.now.Add(d), name, fn)
}

// NextAt returns the instant of the next event that will fire; ok is false
// when none is pending. Cancelled events at the head of the queue are
// discarded on the way.
func (s *Scheduler) NextAt() (at Time, ok bool) {
	for len(s.heap) > 0 {
		top := s.heap[0]
		if s.recs[top.slot].fn != nil {
			return top.at, true
		}
		s.pop()
		s.release(top.slot)
	}
	return 0, false
}

// Step fires the next event, advancing time to it. It reports whether an
// event fired (false means the queue was empty).
func (s *Scheduler) Step() bool {
	for len(s.heap) > 0 {
		top := s.pop()
		r := &s.recs[top.slot]
		fn := r.fn
		// Release before running fn: fn may schedule into the record, and
		// a handle to the firing event must already be stale inside it.
		s.release(top.slot)
		if fn == nil {
			continue
		}
		s.now = top.at
		s.fired++
		fn()
		return true
	}
	return false
}

// RunUntil fires events in order until the queue is empty or the next event
// would fire after deadline. Time is left at the later of the last fired
// event and deadline.
func (s *Scheduler) RunUntil(deadline Time) {
	for {
		at, ok := s.NextAt()
		if !ok || at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Run fires events until the queue drains or limit events have executed.
// A limit of 0 means no limit. It returns ErrEventLimit if the budget is
// exhausted with events still pending.
func (s *Scheduler) Run(limit uint64) error {
	start := s.fired
	for s.Step() {
		if limit != 0 && s.fired-start >= limit && len(s.heap) > 0 {
			return fmt.Errorf("after %d events: %w", s.fired-start, ErrEventLimit)
		}
	}
	return nil
}

// release returns a record to the free list, invalidating its handles.
func (s *Scheduler) release(slot int32) {
	r := &s.recs[slot]
	r.fn = nil
	r.gen++
	s.free = append(s.free, slot)
}

func (s *Scheduler) push(e entry) {
	h := append(s.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !e.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	s.heap = h
}

func (s *Scheduler) pop() entry {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	s.heap = h
	if n == 0 {
		return top
	}
	// Sift last down from the root.
	i := 0
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		best := c
		end := min(c+arity, n)
		for j := c + 1; j < end; j++ {
			if h[j].less(h[best]) {
				best = j
			}
		}
		if !h[best].less(last) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = last
	return top
}
