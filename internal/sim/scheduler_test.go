package sim

import (
	"cmp"
	"errors"
	"slices"
	"testing"
	"time"
)

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30, "c", func() { got = append(got, 3) })
	s.At(10, "a", func() { got = append(got, 1) })
	s.At(20, "b", func() { got = append(got, 2) })
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Errorf("Now() = %v, want 30", s.Now())
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, "tie", func() { got = append(got, i) })
	}
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break order = %v, want ascending", got)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.At(10, "x", func() { fired = true })
	e.Cancel()
	e.Cancel() // a second cancel is a no-op
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
}

// TestSchedulerStaleHandle: once an event has fired and its record has
// been reused, the old handle must not cancel the new event.
func TestSchedulerStaleHandle(t *testing.T) {
	s := NewScheduler()
	first := s.At(1, "first", func() {})
	if !s.Step() {
		t.Fatal("Step() = false, want true")
	}
	fired := false
	second := s.At(2, "second", func() { fired = true })
	if second.slot != first.slot {
		t.Fatalf("second event got record %d, want the freed record %d", second.slot, first.slot)
	}
	first.Cancel()
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Error("a stale handle cancelled the event that reused its record")
	}
}

// TestSchedulerCancelFiringEvent: an event cancelling its own handle while
// it runs must not cancel what it schedules in the same record.
func TestSchedulerCancelFiringEvent(t *testing.T) {
	s := NewScheduler()
	fired := false
	var self Event
	self = s.At(1, "self", func() {
		s.At(2, "next", func() { fired = true })
		self.Cancel()
	})
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Error("cancelling the firing event cancelled its successor")
	}
}

func TestSchedulerZeroEventCancel(t *testing.T) {
	var e Event
	e.Cancel() // must not panic
	s := NewScheduler()
	fired := false
	s.At(1, "x", func() { fired = true })
	e.Cancel()
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Error("cancelling the zero Event cancelled a scheduled event")
	}
}

func TestSchedulerNextAt(t *testing.T) {
	s := NewScheduler()
	if _, ok := s.NextAt(); ok {
		t.Error("NextAt() on an empty queue reported an event")
	}
	early := s.At(5, "early", func() {})
	s.At(9, "late", func() {})
	if at, ok := s.NextAt(); !ok || at != 5 {
		t.Errorf("NextAt() = %v, %v, want 5, true", at, ok)
	}
	early.Cancel()
	if at, ok := s.NextAt(); !ok || at != 9 {
		t.Errorf("NextAt() after cancelling the head = %v, %v, want 9, true", at, ok)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1 once NextAt discarded the cancelled head", s.Pending())
	}
}

// TestSchedulerRunUntilSkipsCancelledHead: a cancelled event at the head
// of the queue must not let RunUntil fire an event after its deadline.
func TestSchedulerRunUntilSkipsCancelledHead(t *testing.T) {
	s := NewScheduler()
	s.At(5, "cancelled", func() {}).Cancel()
	fired := false
	s.At(20, "late", func() { fired = true })
	s.RunUntil(10)
	if fired {
		t.Error("RunUntil(10) fired an event at 20")
	}
	if s.Now() != 10 {
		t.Errorf("Now() = %v, want 10", s.Now())
	}
}

// refEvent is the test's own record of one scheduled event.
type refEvent struct {
	at        Time
	seq       uint64
	handle    Event
	cancelled bool
	fired     bool
}

// TestSchedulerRandomAgainstReference drives the scheduler with
// interleaved At calls, cancels (of pending, fired and cancelled events
// alike) and scheduling from inside callbacks, and checks every firing
// against a reference that sorts the pending events by (at, seq).
func TestSchedulerRandomAgainstReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRNG(seed)
		s := NewScheduler()
		var ref []*refEvent
		var order []*refEvent
		var schedule func()
		schedule = func() {
			e := &refEvent{at: s.Now() + Time(rng.Intn(50)), seq: uint64(len(ref))}
			ref = append(ref, e)
			e.handle = s.At(e.at, "r", func() {
				// The reference head: the earliest pending event by
				// (at, seq) must be the one firing.
				var pending []*refEvent
				for _, r := range ref {
					if !r.fired && !r.cancelled {
						pending = append(pending, r)
					}
				}
				slices.SortFunc(pending, func(a, b *refEvent) int {
					return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
				})
				if len(pending) == 0 || pending[0] != e {
					t.Fatalf("seed %d: event seq %d fired ahead of the reference head", seed, e.seq)
				}
				if s.Now() != e.at {
					t.Fatalf("seed %d: Now() = %v at event due %v", seed, s.Now(), e.at)
				}
				e.fired = true
				order = append(order, e)
				if len(ref) < 400 {
					for i := rng.Intn(3); i > 0; i-- {
						schedule()
					}
				}
				if rng.Intn(4) == 0 {
					cancel(rng, ref)
				}
			})
		}
		for i := 0; i < 60; i++ {
			schedule()
			if rng.Intn(3) == 0 {
				cancel(rng, ref)
			}
		}
		if err := s.Run(0); err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		for _, r := range ref {
			if r.fired == r.cancelled {
				t.Fatalf("seed %d: event seq %d fired=%v cancelled=%v", seed, r.seq, r.fired, r.cancelled)
			}
		}
		if !slices.IsSortedFunc(order, func(a, b *refEvent) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
		}) {
			t.Fatalf("seed %d: firing order is not sorted by (at, seq)", seed)
		}
	}
}

// cancel cancels a random reference event through its handle; for an
// event that already fired or was cancelled the call must be a no-op.
func cancel(rng *RNG, ref []*refEvent) {
	r := ref[rng.Intn(len(ref))]
	r.handle.Cancel()
	if !r.fired {
		r.cancelled = true
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var at []Time
	s.At(10, "outer", func() {
		at = append(at, s.Now())
		s.After(5*time.Nanosecond, "inner", func() {
			at = append(at, s.Now())
		})
	})
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(at) != 2 || at[0] != 10 || at[1] != 15 {
		t.Errorf("fire times = %v, want [10 15]", at)
	}
}

func TestSchedulerPastSchedulingPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10, "x", func() {})
	if !s.Step() {
		t.Fatal("Step() = false, want true")
	}
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.At(5, "past", func() {})
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		s.At(at, "e", func() { fired = append(fired, at) })
	}
	s.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if s.Now() != 12 {
		t.Errorf("Now() = %v, want 12", s.Now())
	}
	s.RunUntil(100)
	if len(fired) != 4 {
		t.Errorf("fired %d events after second RunUntil, want 4", len(fired))
	}
	if s.Now() != 100 {
		t.Errorf("Now() = %v, want 100", s.Now())
	}
}

func TestSchedulerEventLimit(t *testing.T) {
	s := NewScheduler()
	var reschedule func()
	reschedule = func() {
		s.After(time.Nanosecond, "loop", reschedule)
	}
	s.At(0, "start", reschedule)
	err := s.Run(100)
	if !errors.Is(err, ErrEventLimit) {
		t.Errorf("Run(100) = %v, want ErrEventLimit", err)
	}
}

func TestSchedulerCounters(t *testing.T) {
	s := NewScheduler()
	s.At(1, "a", func() {})
	s.At(2, "b", func() {})
	if s.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", s.Pending())
	}
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Fired() != 2 {
		t.Errorf("Fired() = %d, want 2", s.Fired())
	}
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d, want 0", s.Pending())
	}
}

func TestSchedulerTracer(t *testing.T) {
	s := NewScheduler()
	rec := NewRecorder()
	s.SetTracer(rec)
	s.At(7, "hello", func() {})
	if err := s.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	entries := rec.Entries()
	if len(entries) != 1 {
		t.Fatalf("recorded %d entries, want 1", len(entries))
	}
	if entries[0].At != 7 || entries[0].Category != "event" || entries[0].Message != "hello" {
		t.Errorf("entry = %+v", entries[0])
	}
}

func TestRecorderFilter(t *testing.T) {
	rec := NewRecorder("keep")
	rec.Trace(1, "keep", "a")
	rec.Trace(2, "drop", "b")
	rec.Tracef(3, "keep", "c%d", 7)
	if rec.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", rec.Len())
	}
	if rec.Entries()[1].Message != "c7" {
		t.Errorf("formatted message = %q, want c7", rec.Entries()[1].Message)
	}
	if rec.String() == "" {
		t.Error("String() empty")
	}
}

func TestMultiTracer(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	m := MultiTracer{a, b}
	m.Trace(1, "x", "y")
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("fan-out lens = %d, %d, want 1, 1", a.Len(), b.Len())
	}
}

func TestTimeFormatting(t *testing.T) {
	if got := Time(1_500_000_000).String(); got != "1.500000000s" {
		t.Errorf("Time.String() = %q", got)
	}
	if got := Infinity.String(); got != "+inf" {
		t.Errorf("Infinity.String() = %q", got)
	}
	if got := Time(3000).Microseconds(); got != 3 {
		t.Errorf("Microseconds() = %d, want 3", got)
	}
	base := Time(100)
	if base.Add(50*time.Nanosecond) != 150 {
		t.Error("Add failed")
	}
	if Time(150).Sub(base) != 50*time.Nanosecond {
		t.Error("Sub failed")
	}
	if !base.Before(150) || !Time(150).After(base) {
		t.Error("Before/After failed")
	}
	lt := LocalTime(10)
	if lt.Add(5*time.Nanosecond) != 15 || LocalTime(15).Sub(lt) != 5*time.Nanosecond {
		t.Error("LocalTime arithmetic failed")
	}
	if lt.String() == "" {
		t.Error("LocalTime.String() empty")
	}
}

// BenchmarkSchedulerAtStep measures one schedule-and-fire round trip on a
// warm scheduler holding a steady queue, the shape of the simulator's
// per-slot events.
func BenchmarkSchedulerAtStep(b *testing.B) {
	s := NewScheduler()
	noop := func() {}
	for i := 0; i < 64; i++ {
		s.At(Time(i), "warm", noop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.At(s.Now()+Time(64+i%17), "bench", noop)
		s.Step()
	}
}
