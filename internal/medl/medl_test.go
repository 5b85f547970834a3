package medl

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"ttastar/internal/cstate"
	"ttastar/internal/frame"
)

func TestDefault4NodeValidates(t *testing.T) {
	s := Default4Node()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if s.NumSlots() != 4 {
		t.Errorf("NumSlots() = %d, want 4", s.NumSlots())
	}
	for i := 1; i <= 4; i++ {
		if s.Slot(i).Owner != cstate.NodeID(i) {
			t.Errorf("slot %d owner = %v", i, s.Slot(i).Owner)
		}
		if s.OwnerSlot(cstate.NodeID(i)) != i {
			t.Errorf("OwnerSlot(%d) = %d", i, s.OwnerSlot(cstate.NodeID(i)))
		}
	}
	if s.OwnerSlot(9) != 0 {
		t.Error("OwnerSlot of unknown node != 0")
	}
}

func TestNextSlotWraps(t *testing.T) {
	s := Default4Node()
	if s.NextSlot(1) != 2 || s.NextSlot(3) != 4 || s.NextSlot(4) != 1 {
		t.Error("NextSlot wrong")
	}
}

func TestSlotPanicsOutOfRange(t *testing.T) {
	s := Default4Node()
	for _, n := range []int{0, 5, -1} {
		n := n
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("Slot(%d) did not panic", n)
				} else if want := fmt.Sprintf("medl: slot %d out of range [1,4]", n); r != want {
					t.Errorf("Slot(%d) panicked with %v, want %q", n, r, want)
				}
			}()
			s.Slot(n)
		}()
	}
}

func TestTimingHelpers(t *testing.T) {
	s := &Schedule{BitRate: 1_000_000}
	if got := s.TransmissionTime(28); got != 28*time.Microsecond {
		t.Errorf("TransmissionTime(28) = %v at 1 Mbit/s, want 28µs", got)
	}
	if got := s.BitTime(); got != time.Microsecond {
		t.Errorf("BitTime() = %v, want 1µs", got)
	}
}

func TestRoundDurationAndSlotStart(t *testing.T) {
	s := Default4Node()
	var sum time.Duration
	for i := 1; i <= 4; i++ {
		if got := s.SlotStart(i); got != sum {
			t.Errorf("SlotStart(%d) = %v, want %v", i, got, sum)
		}
		sum += s.Slot(i).Duration
	}
	if s.RoundDuration() != sum {
		t.Errorf("RoundDuration() = %v, want %v", s.RoundDuration(), sum)
	}
}

func TestStartupTimeoutsUniqueAndOrdered(t *testing.T) {
	s := Default4Node()
	prev := time.Duration(-1)
	for i := 1; i <= 4; i++ {
		to := s.StartupTimeout(cstate.NodeID(i))
		if to <= prev {
			t.Errorf("timeout of node %d (%v) not greater than node %d's (%v)", i, to, i-1, prev)
		}
		if to < s.RoundDuration() {
			t.Errorf("timeout of node %d (%v) shorter than a round (%v)", i, to, s.RoundDuration())
		}
		prev = to
	}
	if s.StartupTimeout(99) != 0 {
		t.Error("StartupTimeout of unknown node != 0")
	}
}

func TestValidateRejectsBadSchedules(t *testing.T) {
	base := func() *Schedule { return Default4Node() }
	cases := []struct {
		name   string
		mutate func(*Schedule)
		want   error
	}{
		{"empty", func(s *Schedule) { s.Slots = nil }, ErrNoSlots},
		{"bitrate", func(s *Schedule) { s.BitRate = 0 }, ErrBadBitRate},
		{"precision", func(s *Schedule) { s.Precision = 0 }, ErrBadPrecision},
		{"owner0", func(s *Schedule) { s.Slots[0].Owner = 0 }, ErrSlotOwner},
		{"ownerBig", func(s *Schedule) { s.Slots[0].Owner = 40 }, ErrSlotOwner},
		{"dupOwner", func(s *Schedule) { s.Slots[1].Owner = 1 }, ErrDuplicateOwner},
		{"kind", func(s *Schedule) { s.Slots[2].Kind = frame.Kind(9) }, ErrSlotKind},
		{"coldstart", func(s *Schedule) { s.Slots[2].Kind = frame.KindColdStart }, ErrColdStartInMEDL},
		{"dataNeg", func(s *Schedule) { s.Slots[0].DataBits = -1 }, ErrDataBits},
		{"dataBig", func(s *Schedule) { s.Slots[0].DataBits = frame.MaxDataBits + 1 }, ErrDataBits},
		{"action", func(s *Schedule) { s.Slots[0].ActionOffset = 0 }, ErrActionOffset},
		{"short", func(s *Schedule) { s.Slots[0].Duration = 30 * time.Microsecond }, ErrSlotTooShort},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(s)
		if err := s.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate() = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestSlotFrameBits(t *testing.T) {
	cases := []struct {
		slot Slot
		want int
	}{
		{Slot{Kind: frame.KindN}, 28},
		{Slot{Kind: frame.KindN, DataBits: 72}, 100},
		{Slot{Kind: frame.KindI}, 76},
		{Slot{Kind: frame.KindX, DataBits: frame.MaxDataBits}, 2076},
		{Slot{Kind: frame.KindColdStart}, frame.ColdStartBits},
		{Slot{Kind: frame.Kind(9)}, 0},
	}
	for _, tc := range cases {
		if got := tc.slot.FrameBits(); got != tc.want {
			t.Errorf("FrameBits(%v,%d) = %d, want %d", tc.slot.Kind, tc.slot.DataBits, got, tc.want)
		}
	}
}

func TestBuildVariants(t *testing.T) {
	for _, cfg := range []Config{
		{Nodes: 3, Kind: frame.KindN, DataBits: 64},
		{Nodes: 8, Kind: frame.KindX, DataBits: 256},
		{Nodes: 4, BitRate: 10_000_000, Precision: time.Microsecond, Gap: 5 * time.Microsecond},
	} {
		s, err := Build(cfg)
		if err != nil {
			t.Fatalf("Build(%+v): %v", cfg, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("Build(%+v) does not validate: %v", cfg, err)
		}
	}
}

// TestBuildRejectsBadNodeCounts: Nodes == 0 defaults to 4, but negative
// and single-node counts used to silently build nonsense schedules —
// Build must reject them.
func TestBuildRejectsBadNodeCounts(t *testing.T) {
	for _, n := range []int{-3, -1, 1} {
		if s, err := Build(Config{Nodes: n}); err == nil {
			t.Errorf("Build(Nodes: %d) = %d slots, want error", n, s.NumSlots())
		}
	}
	s, err := Build(Config{})
	if err != nil {
		t.Fatalf("Build(Nodes: 0): %v", err)
	}
	if s.NumSlots() != 4 {
		t.Errorf("Build(Nodes: 0) = %d slots, want the 4-node default", s.NumSlots())
	}
}

func TestCloneIndependent(t *testing.T) {
	s := Default4Node()
	c := s.Clone()
	c.Slots[0].Owner = 7
	c.BitRate = 1
	if s.Slots[0].Owner == 7 || s.BitRate == 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := Default4Node()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Schedule
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.NumSlots() != s.NumSlots() || back.BitRate != s.BitRate || back.Precision != s.Precision {
		t.Error("JSON round trip lost fields")
	}
	if err := back.Validate(); err != nil {
		t.Errorf("round-tripped schedule invalid: %v", err)
	}
}
