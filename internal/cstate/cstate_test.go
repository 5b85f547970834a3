package cstate

import (
	"testing"
	"testing/quick"

	"ttastar/internal/bitstr"
)

func TestNodeIDString(t *testing.T) {
	cases := []struct {
		id   NodeID
		want string
	}{
		{NoNode, "-"},
		{1, "A"},
		{2, "B"},
		{4, "D"},
		{26, "Z"},
		{27, "N27"},
	}
	for _, tc := range cases {
		if got := tc.id.String(); got != tc.want {
			t.Errorf("NodeID(%d).String() = %q, want %q", tc.id, got, tc.want)
		}
	}
}

func TestMembershipBasicOps(t *testing.T) {
	var m Membership
	m = m.With(1).With(3).With(3)
	if !m.Contains(1) || !m.Contains(3) || m.Contains(2) {
		t.Errorf("membership after adds: %v", m)
	}
	if m.Count() != 2 {
		t.Errorf("Count() = %d, want 2", m.Count())
	}
	m = m.Without(1)
	if m.Contains(1) || !m.Contains(3) {
		t.Errorf("membership after remove: %v", m)
	}
	ids := Membership(0).With(2).With(4).IDs()
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 4 {
		t.Errorf("IDs() = %v", ids)
	}
}

func TestMembershipEdgeIDs(t *testing.T) {
	var m Membership
	if m.With(NoNode) != m || m.With(MaxNodes+1) != m {
		t.Error("out-of-range With changed vector")
	}
	if m.Contains(NoNode) || m.Contains(MaxNodes+1) {
		t.Error("out-of-range Contains true")
	}
	m = m.With(MaxNodes)
	if !m.Contains(MaxNodes) {
		t.Error("MaxNodes not representable")
	}
	if m.Without(NoNode) != m {
		t.Error("Without(NoNode) changed vector")
	}
}

func TestMembershipString(t *testing.T) {
	m := Membership(0).With(1).With(2)
	if got := m.String(); got != "{A,B}" {
		t.Errorf("String() = %q", got)
	}
}

func TestMembershipWithWithoutProperty(t *testing.T) {
	f := func(base uint32, idSeed uint8) bool {
		id := NodeID(1 + idSeed%MaxNodes)
		m := Membership(base)
		return m.With(id).Contains(id) && !m.Without(id).Contains(id) &&
			m.With(id).Without(id) == m.Without(id)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestCStateFullRoundTrip(t *testing.T) {
	f := func(gt, rs, cm, dmc uint16, mem uint32) bool {
		c := CState{GlobalTime: gt, RoundSlot: rs, ClusterMode: cm, DMC: dmc, Membership: Membership(mem)}
		s := bitstr.New(FullBits)
		c.AppendFull(s)
		return s.Len() == FullBits && DecodeFull(s, 0) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFeedFullMatchesAppendFull: feeding a C-state into a register that
// has already taken a prefix gives the checksum of the prefix followed by
// the C-state's full encoding.
func TestFeedFullMatchesAppendFull(t *testing.T) {
	f := func(gt, rs, mode, dmc uint16, mem uint32, prefix uint32, plen uint8) bool {
		c := CState{GlobalTime: gt, RoundSlot: rs, ClusterMode: mode, DMC: dmc, Membership: Membership(mem)}
		w := int(plen % 33)
		head := bitstr.New(w).AppendUint(uint64(prefix)&(1<<uint(w)-1), w)
		want := bitstr.CRC24.Checksum(c.AppendFull(head.Clone()))
		return c.FeedFull(bitstr.CRC24.Begin().Bits(head, 0, w)).Sum() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCStateCompactRoundTrip(t *testing.T) {
	c := CState{GlobalTime: 1234, RoundSlot: 7, Membership: Membership(0xF00D)}
	s := bitstr.New(CompactBits)
	c.AppendCompact(s)
	if s.Len() != CompactBits {
		t.Fatalf("compact encoding is %d bits, want %d", s.Len(), CompactBits)
	}
	got := DecodeCompact(s, 0)
	if got.GlobalTime != 1234 || got.RoundSlot != 7 || got.Membership != Membership(0xF00D) {
		t.Errorf("DecodeCompact = %+v", got)
	}
}

func TestCStateCompactDropsHighMembership(t *testing.T) {
	c := CState{Membership: Membership(0xFFFF0001)}
	s := bitstr.New(CompactBits)
	c.AppendCompact(s)
	if got := DecodeCompact(s, 0).Membership; got != 1 {
		t.Errorf("compact membership = %x, want 1 (high bits dropped)", uint32(got))
	}
}

func TestCompactEqual(t *testing.T) {
	a := CState{GlobalTime: 5, RoundSlot: 2, Membership: 0b11}
	b := a
	b.ClusterMode = 9 // not carried compactly
	if !a.CompactEqual(b) {
		t.Error("compact-equal states reported unequal")
	}
	b = a
	b.GlobalTime = 6
	if a.CompactEqual(b) {
		t.Error("states with different time reported compact-equal")
	}
	if !a.Equal(a) || a.Equal(b) {
		t.Error("Equal misbehaves")
	}
}

func TestCStateString(t *testing.T) {
	c := CState{GlobalTime: 1, RoundSlot: 2, Membership: Membership(0).With(1)}
	if got := c.String(); got != "t=1 slot=2 mode=0 mem={A}" {
		t.Errorf("String() = %q", got)
	}
}

func TestWidthConstants(t *testing.T) {
	if FullBits != 96 {
		t.Errorf("FullBits = %d, want 96", FullBits)
	}
	if CompactBits != 48 {
		t.Errorf("CompactBits = %d, want 48", CompactBits)
	}
}
