package cluster

import (
	"testing"
	"time"

	"ttastar/internal/bitstr"
	"ttastar/internal/channel"
	"ttastar/internal/cstate"
	"ttastar/internal/frame"
	"ttastar/internal/guardian"
	"ttastar/internal/medl"
	"ttastar/internal/node"
	"ttastar/internal/sim"
)

// delivery is one reception seen on a distribution medium: the wire the
// receivers got and a copy of its bits at delivery.
type delivery struct {
	at       sim.Time
	wire     *frame.Wire
	snapshot *frame.Wire
}

// deliveryLog records every reception on the media it is attached to.
type deliveryLog struct {
	sched *sim.Scheduler
	got   []delivery
}

func (l *deliveryLog) Receive(rx channel.Reception) {
	if rx.Bits != nil {
		l.got = append(l.got, delivery{at: l.sched.Now(), wire: rx.Bits, snapshot: rx.Bits.Clone()})
	}
}

// TestReceptionBitsIntactUntilJudged pins the wire ownership rule: the
// bits a receiver got stay as they were delivered until it has judged
// the slot. Every node checks, at each of its slot judgements (the data
// sinks run inside them), every reception of the last round on both
// channels against its copy taken at delivery — while every sender keeps
// encoding new payloads into its two reused wires.
func TestReceptionBitsIntactUntilJudged(t *testing.T) {
	sched := medl.MustBuild(medl.Config{Nodes: 4, Kind: frame.KindN, DataBits: 32})
	sched.Slots[0].Kind, sched.Slots[0].DataBits = frame.KindI, 0 // the periodic explicit C-state
	c := mustCluster(t, Config{Topology: TopologyStar, Schedule: sched})
	log := &deliveryLog{sched: c.Sched}
	for ch := channel.ID(0); ch < c.Channels(); ch++ {
		c.Medium(ch).Attach(log)
	}
	round := sched.RoundDuration()
	checks := 0
	for i, n := range c.Nodes() {
		sent := uint64(i) << 24
		n.SetDataFunc(func(bits int) *bitstr.String {
			sent++
			return bitstr.New(bits).AppendUint(sent, bits)
		})
		n.OnData(func(slot int, _ cstate.NodeID, _ *bitstr.String) {
			for _, d := range log.got {
				if c.Sched.Now().Sub(d.at) > round {
					continue
				}
				checks++
				if !d.wire.Equal(d.snapshot) {
					t.Fatalf("node %v judging slot %d at %v: a reception delivered at %v changed since", n.ID(), slot, c.Sched.Now(), d.at)
				}
			}
		})
	}
	c.StartStaggered(100 * time.Microsecond)
	c.Run(100 * time.Millisecond)
	if !c.AllActive() {
		t.Fatalf("cluster not integrated: %d active", c.CountInState(node.StateActive))
	}
	if checks == 0 {
		t.Fatal("no reception was checked at a judgement")
	}
}

// TestReplayBufferedSurvivesSenderReuse: a full-shifting coupler keeps
// its own copy of the frame it buffers, so an out-of-slot replay emits
// exactly the frame it forwarded, even after the sender has encoded into
// both of its wires again. The coupler is silenced after the frame is
// buffered, so no later input replaces it while the senders go on. Keeping
// the copy takes no allocation per forward: the coupler reuses its
// storage.
func TestReplayBufferedSurvivesSenderReuse(t *testing.T) {
	cfg := replicaConfig(t, 1)
	cfg.Authority = guardian.AuthorityFullShift
	c := mustCluster(t, cfg)
	c.StartStaggered(100 * time.Microsecond)
	c.Run(100 * time.Millisecond)
	if !c.AllActive() {
		t.Fatalf("cluster not integrated: %d active", c.CountInState(node.StateActive))
	}
	round := c.Schedule.RoundDuration()
	if got := testing.AllocsPerRun(20, func() { c.Run(round) }); got != 0 {
		t.Errorf("%v allocations per TDMA round with full-shifting couplers, want 0", got)
	}

	log := &deliveryLog{sched: c.Sched}
	c.Medium(channel.ChannelA).Attach(log)
	c.Run(round)
	coupler := c.Coupler(channel.ChannelA)
	if err := coupler.SetFault(guardian.FaultSilence); err != nil {
		t.Fatal(err)
	}
	c.Run(3 * round) // every sender encodes into both of its wires again
	if err := coupler.ReplayBuffered(0); err != nil {
		t.Fatalf("ReplayBuffered: %v", err)
	}
	replayAt := c.Sched.Now()
	c.Run(round)
	if coupler.Stats().Replays != 1 {
		t.Fatalf("%d replays, want 1", coupler.Stats().Replays)
	}

	// The replay is the one delivery that repeats an earlier one.
	var orig, replay *delivery
	for i := range log.got {
		for j := 0; j < i; j++ {
			if log.got[i].snapshot.Equal(log.got[j].snapshot) {
				if replay != nil {
					t.Fatalf("deliveries at %v and %v both repeat an earlier frame", replay.at, log.got[i].at)
				}
				orig, replay = &log.got[j], &log.got[i]
			}
		}
	}
	switch {
	case replay == nil:
		t.Fatal("the replay repeats no frame forwarded before it")
	case replay.at < replayAt:
		t.Fatalf("the repeated frame arrived at %v, before the replay at %v", replay.at, replayAt)
	case orig.wire.Equal(orig.snapshot):
		t.Fatal("the sender did not reuse the replayed frame's wire before the replay; the test shows nothing")
	}
}
