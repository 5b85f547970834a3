package cluster

import (
	"testing"
	"time"

	"ttastar/internal/channel"
	"ttastar/internal/frame"
	"ttastar/internal/node"
	"ttastar/internal/sim"
)

func TestInjectorStarUsesCouplerPort(t *testing.T) {
	c := mustCluster(t, Config{Topology: TopologyStar})
	w := c.Injector(3, channel.ChannelA)
	if w == nil {
		t.Fatal("star injector nil")
	}
	// Traffic injected through the port shows up on the distribution side
	// (the coupler is unsynced, so it forwards).
	rc := &captureSink{}
	c.Medium(channel.ChannelA).Attach(rc)
	w.Transmit(channel.Transmission{
		Origin:   3,
		Bits:     frame.NewWire(channel.NoiseBits(sim.NewRNG(1), 30)),
		Start:    c.Sched.Now(),
		Duration: 30 * time.Microsecond,
		Strength: channel.NominalStrength,
	})
	c.Run(time.Millisecond)
	if len(rc.got) != 1 {
		t.Errorf("injected transmission not forwarded: %d receptions", len(rc.got))
	}
	if c.Coupler(channel.ChannelA).Stats().Received != 1 {
		t.Error("coupler did not see the injected transmission")
	}
}

func TestInjectorBusUsesLocalGuardian(t *testing.T) {
	c := mustCluster(t, Config{Topology: TopologyBus})
	w := c.Injector(2, channel.ChannelB)
	if w == nil {
		t.Fatal("bus injector nil")
	}
	w.Transmit(channel.Transmission{
		Origin:   2,
		Bits:     frame.NewWire(channel.NoiseBits(sim.NewRNG(2), 30)),
		Start:    c.Sched.Now(),
		Duration: 30 * time.Microsecond,
		Strength: channel.NominalStrength,
	})
	c.Run(time.Millisecond)
	if c.LocalGuardian(2, channel.ChannelB).Stats().Received != 1 {
		t.Error("local guardian did not see the injected transmission")
	}
}

type captureSink struct {
	got []channel.Reception
}

func (c *captureSink) Receive(rx channel.Reception) { c.got = append(c.got, rx) }

func TestRunUntilImmediateAndExhausted(t *testing.T) {
	c := mustCluster(t, Config{})
	// Condition already true: returns immediately.
	if !c.RunUntil(time.Millisecond, func() bool { return true }) {
		t.Error("immediate condition not satisfied")
	}
	// Nothing scheduled and condition false: returns false without hanging.
	if c.RunUntil(time.Millisecond, func() bool { return false }) {
		t.Error("impossible condition satisfied")
	}
}

func TestDisruptionCountersExclude(t *testing.T) {
	c := mustCluster(t, Config{})
	c.StartStaggered(100 * time.Microsecond)
	c.Run(20 * time.Millisecond)
	// Freeze node 2 by host command: host freezes are from active, so they
	// count as healthy-freeze events unless excluded.
	c.Node(2).HostFreeze()
	if c.HealthyFreezes() != 1 {
		t.Errorf("HealthyFreezes = %d, want 1", c.HealthyFreezes())
	}
	if c.HealthyFreezes(2) != 0 {
		t.Errorf("HealthyFreezes(exclude 2) = %d, want 0", c.HealthyFreezes(2))
	}
	if c.StartupRegressions() != 0 {
		t.Errorf("StartupRegressions = %d, want 0", c.StartupRegressions())
	}
	if c.Disruptions(2) != 0 {
		t.Errorf("Disruptions(exclude 2) = %d", c.Disruptions(2))
	}
	_ = node.StateFreeze
}

// TestRunUntilStopsAtDeadline: an event after the deadline must not fire,
// and cond is not judged on the state it would have produced.
func TestRunUntilStopsAtDeadline(t *testing.T) {
	c := mustCluster(t, Config{})
	flag := false
	c.Sched.At(sim.Time(2*time.Millisecond), "set flag", func() { flag = true })
	if c.RunUntil(time.Millisecond, func() bool { return flag }) {
		t.Error("RunUntil(1ms) met a condition only an event at 2ms sets")
	}
	if flag {
		t.Error("the event after the deadline fired")
	}
	if now := c.Sched.Now(); now != sim.Time(time.Millisecond) {
		t.Errorf("Now() = %v, want the 1ms deadline", now)
	}
	// The event is still pending and fires once the deadline covers it.
	if !c.RunUntil(time.Millisecond, func() bool { return flag }) {
		t.Error("RunUntil to 2ms did not fire the event at 2ms")
	}
	if now := c.Sched.Now(); now != sim.Time(2*time.Millisecond) {
		t.Errorf("Now() = %v, want 2ms", now)
	}
}
