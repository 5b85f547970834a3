package cluster

import (
	"testing"
	"time"

	"ttastar/internal/frame"
	"ttastar/internal/medl"
	"ttastar/internal/node"
	"ttastar/internal/sim"
)

// replicaConfig is one clean replica of the campaign's star cluster: four
// I-frame nodes, drifts of ±100 ppm, small-shifting couplers.
func replicaConfig(tb testing.TB, seed uint64) Config {
	tb.Helper()
	sched, err := medl.Build(medl.Config{Nodes: 4, Kind: frame.KindI})
	if err != nil {
		tb.Fatal(err)
	}
	drifts := make([]sim.PPB, 4)
	for i := range drifts {
		drifts[i] = sim.PPM(100)
		if i%2 == 1 {
			drifts[i] = -drifts[i]
		}
	}
	return Config{Topology: TopologyStar, Schedule: sched, NodeDrifts: drifts, Seed: seed}
}

// roundAllocs is the pinned heap-allocation count of one steady-state
// TDMA round of the warm replica cluster. Each node encodes its I-frame
// into one of its two reused wires, and scheduling, delivery, forwarding,
// judging and clock synchronization allocate nothing.
const roundAllocs = 0

// TestSteadyStateRoundAllocs pins the allocations of whole TDMA rounds of
// an integrated star cluster, so a per-slot allocation creeping back into
// the event loop shows up here and not only as a slower campaign.
func TestSteadyStateRoundAllocs(t *testing.T) {
	c := mustCluster(t, replicaConfig(t, 1))
	c.StartStaggered(100 * time.Microsecond)
	c.Run(100 * time.Millisecond) // integrate and warm every pool
	if !c.AllActive() {
		t.Fatalf("cluster not integrated: %d active", c.CountInState(node.StateActive))
	}
	round := c.Schedule.RoundDuration()
	got := testing.AllocsPerRun(50, func() { c.Run(round) })
	if got != roundAllocs {
		t.Errorf("%v allocations per TDMA round, want %d", got, roundAllocs)
	}
	if !c.AllActive() || c.HealthyFreezes() != 0 {
		t.Errorf("cluster degraded while measured: all-active %v, %d freezes", c.AllActive(), c.HealthyFreezes())
	}
}

// BenchmarkClusterReplica runs one clean 100 ms replica of the 4-node star
// cluster per iteration, construction and start-up included.
func BenchmarkClusterReplica(b *testing.B) {
	cfg := replicaConfig(b, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		c.StartStaggered(100 * time.Microsecond)
		c.Run(100 * time.Millisecond)
		if !c.AllActive() {
			b.Fatal("replica did not reach all-active")
		}
	}
}
