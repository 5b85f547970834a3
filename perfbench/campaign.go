package main

// The campaign workload: the `ttafi -experiment all` sequence of
// experiments calls at a fixed runs-per-cell, seeded from the benchmark's
// seed, followed by a `ttasim -runs`-style segment of clean star-cluster
// replicas driven through cluster.New/Run.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ttastar/internal/cluster"
	"ttastar/internal/experiments"
	"ttastar/internal/frame"
	"ttastar/internal/guardian"
	"ttastar/internal/medl"
	"ttastar/internal/sim"
)

// campaignGroup is one experiment's bus-versus-star comparison: its cells
// run in order, the first on the bus. Its shape is the published
// invariant, not the seed-sensitive rates: where busDisrupts is set the
// bus row loses healthy nodes on every seed set, and every cell from
// cleanFrom on shows no disruption at all.
type campaignGroup struct {
	name        string
	seedOffset  uint64 // the ttafi offset of this experiment's base seed
	busDisrupts bool
	cleanFrom   int
	cells       []func(ctx context.Context, runs int, seed uint64) (experiments.CampaignCell, error)
}

var small = guardian.AuthoritySmallShift

func sosTiming(top cluster.Topology) func(context.Context, int, uint64) (experiments.CampaignCell, error) {
	return func(ctx context.Context, runs int, seed uint64) (experiments.CampaignCell, error) {
		return experiments.SOSTimingCampaign(ctx, top, small, runs, seed)
	}
}

func sosValue(top cluster.Topology) func(context.Context, int, uint64) (experiments.CampaignCell, error) {
	return func(ctx context.Context, runs int, seed uint64) (experiments.CampaignCell, error) {
		return experiments.SOSValueCampaign(ctx, top, small, runs, seed)
	}
}

func masquerade(top cluster.Topology, semantic bool) func(context.Context, int, uint64) (experiments.CampaignCell, error) {
	return func(ctx context.Context, runs int, seed uint64) (experiments.CampaignCell, error) {
		return experiments.MasqueradeCampaign(ctx, top, small, semantic, runs, seed)
	}
}

func badCState(top cluster.Topology, semantic bool) func(context.Context, int, uint64) (experiments.CampaignCell, error) {
	return func(ctx context.Context, runs int, seed uint64) (experiments.CampaignCell, error) {
		return experiments.BadCStateCampaign(ctx, top, small, semantic, runs, seed)
	}
}

func babbling(top cluster.Topology, a guardian.Authority) func(context.Context, int, uint64) (experiments.CampaignCell, error) {
	return func(ctx context.Context, runs int, seed uint64) (experiments.CampaignCell, error) {
		return experiments.BabblingIdiotCampaign(ctx, top, a, runs, seed)
	}
}

var (
	bus  = cluster.TopologyBus
	star = cluster.TopologyStar
)

// campaignGroups is the cell part of `ttafi -experiment all`, in its order.
var campaignGroups = []campaignGroup{
	{name: "sos-timing", seedOffset: 0, busDisrupts: true, cleanFrom: 1,
		cells: []func(context.Context, int, uint64) (experiments.CampaignCell, error){sosTiming(bus), sosTiming(star)}},
	{name: "sos-value", seedOffset: 100, busDisrupts: true, cleanFrom: 1,
		cells: []func(context.Context, int, uint64) (experiments.CampaignCell, error){sosValue(bus), sosValue(star)}},
	{name: "masquerade", seedOffset: 200, cleanFrom: 2,
		cells: []func(context.Context, int, uint64) (experiments.CampaignCell, error){
			masquerade(bus, false), masquerade(star, false), masquerade(star, true)}},
	{name: "badcstate", seedOffset: 300, cleanFrom: 2,
		cells: []func(context.Context, int, uint64) (experiments.CampaignCell, error){
			badCState(bus, false), badCState(star, false), badCState(star, true)}},
	{name: "babbling", seedOffset: 500, busDisrupts: true, cleanFrom: 1,
		cells: []func(context.Context, int, uint64) (experiments.CampaignCell, error){
			babbling(bus, small), babbling(star, guardian.AuthorityTimeWindows), babbling(star, small)}},
}

// checkShape tests a group's cells against its invariant.
func checkShape(g campaignGroup, cells []experiments.CampaignCell) error {
	if g.busDisrupts && cells[0].RunsDisrupted == 0 {
		return fmt.Errorf("%s: bus row shows no disruption", g.name)
	}
	for _, c := range cells[g.cleanFrom:] {
		if c.RunsDisrupted != 0 {
			return fmt.Errorf("%s: %s disrupted %d runs, want 0", g.name, c.Label, c.RunsDisrupted)
		}
	}
	return nil
}

// campaignWorkload is campaign.
type campaignWorkload struct {
	runs     int // seeded runs per campaign cell
	replicas int // clean star-cluster replicas per pass
	replica  cluster.Config
}

func newCampaign() *campaignWorkload { return &campaignWorkload{runs: 20, replicas: 80} }

func (w *campaignWorkload) setup(b *bench) error {
	sched, err := medl.Build(medl.Config{Nodes: 4, Kind: frame.KindI})
	if err != nil {
		return err
	}
	drifts := make([]sim.PPB, 4)
	for i := range drifts {
		drifts[i] = sim.PPM(100)
		if i%2 == 1 {
			drifts[i] = -drifts[i]
		}
	}
	w.replica = cluster.Config{Topology: star, Schedule: sched, Authority: small, NodeDrifts: drifts}
	// Warm up the runner pool and the simulator with one small cell and a
	// few replicas.
	if _, err := sosTiming(bus)(context.Background(), 8, b.seed); err != nil {
		return err
	}
	var t tally
	w.replicaSegment(b, 24, &t, nil)
	if t.failed > 0 {
		return errors.New(t.reasons[0])
	}
	return nil
}

func (w *campaignWorkload) prepare(*bench, *tally) {}

// cellStats is the runner health of one experiments call.
type cellStats struct {
	runs, attempts, retried, failed int
}

func (s *cellStats) add(o cellStats) {
	s.runs += o.runs
	s.attempts += o.attempts
	s.retried += o.retried
	s.failed += o.failed
}

func (w *campaignWorkload) pass(b *bench, t *tally) {
	ctx := context.Background()
	seed := b.seed
	var exp *expSums
	if b.tr != nil {
		exp = &b.layers.exp
	}
	// timed runs one experiments call, records it as a cell and feeds its
	// operations to the tally: every run fails with the call's error, the
	// runs the runner gave up on fail on their own, the rest with check.
	timed := func(f func() (cellStats, error), check func() error) {
		t0 := time.Now()
		st, err := f()
		d := time.Since(t0)
		if exp != nil {
			exp.cell(st, d)
		}
		if err != nil {
			t.add(max(st.runs, 1), err)
			return
		}
		t.add(st.failed, fmt.Errorf("%d runs failed after %d attempts", st.failed, st.attempts))
		t.add(max(st.runs-st.failed, 0), check())
	}
	cellOf := func(c experiments.CampaignCell) cellStats {
		return cellStats{runs: c.Runs + c.Failed, attempts: c.Attempts, retried: c.Retried, failed: c.Failed}
	}
	healthOf := func(h experiments.RunStats) cellStats {
		return cellStats{runs: h.Requested, attempts: h.Attempts, retried: h.Retried, failed: h.Failed}
	}

	for _, g := range campaignGroups {
		cells := make([]experiments.CampaignCell, len(g.cells))
		var errs []error
		for i, f := range g.cells {
			t0 := time.Now()
			c, err := f(ctx, w.runs, seed+g.seedOffset)
			if exp != nil {
				exp.cell(cellOf(c), time.Since(t0))
			}
			cells[i] = c
			errs = append(errs, err)
		}
		err := errors.Join(errs...)
		if err == nil {
			err = checkShape(g, cells)
		}
		for _, c := range cells {
			t.add(c.Failed, fmt.Errorf("%s: %d runs failed after retries", c.Label, c.Failed))
			t.add(w.runs-c.Failed, err)
		}
	}

	var failover []experiments.FailoverResult
	timed(func() (cellStats, error) {
		var err error
		failover, err = experiments.CouplerFailoverCampaign(ctx, small, w.runs, seed+600)
		var st cellStats
		for _, r := range failover {
			st.add(healthOf(r.Health))
		}
		return st, err
	}, func() error {
		for _, r := range failover {
			if r.HealthyFreezes != 0 {
				return fmt.Errorf("failover %s: %d healthy freezes, want 0", r.Phase, r.HealthyFreezes)
			}
		}
		return nil
	})

	var replay experiments.TimedReplayResult
	timed(func() (cellStats, error) {
		var err error
		replay, err = experiments.TimedReplay()
		return cellStats{runs: 1, attempts: 1}, err
	}, func() error {
		if replay.HealthyFreezes < 1 || replay.ControlFreezes != 0 {
			return fmt.Errorf("timed replay: %d freezes, %d control freezes; want ≥1, 0",
				replay.HealthyFreezes, replay.ControlFreezes)
		}
		return nil
	})

	for _, cfg := range []struct {
		top cluster.Topology
		a   guardian.Authority
	}{{bus, small}, {star, small}, {star, guardian.AuthorityPassive}} {
		var r experiments.StartupResult
		timed(func() (cellStats, error) {
			var err error
			r, err = experiments.StartupLatency(ctx, cfg.top, cfg.a, w.runs, seed+400)
			return healthOf(r.Health), err
		}, func() error {
			if r.Failures != 0 || r.HealthyFreezes != 0 {
				return fmt.Errorf("startup %v/%v: %d failures, %d freezes; want 0, 0",
					cfg.top, cfg.a, r.Failures, r.HealthyFreezes)
			}
			return nil
		})
	}

	timed(func() (cellStats, error) {
		rs, err := experiments.DriftStressCampaign(ctx, star, small,
			[]float64{100, 1000, 4000, 8000, 16000}, w.runs, seed+700)
		var st cellStats
		for _, r := range rs {
			st.add(healthOf(r.Health))
		}
		return st, err
	}, func() error { return nil })

	var restart experiments.RestartResult
	timed(func() (cellStats, error) {
		var err error
		restart, err = experiments.RestartRecoveryCampaign(ctx, small, w.runs, seed+800)
		return healthOf(restart.Health), err
	}, func() error {
		if restart.HealthyFreezes != 0 {
			return fmt.Errorf("restart: %d healthy freezes, want 0", restart.HealthyFreezes)
		}
		return nil
	})

	timed(func() (cellStats, error) {
		rs, err := experiments.MonteCarloCampaign(ctx, small,
			[]float64{0.001, 0.005, 0.01, 0.05, 0.1}, w.runs, seed+900)
		var st cellStats
		for _, r := range rs {
			st.add(healthOf(r.Health))
		}
		return st, err
	}, func() error { return nil })

	var ablation experiments.TruncationResult
	timed(func() (cellStats, error) {
		var err error
		ablation, err = experiments.BufferTruncationAblation()
		return cellStats{runs: 1, attempts: 1}, err
	}, func() error {
		if !ablation.AdequateActive || ablation.TinyActive {
			return fmt.Errorf("buffer ablation: adequate active %v, tiny active %v; want true, false",
				ablation.AdequateActive, ablation.TinyActive)
		}
		return nil
	})

	var cl *clusterSums
	if b.tr != nil {
		cl = &b.layers.cluster
	}
	w.replicaSegment(b, w.replicas, t, cl)
}

// replica is one clean star-cluster run's outcome.
type replica struct {
	allActive bool
	freezes   int
	events    uint64
}

// replicaSegment runs n clean replicas of the star cluster over the
// campaign pool, each checked to end all-active without a healthy-node
// freeze, and records the simulator's fired events when cl is set.
func (w *campaignWorkload) replicaSegment(b *bench, n int, t *tally, cl *clusterSums) {
	t0 := time.Now()
	rs, errs, _, err := experiments.RunSeededContext(context.Background(),
		"perfbench replicas (star, small shifting, n=4)", n, b.seed,
		func(_ int, s experiments.RunSeeds) (replica, error) {
			cfg := w.replica
			cfg.Seed = s.Cluster
			c, err := cluster.New(cfg)
			if err != nil {
				return replica{}, err
			}
			c.StartStaggered(100 * time.Microsecond)
			c.Run(100 * time.Millisecond)
			return replica{allActive: c.AllActive(), freezes: c.HealthyFreezes(), events: c.Sched.Fired()}, nil
		})
	d := time.Since(t0)
	var events uint64
	for i, r := range rs {
		rerr := firstErr(errs[i], err)
		if rerr == nil && (!r.allActive || r.freezes != 0) {
			rerr = fmt.Errorf("replica %d: all-active %v, %d freezes; want true, 0", i, r.allActive, r.freezes)
		}
		t.op(rerr)
		events += r.events
	}
	if cl != nil {
		cl.events += events
		cl.ns += int64(d)
	}
}
