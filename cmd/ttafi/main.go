// ttafi runs the fault-injection campaigns that motivated the central-
// guardian design (§2.2 of the paper, after Ademaj et al. [7]): SOS faults,
// masquerading cold-start frames and invalid-C-state frames, compared
// across the bus topology (local guardians) and the star topology (central
// guardians, optionally with semantic analysis) — plus the E12 coupler-
// failover ablation, where one star coupler goes silent mid-operation and
// the redundant coupler must mask it.
//
// Usage:
//
//	ttafi -experiment all -runs 20
//	ttafi -experiment sos-timing -runs 50 -seed 7 -parallel 8
//	ttafi -experiment failover -runs 20
//	ttafi -experiment all -runs 500 -timeout 2m -checkpoint /tmp/fi.cp
//	ttafi -experiment all -runs 500 -checkpoint /tmp/fi.cp -resume
//
// Campaign runs fan out over a bounded worker pool (-parallel, default
// NumCPU); every run owns an independent simulator and a seed stream
// derived from (base seed, cell label, run index), so output is
// byte-identical for any -parallel value.
//
// Long campaigns are resilient: -timeout, SIGINT and SIGTERM cancel at
// run granularity, flush completed verdicts to the -checkpoint file,
// print partial tables and exit nonzero; -resume replays recorded
// verdicts instead of re-simulating, and the resumed tables are
// byte-identical to an uninterrupted campaign's. A panicking run is
// retried up to -retries times on a derived seed stream and reported in
// the summary rather than killing the campaign.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"ttastar/internal/cluster"
	"ttastar/internal/experiments"
	"ttastar/internal/guardian"
	"ttastar/internal/prof"
)

func main() {
	err := run(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttafi:", err)
		os.Exit(1)
	}
}

var experimentNames = []string{
	"sos-timing", "sos-value", "masquerade", "badcstate", "babbling",
	"failover", "replay", "startup", "ablation",
	"drift", "restart", "montecarlo", "all",
}

func validExperiment(name string) bool {
	for _, n := range experimentNames {
		if name == n {
			return true
		}
	}
	return false
}

func run(args []string) error {
	fs := flag.NewFlagSet("ttafi", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "sos-timing | sos-value | masquerade | badcstate | babbling | failover | replay | startup | ablation | drift | restart | montecarlo | all")
	runs := fs.Int("runs", 20, "seeded runs per campaign cell")
	seed := fs.Uint64("seed", 1, "base seed")
	parallel := fs.Int("parallel", runtime.NumCPU(), "campaign worker-pool size (results are identical for any value)")
	timeout := fs.Duration("timeout", 0, "cancel the campaign after this long (0 = none); partial tables are printed")
	checkpoint := fs.String("checkpoint", "", "record completed run verdicts here so a cut campaign can be resumed")
	resume := fs.Bool("resume", false, "replay verdicts recorded in the -checkpoint file instead of re-simulating them")
	retries := fs.Int("retries", experiments.DefaultMaxRetries, "retries for a panicking run before it is recorded as failed")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	traceFile := fs.String("traceprofile", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile, *traceFile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "ttafi:", perr)
		}
	}()
	// Reject a bad experiment name before any simulation work runs.
	if !validExperiment(*experiment) {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	if *resume && *checkpoint == "" {
		return errors.New("-resume needs -checkpoint")
	}
	experiments.SetParallelism(*parallel)
	experiments.SetMaxRetries(*retries)

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var cp *experiments.Checkpoint
	if *checkpoint != "" {
		var err error
		cp, err = experiments.OpenCheckpoint(*checkpoint, *resume)
		if err != nil {
			return err
		}
		experiments.SetCheckpoint(cp)
		defer experiments.SetCheckpoint(nil)
	}
	// finish flushes campaign progress on any exit path: an interrupted
	// campaign keeps its checkpoint for -resume, a completed one removes
	// it so stale progress can never shadow a fresh run.
	finish := func(retErr error) error {
		if cp == nil {
			return retErr
		}
		if retErr != nil {
			if err := cp.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "ttafi:", err)
			}
			return retErr
		}
		if err := cp.Remove(); err != nil {
			return err
		}
		return nil
	}

	small := guardian.AuthoritySmallShift
	want := func(name string) bool { return *experiment == name || *experiment == "all" }

	var cells []experiments.CampaignCell
	// add keeps the (possibly partial) cell even when the campaign errored
	// — an interrupted sweep still prints everything it measured.
	add := func(c experiments.CampaignCell, err error) error {
		if c.Runs > 0 || err == nil {
			cells = append(cells, c)
		}
		return err
	}
	campaignErr := func() error {
		if want("sos-timing") {
			if err := add(experiments.SOSTimingCampaign(ctx, cluster.TopologyBus, small, *runs, *seed)); err != nil {
				return err
			}
			if err := add(experiments.SOSTimingCampaign(ctx, cluster.TopologyStar, small, *runs, *seed)); err != nil {
				return err
			}
		}
		if want("sos-value") {
			if err := add(experiments.SOSValueCampaign(ctx, cluster.TopologyBus, small, *runs, *seed+100)); err != nil {
				return err
			}
			if err := add(experiments.SOSValueCampaign(ctx, cluster.TopologyStar, small, *runs, *seed+100)); err != nil {
				return err
			}
		}
		if want("masquerade") {
			if err := add(experiments.MasqueradeCampaign(ctx, cluster.TopologyBus, small, false, *runs, *seed+200)); err != nil {
				return err
			}
			if err := add(experiments.MasqueradeCampaign(ctx, cluster.TopologyStar, small, false, *runs, *seed+200)); err != nil {
				return err
			}
			if err := add(experiments.MasqueradeCampaign(ctx, cluster.TopologyStar, small, true, *runs, *seed+200)); err != nil {
				return err
			}
		}
		if want("badcstate") {
			if err := add(experiments.BadCStateCampaign(ctx, cluster.TopologyBus, small, false, *runs, *seed+300)); err != nil {
				return err
			}
			if err := add(experiments.BadCStateCampaign(ctx, cluster.TopologyStar, small, false, *runs, *seed+300)); err != nil {
				return err
			}
			if err := add(experiments.BadCStateCampaign(ctx, cluster.TopologyStar, small, true, *runs, *seed+300)); err != nil {
				return err
			}
		}
		if want("babbling") {
			if err := add(experiments.BabblingIdiotCampaign(ctx, cluster.TopologyBus, small, *runs, *seed+500)); err != nil {
				return err
			}
			if err := add(experiments.BabblingIdiotCampaign(ctx, cluster.TopologyStar, guardian.AuthorityTimeWindows, *runs, *seed+500)); err != nil {
				return err
			}
			if err := add(experiments.BabblingIdiotCampaign(ctx, cluster.TopologyStar, small, *runs, *seed+500)); err != nil {
				return err
			}
		}
		return nil
	}()
	if len(cells) > 0 {
		fmt.Print(experiments.FormatCampaign(cells))
	}
	if campaignErr != nil {
		return finish(campaignErr)
	}

	if want("failover") {
		results, err := experiments.CouplerFailoverCampaign(ctx, small, *runs, *seed+600)
		if len(results) > 0 {
			fmt.Println("coupler failover (E12, one star coupler silenced mid-operation):")
			fmt.Print(experiments.FormatFailover(results))
		}
		if err != nil {
			return finish(err)
		}
	}
	if want("replay") {
		r, err := experiments.TimedReplay()
		if err != nil {
			return finish(err)
		}
		fmt.Println("out-of-slot replay during integration (E9, full-shifting couplers):")
		fmt.Print(experiments.FormatTimedReplay(r))
	}
	if want("startup") {
		var results []experiments.StartupResult
		var startupErr error
		for _, cfg := range []struct {
			top cluster.Topology
			a   guardian.Authority
		}{
			{cluster.TopologyBus, small},
			{cluster.TopologyStar, small},
			{cluster.TopologyStar, guardian.AuthorityPassive},
		} {
			r, err := experiments.StartupLatency(ctx, cfg.top, cfg.a, *runs, *seed+400)
			if r.Latency.N()+r.Failures > 0 || err == nil {
				results = append(results, r)
			}
			if err != nil {
				startupErr = err
				break
			}
		}
		if len(results) > 0 {
			fmt.Println("fault-free startup latency across randomized power-on orders:")
			fmt.Print(experiments.FormatStartup(results))
		}
		if startupErr != nil {
			return finish(startupErr)
		}
	}
	if want("drift") {
		results, err := experiments.DriftStressCampaign(ctx, cluster.TopologyStar, small,
			[]float64{100, 1000, 4000, 8000, 16000}, *runs, *seed+700)
		if len(results) > 0 {
			fmt.Println("drift-adversary clock-sync stress (E13, ±ppm oscillator split):")
			fmt.Print(experiments.FormatDriftStress(results))
		}
		if err != nil {
			return finish(err)
		}
	}
	if want("restart") {
		r, err := experiments.RestartRecoveryCampaign(ctx, small, *runs, *seed+800)
		if r.Reintegrated.Trials > 0 || err == nil {
			fmt.Println("restart recovery (E14, one node rebooted mid-round):")
			fmt.Print(experiments.FormatRestart(r))
		}
		if err != nil {
			return finish(err)
		}
	}
	if want("montecarlo") {
		results, err := experiments.MonteCarloCampaign(ctx, small,
			[]float64{0.001, 0.005, 0.01, 0.05, 0.1}, *runs, *seed+900)
		if len(results) > 0 {
			fmt.Println("Monte-Carlo transient-fault-rate sweep (per-slot probability, Wilson 95%):")
			fmt.Print(experiments.FormatMonteCarlo(results))
		}
		if err != nil {
			return finish(err)
		}
	}
	if want("ablation") {
		r, err := experiments.BufferTruncationAblation()
		if err != nil {
			return finish(err)
		}
		fmt.Println("buffer-size ablation (guardian buffer vs eq. (1) demand, Δ = 4%):")
		fmt.Print(experiments.FormatTruncation(r))
	}
	return finish(nil)
}
