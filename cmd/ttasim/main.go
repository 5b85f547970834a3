// ttasim runs a timed TTA cluster simulation: TTP/C nodes with drifting
// clocks on a bus (local guardians) or star (central guardians) topology,
// and reports startup behaviour, membership and protocol statistics.
//
// Usage:
//
//	ttasim -topology star -authority smallshift -duration 100ms
//	ttasim -topology bus -nodes 6 -drift-ppm 100 -events
//	ttasim -topology star -runs 50 -parallel 8
//
// With -runs N (N > 1) the same configuration is simulated N times with
// independent derived seed streams, fanned out over a worker pool
// (-parallel, default NumCPU), and summarized as an aggregate; the
// summary is byte-identical for any -parallel value.
//
// Long replica sweeps are resilient: -timeout, SIGINT and SIGTERM cancel
// at run granularity and a partial aggregate is printed before exiting
// nonzero; -checkpoint records completed replicas and -resume replays
// them instead of re-simulating.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ttastar/internal/channel"
	"ttastar/internal/cluster"
	"ttastar/internal/experiments"
	"ttastar/internal/frame"
	"ttastar/internal/guardian"
	"ttastar/internal/medl"
	"ttastar/internal/prof"
	"ttastar/internal/sim"
	"ttastar/internal/stats"
)

func main() {
	err := run(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttasim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ttasim", flag.ContinueOnError)
	topology := fs.String("topology", "star", "bus | star")
	authority := fs.String("authority", "smallshift", "star coupler authority: passive | windows | smallshift | fullshift")
	semantic := fs.Bool("semantic", false, "enable coupler semantic analysis")
	nodes := fs.Int("nodes", 4, "cluster size")
	couplers := fs.Int("couplers", 2, "populated channels: 2 = redundant pair, 1 = degraded single channel")
	duration := fs.Duration("duration", 100*time.Millisecond, "simulated time to run")
	driftPPM := fs.Float64("drift-ppm", 100, "alternating ±drift of node oscillators")
	seed := fs.Uint64("seed", 1, "simulation seed")
	runs := fs.Int("runs", 1, "independent seeded replicas; >1 prints an aggregate summary")
	parallel := fs.Int("parallel", runtime.NumCPU(), "worker-pool size for -runs replicas")
	events := fs.Bool("events", false, "print protocol state changes")
	medlPath := fs.String("medl", "", "load the MEDL (TDMA schedule) from a JSON file instead of generating one")
	dumpMEDL := fs.String("dump-medl", "", "write the generated MEDL as JSON to this file and exit")
	timeout := fs.Duration("timeout", 0, "cancel a -runs sweep after this long (0 = none); a partial aggregate is printed")
	checkpoint := fs.String("checkpoint", "", "record completed replica verdicts here so a cut sweep can be resumed")
	resume := fs.Bool("resume", false, "replay verdicts recorded in the -checkpoint file instead of re-simulating them")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	traceFile := fs.String("traceprofile", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *checkpoint == "" {
		return errors.New("-resume needs -checkpoint")
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile, *traceFile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "ttasim:", perr)
		}
	}()

	var top cluster.Topology
	switch *topology {
	case "bus":
		top = cluster.TopologyBus
	case "star":
		top = cluster.TopologyStar
	default:
		return fmt.Errorf("unknown topology %q", *topology)
	}
	a, err := parseAuthority(*authority)
	if err != nil {
		return err
	}

	sched, err := medl.Build(medl.Config{Nodes: *nodes, Kind: frame.KindI})
	if err != nil {
		return err
	}
	if *medlPath != "" {
		loaded, err := loadMEDL(*medlPath)
		if err != nil {
			return err
		}
		sched = loaded
		*nodes = sched.NumSlots()
	}
	if *dumpMEDL != "" {
		return dumpSchedule(sched, *dumpMEDL)
	}

	drifts := make([]sim.PPB, *nodes)
	for i := range drifts {
		d := sim.PPM(*driftPPM)
		if i%2 == 1 {
			d = -d
		}
		drifts[i] = d
	}
	cfg := cluster.Config{
		Topology:         top,
		Schedule:         sched,
		Authority:        a,
		SemanticAnalysis: *semantic,
		NodeDrifts:       drifts,
		Couplers:         *couplers,
	}
	if *runs > 1 {
		experiments.SetParallelism(*parallel)
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
		err := runReplicas(ctx, cfg, *runs, *seed, *duration)
		if cp != nil {
			if err != nil {
				if ferr := cp.Flush(); ferr != nil {
					fmt.Fprintln(os.Stderr, "ttasim:", ferr)
				}
			} else if rerr := cp.Remove(); rerr != nil {
				return rerr
			}
		}
		return err
	}
	cfg.Seed = *seed
	c, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	c.StartStaggered(100 * time.Microsecond)
	c.Run(*duration)

	fmt.Printf("topology=%v authority=%v nodes=%d simulated=%v rounds≈%d\n",
		top, a, *nodes, *duration, int(time.Duration(*duration)/c.Schedule.RoundDuration()))
	for _, n := range c.Nodes() {
		st := n.Stats()
		fmt.Printf("node %v: state=%-10v membership=%v sent=%d coldstarts=%d integrations=%d "+
			"cliqueErrors=%d judged(correct=%d incorrect=%d invalid=%d null=%d)\n",
			n.ID(), n.State(), n.CState().Membership, st.FramesSent, st.ColdStartsSent,
			st.Integrations, st.CliqueErrors, st.SlotsCorrect, st.SlotsIncorrect, st.SlotsInvalid, st.SlotsNull)
	}
	if top == cluster.TopologyStar {
		for ch := channel.ID(0); ch < c.Channels(); ch++ {
			s := c.Coupler(ch).Stats()
			fmt.Printf("coupler%d: forwarded=%d reshaped=%d windowBlocked=%d wrongSlot=%d semanticBlocked=%d peakBuffer=%.1f bits\n",
				ch, s.Forwarded, s.Reshaped, s.WindowBlocked, s.WrongSlot, s.SemanticBlocked, s.PeakBufferBits)
		}
	}
	fmt.Printf("healthy freezes=%d startup regressions=%d\n", c.HealthyFreezes(), c.StartupRegressions())
	if *events {
		for _, e := range c.Events() {
			fmt.Printf("%14v node %v: %v → %v\n", e.At, e.Node, e.From, e.To)
		}
	}
	return nil
}

// replicaVerdict is one replica's outcome; exported fields so a campaign
// checkpoint can round-trip it through JSON.
type replicaVerdict struct {
	AllActive   bool `json:"all_active"`
	Freezes     int  `json:"freezes"`
	Regressions int  `json:"regressions"`
	FramesSent  int  `json:"frames_sent"`
}

// runReplicas simulates the same configuration runs times with derived
// seed streams over the campaign worker pool and prints an aggregate —
// partial if the context cancels the sweep mid-way.
func runReplicas(ctx context.Context, cfg cluster.Config, runs int, seed uint64, duration time.Duration) error {
	label := fmt.Sprintf("ttasim replicas (%v, %v, n=%d)", cfg.Topology, cfg.Authority, len(cfg.NodeDrifts))
	verdicts, errs, st, err := experiments.RunSeededContext(ctx, label, runs, seed,
		func(r int, s experiments.RunSeeds) (replicaVerdict, error) {
			runCfg := cfg
			runCfg.Seed = s.Cluster
			c, err := cluster.New(runCfg)
			if err != nil {
				return replicaVerdict{}, err
			}
			c.StartStaggered(100 * time.Microsecond)
			c.Run(duration)
			sent := 0
			for _, n := range c.Nodes() {
				sent += n.Stats().FramesSent
			}
			return replicaVerdict{
				AllActive:   c.AllActive(),
				Freezes:     c.HealthyFreezes(),
				Regressions: c.StartupRegressions(),
				FramesSent:  sent,
			}, nil
		})
	completed, allActive, freezes, regressions := 0, 0, 0, 0
	var sent stats.Sample
	for i, v := range verdicts {
		if errs[i] != nil {
			continue
		}
		completed++
		if v.AllActive {
			allActive++
		}
		freezes += v.Freezes
		regressions += v.Regressions
		sent.Add(float64(v.FramesSent))
	}
	fmt.Printf("topology=%v authority=%v nodes=%d simulated=%v replicas=%d\n",
		cfg.Topology, cfg.Authority, len(cfg.NodeDrifts), duration, runs)
	fmt.Printf("all-active=%d/%d healthy freezes=%d startup regressions=%d\n",
		allActive, completed, freezes, regressions)
	fmt.Printf("frames sent per replica: %v\n", sent.String())
	st.Footer(os.Stdout, "", "replicas")
	return err
}

func loadMEDL(path string) (*medl.Schedule, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading MEDL: %w", err)
	}
	var s medl.Schedule
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parsing MEDL: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("invalid MEDL: %w", err)
	}
	return &s, nil
}

func dumpSchedule(s *medl.Schedule, path string) error {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing MEDL: %w", err)
	}
	fmt.Printf("wrote %d-slot MEDL to %s\n", s.NumSlots(), path)
	return nil
}

func parseAuthority(s string) (guardian.Authority, error) {
	switch s {
	case "passive":
		return guardian.AuthorityPassive, nil
	case "windows":
		return guardian.AuthorityTimeWindows, nil
	case "smallshift":
		return guardian.AuthoritySmallShift, nil
	case "fullshift":
		return guardian.AuthorityFullShift, nil
	default:
		return 0, fmt.Errorf("unknown authority %q", s)
	}
}
