// ttamc runs the explicit-state model checker over the paper's §4 TTA
// model: it reproduces the §5 verification matrix and the published
// counterexample traces.
//
// Usage:
//
//	ttamc -matrix                 # E1: property × coupler authority
//	ttamc -trace coldstart        # E2: the duplicated cold-start trace
//	ttamc -trace cstate           # E3: the duplicated C-state trace
//	ttamc -trace unconstrained    # shortest trace, replays unrestricted
//	ttamc -reduction -nodes 5     # reduced-vs-oracle state counts, E1-E3 + scaling
//	ttamc -authority fullshift -nodes 4 -max-oos 1 -states
//	ttamc -matrix -parallel 8 -v  # 8 exploration workers, per-level progress
//	ttamc -matrix -timeout 30s -checkpoint /tmp/e1.mc   # bounded, resumable
//	ttamc -matrix -checkpoint /tmp/e1.mc -resume        # continue after a cut
//
// Exploration fans each BFS level out over a bounded worker pool
// (-parallel, default NumCPU). Verdicts, state/transition counts and
// counterexample traces are byte-identical for any -parallel value; -v
// streams per-level progress (depth/states/transitions/frontier) to
// stderr.
//
// Direct (non-matrix, non-trace) checks of reducible configurations
// explore the model's reduction quotient by default — same verdicts,
// far fewer states. -no-reduce is the oracle mode: every concrete state
// is enumerated and the counts match the published §5 numbers (the
// -matrix and -trace experiments always report oracle counts).
//
// Long runs are resilient: -timeout, SIGINT and SIGTERM cancel the search
// cooperatively at level granularity, flush a checkpoint (-checkpoint: a
// manifest plus segment and frontier files), print the partial result
// and exit nonzero; -resume continues from the checkpoint, in-process or
// under -dist-workers whichever mode wrote it, and produces
// byte-identical results to an uninterrupted run.
// -fallback-walks degrades an exhausted -max-states or -mem-budget
// budget into seeded random-walk sampling with an explicit INCONCLUSIVE
// verdict.
//
// Performance is observable: -stats prints per-search throughput and
// allocation figures, and -cpuprofile/-memprofile/-traceprofile write
// standard pprof / execution-trace files (see README "Profiling").
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"ttastar/internal/dist"
	"ttastar/internal/experiments"
	"ttastar/internal/guardian"
	"ttastar/internal/mc"
	"ttastar/internal/model"
	"ttastar/internal/prof"
	"ttastar/internal/trace"
)

// The registered spec builder lets a model.Model cross the coordinator/
// worker process boundary: the coordinator ships DistSpec() ("tta" + the
// config JSON), the worker rebuilds the identical model here.
func init() {
	dist.RegisterModel("tta", func(payload string) (dist.ModelSpec, error) {
		var cfg model.Config
		if err := json.Unmarshal([]byte(payload), &cfg); err != nil {
			return dist.ModelSpec{}, fmt.Errorf("tta spec: %w", err)
		}
		m, err := model.New(cfg)
		if err != nil {
			return dist.ModelSpec{}, fmt.Errorf("tta spec: %w", err)
		}
		return dist.ModelSpec{Model: m, TrInv: m.PropertyBytes()}, nil
	})
}

// stdioConn is the worker-mode protocol stream: the coordinator speaks
// frames over the subprocess's stdin/stdout.
type stdioConn struct{}

func (stdioConn) Read(p []byte) (int, error)  { return os.Stdin.Read(p) }
func (stdioConn) Write(p []byte) (int, error) { return os.Stdout.Write(p) }
func (stdioConn) Close() error                { return nil }

var _ io.ReadWriteCloser = stdioConn{}

func main() {
	err := run(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttamc:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ttamc", flag.ContinueOnError)
	matrix := fs.Bool("matrix", false, "print the E1 verification matrix (all four coupler authorities)")
	reduction := fs.Bool("reduction", false, "print reduced-vs-oracle state counts for E1-E3 plus small-shifting scaling up to -nodes")
	surface := fs.Bool("surface", false, "print the topology verification surface (N×couplers×authority up to -nodes) and the Figure-3 buffer surface")
	traceKind := fs.String("trace", "", "print a counterexample trace: coldstart | cstate | unconstrained")
	authority := fs.String("authority", "smallshift", "coupler authority: passive | windows | smallshift | fullshift")
	nodes := fs.Int("nodes", 4, "cluster size (2-7)")
	couplers := fs.Int("couplers", 2, "replicated channels (1-3); 1 disables the reduction (needs channel redundancy)")
	couplerFaults := fs.String("coupler-faults", "", "comma-separated per-coupler fault-mode masks, e.g. all,silence+bad_frame (empty = all faults on every coupler)")
	maxOOS := fs.Int("max-oos", 0, "limit total out-of-slot errors (0 = unlimited)")
	noCSReplay := fs.Bool("no-cs-replay", false, "forbid replaying cold-start frames")
	noReduce := fs.Bool("no-reduce", false, "disable the state-space reduction (oracle mode: concrete states, published counts)")
	states := fs.Bool("states", false, "also dump raw state variables of the trace")
	maxStates := fs.Int("max-states", 0, "state budget (0 = default)")
	parallel := fs.Int("parallel", runtime.NumCPU(), "exploration worker-pool size (results are identical for any value)")
	verbose := fs.Bool("v", false, "print per-level exploration progress to stderr")
	timeout := fs.Duration("timeout", 0, "cancel the search after this long (0 = none); partial results are printed")
	checkpoint := fs.String("checkpoint", "", "keep a resumable checkpoint here: a manifest plus the segment and frontier files next to it, written on interrupt and every -checkpoint-every levels (every level barrier under -dist-workers)")
	checkpointEvery := fs.Int("checkpoint-every", 10, "levels between in-process checkpoints, each adding only the states sealed since the last (needs -checkpoint)")
	resume := fs.Bool("resume", false, "restore the search from the -checkpoint manifest if it exists, in either mode at any worker count")
	interruptAfter := fs.Int("interrupt-after", 0, "cancel the search after N completed levels (testing aid; 0 = never)")
	memBudget := fs.Int64("mem-budget", 0, "visited-set resident byte budget, checked at level boundaries (0 = unlimited); exhaustion degrades like -max-states")
	fallbackWalks := fs.Int("fallback-walks", 0, "on -max-states or -mem-budget exhaustion, fall back to this many seeded random walks instead of failing (0 = off)")
	fallbackDepth := fs.Int("fallback-depth", 0, "step bound per fallback walk (0 = 1024)")
	statsFlag := fs.Bool("stats", false, "print per-search throughput/allocation stats to stderr")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	traceFile := fs.String("traceprofile", "", "write a runtime execution trace to this file")
	distWorkers := fs.Int("dist-workers", 0, "explore across N worker processes with crash recovery (0 = in-process engine); results are identical for any value")
	swifi := fs.String("swifi", "", "software-implemented fault injection script for -dist-workers, e.g. 'kill@worker=1@level=5,flakywrite@worker=0@level=3@fails=2'")
	distLog := fs.String("dist-log", "", "directory for distributed worker logs and, without -checkpoint, the barrier checkpoint (empty = temporary)")
	distWorker := fs.Bool("dist-worker", false, "run as a distributed worker process on stdin/stdout (internal; spawned by -dist-workers)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *distWorker {
		return dist.RunWorker(stdioConn{}, dist.WorkerOptions{})
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile, *traceFile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "ttamc:", perr)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var cancelLevels context.CancelFunc
	ctx, cancelLevels = context.WithCancel(ctx)
	defer cancelLevels()

	opts := mc.Options{
		MaxStates:       *maxStates,
		MemBudget:       *memBudget,
		Workers:         *parallel,
		Context:         ctx,
		CheckpointPath:  *checkpoint,
		CheckpointEvery: *checkpointEvery,
		FallbackWalks:   *fallbackWalks,
		FallbackDepth:   *fallbackDepth,
		NoReduce:        *noReduce,
	}
	if *resume {
		if *checkpoint == "" {
			return errors.New("-resume needs -checkpoint")
		}
		opts.ResumePath = *checkpoint
	}
	if *distWorkers > 0 {
		if *distLog != "" {
			if err := os.MkdirAll(*distLog, 0o755); err != nil {
				return err
			}
		}
		opts.Dist = &dist.Checker{Opts: dist.Options{
			Workers:     *distWorkers,
			SnapshotDir: *distLog,
			Swifi:       *swifi,
			Log: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "ttamc: "+format+"\n", args...)
			},
		}}
	} else if *swifi != "" {
		return errors.New("-swifi needs -dist-workers")
	}
	if *statsFlag {
		opts.Stats = func(st mc.Stats) {
			fmt.Fprintf(os.Stderr,
				"ttamc: %d states in %v (%.0f states/s), %d levels, peak frontier %d, %d allocs (%d bytes)\n",
				st.States, st.Duration.Round(time.Millisecond), st.StatesPerSec,
				st.Levels, st.PeakFrontier, st.Allocs, st.AllocBytes)
			if st.LoadFactor > 0 {
				fmt.Fprintf(os.Stderr,
					"ttamc: visited set: load factor %.2f, resident %d bytes (peak %d), probe lengths %v\n",
					st.LoadFactor, st.ResidentBytes, st.PeakResidentBytes, st.ProbeHist)
			} else { // a distributed backend measures only the resident bytes
				fmt.Fprintf(os.Stderr, "ttamc: visited set: resident %d bytes\n", st.ResidentBytes)
			}
			if st.SealedStates > 0 {
				fmt.Fprintf(os.Stderr,
					"ttamc: sealed tier: %d states, arena %d bytes (%.2f B/state), index %d bytes\n",
					st.SealedStates, st.SealedArenaBytes,
					float64(st.SealedArenaBytes)/float64(st.SealedStates), st.SealedIndexBytes)
			}
			if st.WireFrames > 0 {
				fmt.Fprintf(os.Stderr, "ttamc: wire: %d frames, %d bytes\n",
					st.WireFrames, st.WireBytes)
			}
		}
	}
	levels := 0
	opts.Progress = func(p mc.Progress) {
		if *verbose {
			fmt.Fprintf(os.Stderr, "ttamc: depth %3d  %9d states  %10d transitions  frontier %8d\n",
				p.Depth, p.States, p.Transitions, p.Frontier)
		}
		levels++
		if *interruptAfter > 0 && levels >= *interruptAfter {
			cancelLevels()
		}
	}

	if *matrix {
		rows, err := experiments.VerificationMatrix(opts)
		if len(rows) > 0 {
			fmt.Print(experiments.FormatMatrix(rows))
		}
		return err
	}

	if *reduction {
		var scale []int
		for n := 2; n <= *nodes; n++ {
			if n != 4 { // 4 nodes is already the E1 "small shifting" row
				scale = append(scale, n)
			}
		}
		rows, err := experiments.ReductionFactors(opts, scale...)
		if len(rows) > 0 {
			fmt.Print(experiments.FormatReduction(rows))
		}
		return err
	}

	if *surface {
		var ns []int
		for n := 3; n <= *nodes; n++ {
			ns = append(ns, n)
		}
		if len(ns) == 0 {
			ns = []int{*nodes}
		}
		cells, err := experiments.TopologySweep(opts, ns, []int{1, 2, 3},
			[]guardian.Authority{
				guardian.AuthorityPassive, guardian.AuthorityTimeWindows,
				guardian.AuthoritySmallShift, guardian.AuthorityFullShift,
			})
		if len(cells) > 0 {
			fmt.Println("topology verification surface (§5.1 property across N×couplers×authority):")
			fmt.Print(experiments.FormatTopologySweep(cells))
		}
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Println("Figure-3 buffer surface (allowable clock ratio; b = f_min−1 = 27 is the published curve):")
		fmt.Print(experiments.FormatFigure3Surface(
			[]int{76, 128, 256, 512, 1024, 2076},
			[]int{8, 12, 16, 20, 27},
		))
		return nil
	}

	if *traceKind != "" {
		var tr experiments.TraceResult
		var err error
		switch *traceKind {
		case "coldstart":
			tr, err = experiments.ColdStartReplayTrace(opts)
		case "cstate":
			tr, err = experiments.CStateReplayTrace(opts)
		case "unconstrained":
			tr, err = experiments.UnconstrainedTrace(opts)
		default:
			return fmt.Errorf("unknown trace kind %q", *traceKind)
		}
		if tr.Model != nil {
			fmt.Println(tr.Result.String())
		}
		if err != nil {
			return err
		}
		fmt.Print(tr.Rendered)
		if *states {
			fmt.Print(trace.RenderStates(tr.Model, tr.Result.Counterexample))
		}
		return nil
	}

	a, err := parseAuthority(*authority)
	if err != nil {
		return err
	}
	masks, err := parseCouplerFaults(*couplerFaults)
	if err != nil {
		return err
	}
	m, err := model.New(model.Config{
		Nodes:             *nodes,
		Couplers:          *couplers,
		CouplerFaults:     masks,
		Authority:         a,
		MaxOutOfSlot:      *maxOOS,
		NoColdStartReplay: *noCSReplay,
	})
	if err != nil {
		return err
	}
	res, err := mc.CheckTransitionInvariantBytes(m, m.PropertyBytes(), opts)
	topo := fmt.Sprintf("%d×%v couplers", *couplers, a)
	if masks != nil {
		topo += fmt.Sprintf(" (faults %s)", *couplerFaults)
	}
	// A search that never started (e.g. a refused mismatched resume) has
	// no result line to print — a bare "HOLDS — 0 states" would read as
	// success to anything scraping stdout.
	if err == nil || res.Interrupted {
		fmt.Printf("property (§5.1) for %s, %d nodes: %v\n", topo, *nodes, res)
	}
	if err != nil {
		return err
	}
	if !res.Holds {
		fmt.Print(trace.Render(m, res.Counterexample))
		if *states {
			fmt.Print(trace.RenderStates(m, res.Counterexample))
		}
	}
	return nil
}

// parseCouplerFaults parses the -coupler-faults value: a comma-separated
// list of per-coupler fault masks in model.ParseFaultSet syntax. An empty
// value means no restriction (nil).
func parseCouplerFaults(s string) ([]model.FaultSet, error) {
	if s == "" {
		return nil, nil
	}
	var masks []model.FaultSet
	for _, part := range strings.Split(s, ",") {
		fs, err := model.ParseFaultSet(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		masks = append(masks, fs)
	}
	return masks, nil
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
