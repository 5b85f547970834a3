// Command perfbench is the repository benchmark. It runs one workload
// in-process for a measuring window, checks every output against its
// pins, and prints its metrics as one JSON object on the last line of
// standard output.
//
// Usage, from the root of a checkout (run.sh builds the program from the
// checkout's sources first):
//
//	bash perfbench/run.sh --workload verify-6n --seed 1 --seconds 16 --trace 0
//
// Workloads: verify-6n, paper, dist-recover, campaign (see README.md for
// why each was chosen and which layers it stresses). With --trace 0 the
// metrics are the end-to-end set: wall_s (median pass wall), setup_s
// (median of repeated set-ups) and max_rss_B. With --trace 1 one
// untraced pass is timed first, then traced passes fill the window and
// the per-layer set is reported, timed at each layer's public seams.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ttastar/internal/experiments"
)

// setupReps is how often the set-up is repeated; setup_s is the median.
const setupReps = 5

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workDir  string
	commit   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(o, newWorkload(o.workload), os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "verify-6n | paper | dist-recover | campaign")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	fs.IntVar(&o.seconds, "seconds", 20, "measuring window in seconds (at least one pass always runs)")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&o.workDir, "work", ".bench_build/work", "work directory for snapshots, temporary files and span dumps")
	fs.StringVar(&o.commit, "commit", "unknown", "commit of the code under test, for the machine record")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = trace == 1
	if newWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	return o, nil
}

func newWorkload(name string) workload {
	switch name {
	case "verify-6n":
		return newVerify()
	case "paper":
		return newPaper()
	case "dist-recover":
		return newDist()
	case "campaign":
		return newCampaign()
	}
	return nil
}

// run measures workload w: repeated set-ups, the untimed preparation,
// then passes until the window is spent.
func run(o options, w workload, stdout, log io.Writer) (result, error) {
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)
	experiments.SetParallelism(workers)
	tmp := filepath.Join(o.workDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return result{}, err
	}
	// Everything the program writes — the dist mesh rendezvous directory
	// included — stays inside the checkout.
	os.Setenv("TMPDIR", tmp)

	rec := machineRecord(o, workers)
	line, _ := json.Marshal(map[string]any{"machine": rec})
	fmt.Fprintln(stdout, string(line))

	b := &bench{workers: workers, seed: o.seed, workDir: o.workDir}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		var err error
		wall, _, _ := measure(func() { err = w.setup(b) })
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, wall)
	}
	var t tally
	w.prepare(b, &t)

	var walls, cpus, raws []float64
	pass := func() {
		runtime.GC()
		wall, cpu, raw := measure(func() { w.pass(b, &t) })
		walls, cpus, raws = append(walls, wall), append(cpus, cpu), append(raws, raw)
	}
	var untraced float64
	if o.trace {
		pass()
		untraced, walls, cpus, raws = walls[0], nil, nil, nil
		b.tr = newTracer()
	}
	window := time.Duration(o.seconds) * time.Second
	begin := time.Now()
	for len(walls) == 0 || time.Since(begin) < window {
		before := readRuntime()
		pass()
		if o.trace {
			b.layers.runtime.add(before, readRuntime())
		}
	}
	failedFrac := float64(t.failed) / float64(max(t.attempted, 1))
	res := result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metric{},
	}
	for _, r := range t.reasons {
		fmt.Fprintln(log, "perfbench: FAILED:", r)
	}
	fmt.Fprintf(log, "perfbench: %s seed %d: %d passes; wall net of steal %v s; raw wall %v s; cpu %v s; set-up %v s; %d/%d operations failed\n",
		o.workload, o.seed, len(walls), walls, raws, cpus, setups, t.failed, t.attempted)
	fmt.Fprintf(log, "perfbench: interquartile spread over passes: wall %.3f, cpu %.3f; over set-ups %.3f\n",
		spread(walls), spread(cpus), spread(setups))

	if !o.trace {
		values := map[string]float64{
			"wall_s":    median(walls),
			"setup_s":   median(setups),
			"max_rss_B": float64(maxRSS()),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{values[d.name], d.unit}
		}
		return res, nil
	}

	addupWorkers := workers
	if dw, ok := w.(*distWorkload); ok {
		addupWorkers = dw.workers
	}
	overhead := median(walls) / untraced
	fmt.Fprintf(log, "perfbench: tracing overhead %.3f× (traced %.3f s / untraced %.3f s)\n",
		overhead, median(walls), untraced)
	values := layerMetrics(b.tr, &b.layers, len(walls), addupWorkers, overhead, failedFrac, log)
	for _, d := range perLayer {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	spans := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	if err := b.tr.writeSpans(spans, o.workload); err != nil {
		return result{}, err
	}
	fmt.Fprintln(log, "perfbench: per-level spans written to", spans)
	return res, nil
}

// measure runs f and returns its wall time net of hypervisor steal, the
// process CPU time it used, and its raw wall time. Steal is time the host
// gave this machine's virtual CPUs to someone else; on a shared host it
// swings a raw wall time by a third from run to run. It is subtracted as
// the CPU capacity lost, averaged over the CPUs.
func measure(f func()) (wall, cpu, raw float64) {
	s0, c0, t0 := stealSeconds(), cpuNanos(), time.Now()
	f()
	raw = time.Since(t0).Seconds()
	cpu = seconds(cpuNanos() - c0)
	return raw - (stealSeconds() - s0), cpu, raw
}

// stealSeconds reads the steal time of /proc/stat, averaged over the
// CPUs; 0 where the kernel does not report it.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	const userHZ = 100 // the unit of /proc/stat times on Linux
	var sum float64
	cpus := 0
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) > 8 && strings.HasPrefix(f[0], "cpu") && f[0] != "cpu" {
			if v, err := strconv.ParseInt(f[8], 10, 64); err == nil {
				sum += float64(v) / userHZ
				cpus++
			}
		}
	}
	if cpus == 0 {
		return 0
	}
	return sum / float64(cpus)
}

// machineRecord states the machine and the code a result was measured
// on.
func machineRecord(o options, workers int) map[string]any {
	return map[string]any{
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"workers":       workers,
		"cpu":           cpuModel(),
		"go":            runtime.Version(),
		"commit":        o.commit,
		"source_sha256": sourceDigest("."),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, in
// path order, skipping dot directories: it identifies the code under test
// where the checkout carries no version-control metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
