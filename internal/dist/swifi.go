package dist

// The self-SWIFI harness: scripted software-implemented fault injection
// into the checker's own workers, mirroring what ttafi does to the
// modeled cluster. A script is a comma-separated list of injections:
//
//	kill@worker=1@level=5              exit(137) on receiving Expand(5)
//	stall@worker=2@level=3@for=2s      freeze (heartbeats included) for 2s
//	flakywrite@worker=0@level=2@fails=3  next 3 protocol writes fail ENOSPC
//	slowwrite@worker=1@level=4@delay=100ms  each write sleeps 100ms during level 4
//
// Injections are parsed coordinator-side for validation, shipped in
// msgConfig, and filtered worker-side by index. Each fires at most once
// per run: a fleet generation restarted at level L gets only the
// injections scheduled past L (swifiAfter), so a kill never loops while
// a second kill at a later level still fires. Only one injection per
// level can be relied on: the others scheduled at L are dropped with the
// retired generation whether they fired or not, and the coordinator logs
// them. kill and stall model process crash/stall (the deadline-detection
// path); flakywrite and slowwrite model a degraded filesystem/pipe (the
// bounded-backoff retry path). A flakywrite that outlasts the retry
// budget of a write is the worker's death (recover.go).

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// injKind enumerates the injection points.
type injKind int

const (
	injKill injKind = iota
	injStall
	injFlakyWrite
	injSlowWrite
)

// injection is one scripted fault.
type injection struct {
	Kind   injKind
	Worker int
	Level  int32
	For    time.Duration // stall
	Fails  int           // flakywrite
	Delay  time.Duration // slowwrite
}

// parseSwifi parses a SWIFI script. An empty script is valid (no
// injections).
func parseSwifi(spec string) ([]injection, error) {
	var out []injection
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, "@")
		inj := injection{Worker: -1, Level: -1}
		switch fields[0] {
		case "kill":
			inj.Kind = injKill
		case "stall":
			inj.Kind = injStall
		case "flakywrite":
			inj.Kind = injFlakyWrite
			inj.Fails = 1
		case "slowwrite":
			inj.Kind = injSlowWrite
		default:
			return nil, fmt.Errorf("dist: unknown swifi action %q in %q", fields[0], part)
		}
		for _, kv := range fields[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("dist: malformed swifi field %q in %q", kv, part)
			}
			var err error
			switch k {
			case "worker":
				inj.Worker, err = strconv.Atoi(v)
			case "level":
				var l int
				l, err = strconv.Atoi(v)
				inj.Level = int32(l)
			case "for":
				inj.For, err = time.ParseDuration(v)
			case "fails":
				inj.Fails, err = strconv.Atoi(v)
			case "delay":
				inj.Delay, err = time.ParseDuration(v)
			default:
				err = fmt.Errorf("unknown key %q", k)
			}
			if err != nil {
				return nil, fmt.Errorf("dist: swifi field %q in %q: %v", kv, part, err)
			}
		}
		if inj.Worker < 0 {
			return nil, fmt.Errorf("dist: swifi injection %q needs worker=N", part)
		}
		if inj.Level < 0 {
			return nil, fmt.Errorf("dist: swifi injection %q needs level=N", part)
		}
		if inj.Kind == injStall && inj.For <= 0 {
			return nil, fmt.Errorf("dist: swifi stall %q needs for=duration", part)
		}
		if inj.Kind == injSlowWrite && inj.Delay <= 0 {
			return nil, fmt.Errorf("dist: swifi slowwrite %q needs delay=duration", part)
		}
		out = append(out, inj)
	}
	return out, nil
}

// swifiAfter splits a valid script at level: kept holds the injections
// scheduled past it, the script of a fleet generation restarted at that
// level; dropped holds those scheduled at it, which the retired
// generation may or may not have fired.
func swifiAfter(spec string, level int32) (kept, dropped string) {
	var k, d []string
	for _, part := range strings.Split(spec, ",") {
		injs, _ := parseSwifi(part)
		if len(injs) != 1 {
			continue
		}
		switch {
		case injs[0].Level > level:
			k = append(k, strings.TrimSpace(part))
		case injs[0].Level == level:
			d = append(d, strings.TrimSpace(part))
		}
	}
	return strings.Join(k, ","), strings.Join(d, ",")
}

// injector is the worker-side runtime: armed with the injections for
// this worker's index, consulted at the two injection points (level
// start, protocol write). Write-path state is accessed from both the
// main loop and the heartbeat goroutine, hence the atomics.
type injector struct {
	kill  *injection
	stall *injection

	mu        sync.Mutex
	flaky     []injection // not yet armed
	slow      []injection
	failsLeft atomic.Int64
	delayNs   atomic.Int64
	stalled   atomic.Bool
}

// newInjector filters a parsed script down to one worker.
func newInjector(injs []injection, worker int) *injector {
	in := &injector{}
	for i := range injs {
		inj := injs[i]
		if inj.Worker != worker {
			continue
		}
		switch inj.Kind {
		case injKill:
			in.kill = &inj
		case injStall:
			in.stall = &inj
		case injFlakyWrite:
			in.flaky = append(in.flaky, inj)
		case injSlowWrite:
			in.slow = append(in.slow, inj)
		}
	}
	return in
}

// errInjected marks a SWIFI-injected write failure; it wraps ENOSPC so
// the shared transient classifier retries it like the real thing.
var errInjected = fmt.Errorf("swifi: injected write failure: %w", syscall.ENOSPC)

// atLevel arms/fires the injections scheduled for a level; called when
// the worker receives that level's Expand. exit is the kill primitive
// (os.Exit in a subprocess, connection teardown in-process).
func (in *injector) atLevel(level int32, exit func(code int)) {
	if in == nil {
		return
	}
	if in.kill != nil && in.kill.Level == level {
		exit(137)
	}
	if in.stall != nil && in.stall.Level == level {
		d := in.stall.For
		in.stall = nil
		// A stalled process sends nothing — the heartbeat goroutine
		// checks this flag — and computes nothing: exactly the fault the
		// deadline detector exists for.
		in.stalled.Store(true)
		time.Sleep(d)
		in.stalled.Store(false)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	rest := in.flaky[:0]
	for _, f := range in.flaky {
		if f.Level == level {
			in.failsLeft.Add(int64(f.Fails))
		} else {
			rest = append(rest, f)
		}
	}
	in.flaky = rest
	for _, s := range in.slow {
		if s.Level == level {
			in.delayNs.Store(int64(s.Delay))
		}
	}
}

// levelDone disarms slow-write injections when their level seals.
func (in *injector) levelDone(level int32) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	rest := in.slow[:0]
	cleared := false
	for _, s := range in.slow {
		if s.Level == level {
			cleared = true
		} else {
			rest = append(rest, s)
		}
	}
	in.slow = rest
	if cleared {
		in.delayNs.Store(0)
	}
}

// beforeWrite is consulted on every protocol write: it may delay
// (slowwrite) and may return an injected transient error (flakywrite)
// that the caller's bounded-backoff retry then has to absorb.
func (in *injector) beforeWrite() error {
	if in == nil {
		return nil
	}
	if d := in.delayNs.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	for {
		n := in.failsLeft.Load()
		if n <= 0 {
			return nil
		}
		if in.failsLeft.CompareAndSwap(n, n-1) {
			return errInjected
		}
	}
}

// heartbeatPaused reports whether a stall injection is active.
func (in *injector) heartbeatPaused() bool {
	return in != nil && in.stalled.Load()
}
