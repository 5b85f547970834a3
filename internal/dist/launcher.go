package dist

// Launchers: how the coordinator brings worker processes to life.
//
// ProcLauncher is the production path — it re-executes the current
// binary with the hidden worker flag, wiring stdin/stdout as the
// protocol stream and stderr to a per-process log file (the CI
// crash-injection job uploads those on failure). pipeLauncher runs
// workers as in-process goroutines over net.Pipe — same code, same
// protocol bytes — for tests and benchmarks that must not fork.

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
)

// Launcher starts and kills worker transports. Start is called once per
// worker index and fleet generation (a recovery starts every index
// again, one generation on); Kill terminates the current process of
// index, reaping what there is to reap; Close tears down everything
// still running.
type Launcher interface {
	Start(index, generation int) (io.ReadWriteCloser, error)
	Kill(index int)
	Close()
}

// ProcLauncher spawns each worker as a subprocess of Binary with Args
// plus the hidden worker flag.
type ProcLauncher struct {
	// Binary is the worker executable; empty means os.Executable().
	Binary string
	// Args precede the worker flag; WorkerFlag defaults to
	// "-dist-worker".
	Args       []string
	WorkerFlag string
	// LogDir receives worker-{index}-{generation}.log stderr captures;
	// empty discards stderr.
	LogDir string

	mu    sync.Mutex
	procs map[int]*exec.Cmd
}

// procConn is a subprocess's stdio as one ReadWriteCloser.
type procConn struct {
	io.WriteCloser // the child's stdin
	io.ReadCloser  // the child's stdout
}

func (c procConn) Close() error {
	c.WriteCloser.Close()
	return c.ReadCloser.Close()
}

func (l *ProcLauncher) Start(index, generation int) (io.ReadWriteCloser, error) {
	bin := l.Binary
	if bin == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("dist: locating worker binary: %w", err)
		}
		bin = exe
	}
	flag := l.WorkerFlag
	if flag == "" {
		flag = "-dist-worker"
	}
	cmd := exec.Command(bin, append(append([]string{}, l.Args...), flag)...)
	if l.LogDir != "" {
		logPath := filepath.Join(l.LogDir, fmt.Sprintf("worker-%d-%d.log", index, generation))
		logFile, err := os.Create(logPath)
		if err != nil {
			return nil, fmt.Errorf("dist: worker log: %w", err)
		}
		cmd.Stderr = logFile
		// The child holds its own descriptor after Start; ours closes
		// when the process is reaped via cmd.Wait below.
		defer logFile.Close()
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	// Not cmd.StdoutPipe: Wait closes that pipe once the child exits,
	// and the reaper below could then drop frames the child wrote just
	// before exiting that the coordinator has not read yet. This read end
	// is ours alone, so the coordinator reads up to the child's EOF.
	stdout, childOut, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = childOut
	err = cmd.Start()
	childOut.Close()
	if err != nil {
		stdout.Close()
		return nil, fmt.Errorf("dist: starting worker %d: %w", index, err)
	}
	l.mu.Lock()
	if l.procs == nil {
		l.procs = make(map[int]*exec.Cmd)
	}
	l.procs[index] = cmd
	l.mu.Unlock()
	// Reap asynchronously so a crashed worker never lingers as a zombie;
	// the coordinator learns of the death through the pipe EOF.
	go cmd.Wait()
	return procConn{WriteCloser: stdin, ReadCloser: stdout}, nil
}

func (l *ProcLauncher) Kill(index int) {
	l.mu.Lock()
	cmd := l.procs[index]
	delete(l.procs, index)
	l.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		cmd.Process.Kill()
	}
}

func (l *ProcLauncher) Close() {
	l.mu.Lock()
	procs := l.procs
	l.procs = nil
	l.mu.Unlock()
	for _, cmd := range procs {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
}

// pipeLauncher runs workers as goroutines over net.Pipe. Used by tests,
// benchmarks and single-binary embedding; the protocol bytes are
// identical to the subprocess path.
type pipeLauncher struct {
	hub   *meshHub // in-process worker↔worker mesh shared by this run's workers
	mu    sync.Mutex
	conns map[int]net.Conn // coordinator-side ends, for Kill
}

func newPipeLauncher() *pipeLauncher {
	return &pipeLauncher{hub: newMeshHub(), conns: make(map[int]net.Conn)}
}

// NewPipeLauncher returns a Launcher that runs workers as in-process
// goroutines over net.Pipe — the single-binary embedding of the
// distributed protocol, used by benchmarks and tests that must not
// fork. One launcher serves one coordinator run.
func NewPipeLauncher() Launcher { return newPipeLauncher() }

func (l *pipeLauncher) Start(index, generation int) (io.ReadWriteCloser, error) {
	coordEnd, workerEnd := net.Pipe()
	l.mu.Lock()
	l.conns[index] = coordEnd
	l.mu.Unlock()
	go func() {
		// A goroutine "process": kill injection closes the conn and
		// unwinds via Goexit — the closest in-process analogue of
		// os.Exit, observable coordinator-side as the same EOF a dead
		// subprocess produces.
		exit := func(code int) {
			workerEnd.Close()
			runtime.Goexit()
		}
		RunWorker(workerEnd, WorkerOptions{Exit: exit, Mesh: l.hub})
		workerEnd.Close()
	}()
	return coordEnd, nil
}

func (l *pipeLauncher) Kill(index int) {
	l.mu.Lock()
	conn := l.conns[index]
	delete(l.conns, index)
	l.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

func (l *pipeLauncher) Close() {
	l.mu.Lock()
	conns := l.conns
	l.conns = make(map[int]net.Conn)
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}
