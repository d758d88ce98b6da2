package dist

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"
)

// Worker is one registered worker from the coordinator's point of view
// (see AcceptWorker): a name for error context ("proc 2", "hostB:4242")
// and the protocol transport. Once a run admits it, the coordinator owns
// the transport and closes it when the run ends; stream-level workers
// (Serve) treat that close as the shutdown signal.
type Worker struct {
	Name string
	RW   io.ReadWriteCloser
}

// CloseAll closes every worker transport, the cleanup a transport's
// creator owes for workers a run never admitted. Closes are idempotent,
// so overlapping with Run's own cleanup is safe.
func CloseAll(workers []Worker) {
	for _, w := range workers {
		w.RW.Close()
	}
}

// Pipe returns a connected in-process transport pair, the test harness
// for coordinator/worker runs without processes: Serve one end, hand the
// other to the coordinator.
func Pipe() (coord, worker io.ReadWriteCloser) {
	return net.Pipe()
}

// Stdio returns the worker-side transport of a subprocess worker: frames
// arrive on stdin and leave on stdout. A process serving on it must not
// write anything else to stdout (diagnostics belong on stderr).
func Stdio() io.ReadWriteCloser {
	return stdio{}
}

type stdio struct{}

func (stdio) Read(p []byte) (int, error)  { return os.Stdin.Read(p) }
func (stdio) Write(p []byte) (int, error) { return os.Stdout.Write(p) }
func (stdio) Close() error                { return nil }

// killGrace is how long a closing subprocess transport waits for the
// worker to exit on its own after stdin closes before killing it.
const killGrace = 5 * time.Second

// Command starts bin with args as a subprocess worker speaking the
// protocol on its stdin/stdout (the -worker-stdio mode of
// cmd/experiments) and returns the coordinator-side transport, not yet
// registered: pass it through AcceptWorker like any dialed worker. The
// worker's stderr passes through to this process's stderr. Closing the
// transport closes the worker's stdin — its signal to exit — and reaps
// the process, killing it if it outlives the grace period.
func Command(name, bin string, args ...string) (Worker, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return Worker{}, fmt.Errorf("dist: worker %s: %w", name, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return Worker{}, fmt.Errorf("dist: worker %s: %w", name, err)
	}
	if err := cmd.Start(); err != nil {
		return Worker{}, fmt.Errorf("dist: starting worker %s (%s): %w", name, bin, err)
	}
	return Worker{Name: name, RW: &proc{cmd: cmd, in: stdin, out: stdout}}, nil
}

// proc is the coordinator-side transport of a subprocess worker.
type proc struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  io.ReadCloser
	once sync.Once
	err  error
}

func (p *proc) Read(b []byte) (int, error)  { return p.out.Read(b) }
func (p *proc) Write(b []byte) (int, error) { return p.in.Write(b) }

// Close is idempotent: it closes the worker's stdin and waits for the
// process, escalating to a kill after the grace period. Wait also closes
// the stdout pipe, unblocking any reader.
func (p *proc) Close() error {
	p.once.Do(func() {
		p.in.Close()
		timer := time.AfterFunc(killGrace, func() { p.cmd.Process.Kill() })
		p.err = p.cmd.Wait()
		timer.Stop()
	})
	return p.err
}
