package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running cmd/allocserve process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan struct{}
	err    error // Wait's result, valid after exited is closed
}

// daemonArgs are the flags a benchmark daemon serving m runs with: a
// loopback port of the kernel's choosing, m's model and cluster flags,
// then extra.
func daemonArgs(m servedModel, extra ...string) []string {
	args := append([]string{"-listen", "127.0.0.1:0"}, m.args...)
	return append(args, extra...)
}

// startDaemon launches bin, waits for it to announce its address and
// answer /healthz, and logs its standard error to logPath.
func startDaemon(bin, logPath string, args []string) (*daemon, error) {
	if bin == "" {
		return nil, fmt.Errorf("no -daemon binary given")
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	// If the benchmark dies before it can drain the daemon, the kernel
	// kills the daemon too: no run leaves a process behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Drain stderr for the process lifetime so it never blocks on a
		// full pipe; the first "serving on" line carries the address.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if _, rest, ok := strings.Cut(line, "serving on "); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr)
		d.err = cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = a
	case <-d.exited:
		return nil, fmt.Errorf("daemon exited before serving: %v (log %s)", d.err, logPath)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("daemon did not announce its address within 30s (log %s)", logPath)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon /healthz not ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGINT (which also flushes -trace-out)
// and waits for it to exit, killing it after 15s.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return d.err
	default:
	}
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil {
		d.cmd.Process.Kill()
	}
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("daemon did not drain within 15s; killed")
	}
	return d.err
}

// scrape reads /metrics into a map keyed by the full sample name,
// labels included (e.g. serve_queue_wait_ms{quantile="0.5"}).
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// gcPauseTotal reads the daemon's cumulative GC stop-the-world pause
// from the runtime.MemStats that /debug/vars publishes.
func (d *daemon) gcPauseTotal() (time.Duration, error) {
	resp, err := http.Get(d.base + "/debug/vars")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var vars struct {
		MemStats struct {
			PauseTotalNs uint64
		} `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return 0, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	return time.Duration(vars.MemStats.PauseTotalNs), nil
}
