package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemonFlags are the tilingd flags a workload runs with beside
// -state-dir: the README deployment, listening on a free loopback port,
// with the workload's journal sync mode. Everything else is left at its
// default.
func daemonFlags(w workload) []string {
	return []string{"-addr", "127.0.0.1:0", "-journal-sync", w.journalSync}
}

// daemon is one running tilingd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	// stderr collects the daemon's log; read by one goroutine until EOF.
	mu      sync.Mutex
	stderr  bytes.Buffer
	drained chan struct{}
}

// startDaemon execs tilingd on stateDir and returns once it has printed
// its listen address.
func startDaemon(bin string, w workload, stateDir string) (*daemon, error) {
	cmd := exec.Command(bin, append(daemonFlags(w), "-state-dir", stateDir)...)
	// The daemon must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start tilingd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addr <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, pipe)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.drained:
	case <-time.After(30 * time.Second):
	}
	d.kill()
	return nil, fmt.Errorf("tilingd printed no listen address: %s", d.log())
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy(c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("tilingd never became healthy: %s", d.log())
}

// counters reads the daemon's tilingd.* expvar counters.
func (d *daemon) counters(c *http.Client) (map[string]int64, error) {
	resp, err := c.Get(d.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var vars struct {
		Tilingd map[string]int64 `json:"tilingd"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return vars.Tilingd, nil
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// stop drains the daemon with SIGTERM and waits for it to exit; a daemon
// that has not exited within a minute is killed. A non-zero exit is an
// error, except death by the SIGTERM itself: tilingd installs its signal
// handler only after it starts serving, so a SIGTERM sent right after the
// first /healthz answer can arrive before the handler exists.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	// The log pipe reaches EOF when the process exits; Wait may only be
	// called after that.
	var err error
	select {
	case <-d.drained:
	case <-time.After(time.Minute):
		_ = d.cmd.Process.Kill()
		<-d.drained
		err = fmt.Errorf("tilingd did not drain within a minute")
	}
	if werr := d.cmd.Wait(); err == nil && !killedBy(werr, syscall.SIGTERM) {
		err = werr
	}
	if err != nil {
		return fmt.Errorf("tilingd exit: %v: %s", err, d.log())
	}
	return nil
}

// killedBy reports whether a Wait error is death by signal sig.
func killedBy(err error, sig syscall.Signal) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == sig
}

// kill ends the daemon without a drain (error paths only).
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.drained
	_ = d.cmd.Wait()
}
