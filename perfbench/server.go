package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// server is one ftserve child process on loopback.
type server struct {
	cmd  *exec.Cmd
	addr string // 127.0.0.1:PORT
	// setup is the time from exec until the first /readyz 200.
	setup  time.Duration
	exited chan error
	log    *os.File
	// started is when ftserve was exec'd.
	started time.Time
	// lastGC is the start of the newest garbage collection ftserve has
	// finished, in nanoseconds since exec (from the runtime's gctrace), or
	// -1 before the first.
	lastGC atomic.Int64
}

// bootServer execs ftserve with args plus a loopback listen address and
// waits until /readyz answers 200. The child's output goes to logPath.
//
// ftserve runs with GODEBUG=gctrace=1, which only makes its runtime print
// one line to standard error per finished collection; the warm-up reads
// those lines to find ftserve's first collection after ready.
func bootServer(ftserve, logPath string, args []string, timeout time.Duration) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(ftserve, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = withGCTrace(os.Environ())
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start ftserve: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan error, 1), log: logf, started: start}
	s.lastGC.Store(-1)
	addrc := make(chan string, 1)
	// The stderr copier logs everything and notes each finished collection.
	stderrDone := make(chan struct{})
	go func() {
		defer close(stderrDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if at, ok := parseGCTrace(line); ok {
				s.lastGC.Store(int64(at))
			}
		}
		io.Copy(logf, stderr) // a line too long to scan: keep draining
	}()
	// The stdout copier owns stdout until the child exits: it reports the
	// bound address from ftserve's "listening on" line and logs
	// everything. It waits for the child once both pipes are drained.
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if rest, ok := strings.CutPrefix(line, "ftserve: listening on "); ok {
				addrc <- rest
			}
		}
		<-stderrDone
		s.exited <- cmd.Wait()
	}()
	deadline := time.After(timeout)
	select {
	case s.addr = <-addrc:
	case err := <-s.exited:
		s.exited <- err
		s.stop()
		return nil, fmt.Errorf("ftserve exited before listening: %v (log %s)", err, logPath)
	case <-deadline:
		s.stop()
		return nil, fmt.Errorf("ftserve did not listen within %s", timeout)
	}
	probe := newConn(s.addr)
	defer func() {
		if probe.c != nil {
			probe.close()
		}
	}()
	var buf bytes.Buffer
	for {
		if status, err := probe.do(request{path: "/readyz"}, &buf); err == nil && status == http.StatusOK {
			s.setup = time.Since(start)
			return s, nil
		}
		select {
		case err := <-s.exited:
			s.exited <- err
			s.stop()
			return nil, fmt.Errorf("ftserve exited while booting: %v (log %s)", err, logPath)
		case <-deadline:
			s.stop()
			return nil, fmt.Errorf("ftserve not ready within %s", timeout)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// withGCTrace returns env with gctrace=1 added to GODEBUG.
func withGCTrace(env []string) []string {
	out := make([]string, 0, len(env)+1)
	godebug := "gctrace=1"
	for _, kv := range env {
		if v, ok := strings.CutPrefix(kv, "GODEBUG="); ok {
			if v != "" {
				godebug = v + ",gctrace=1"
			}
			continue
		}
		out = append(out, kv)
	}
	return append(out, "GODEBUG="+godebug)
}

// parseGCTrace reads the start of a collection, as time since the program
// started, from a gctrace line ("gc 14 @10.632s 1%: ...").
func parseGCTrace(line string) (time.Duration, bool) {
	rest, ok := strings.CutPrefix(line, "gc ")
	if !ok {
		return 0, false
	}
	_, rest, ok = strings.Cut(rest, " @")
	if !ok {
		return 0, false
	}
	secs, _, ok := strings.Cut(rest, "s ")
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(secs, 64)
	if err != nil {
		return 0, false
	}
	return time.Duration(v * float64(time.Second)), true
}

// collectedSinceReady reports whether ftserve has finished a collection
// that started after it became ready, and how long ago that collection
// started. The runtime's clock starts at exec, so its offsets compare
// with setup.
func (s *server) collectedSinceReady() (time.Duration, bool) {
	at := time.Duration(s.lastGC.Load())
	if at <= s.setup {
		return 0, false
	}
	return time.Since(s.started) - at, true
}

// stop sends SIGTERM (ftserve drains and exits cleanly), escalates to
// SIGKILL after a grace period, and waits for the process to end.
func (s *server) stop() error {
	defer s.log.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited: Wait below reports it
	select {
	case err := <-s.exited:
		s.exited <- err
		return err
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		err := <-s.exited
		s.exited <- err
		return fmt.Errorf("ftserve ignored SIGTERM: %v", err)
	}
}

// peakRSSMB reads the child's VmHWM (peak resident set) from /proc.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// get fetches path from the server over c and returns the body.
func get(c *conn, path string) ([]byte, error) {
	var buf bytes.Buffer
	status, err := c.do(request{path: path}, &buf)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, status, buf.Bytes())
	}
	return buf.Bytes(), nil
}

// serverStats is the part of /stats the benchmark reads.
type serverStats struct {
	N        int `json:"n"`
	M        int `json:"m"`
	SpannerM int `json:"spanner_m"`
}

func (s *server) stats(c *conn) (serverStats, error) {
	var st serverStats
	body, err := get(c, "/stats")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("decode /stats: %w", err)
	}
	return st, nil
}

func (s *server) metrics(c *conn) (promSample, error) {
	body, err := get(c, "/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(string(body))
}

// cpuTicks reads the machine's total and stolen CPU ticks from /proc/stat;
// on a virtual machine the stolen share of a window says how much of it
// the host gave to someone else.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
