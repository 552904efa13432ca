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
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one launched bnbserve process.
type server struct {
	cmd      *exec.Cmd
	stdout   chan struct{} // closed once the stdout drain has hit EOF
	httpAddr string
	tcpAddr  string
	setup    time.Duration // process start to the first good /v1/info
	admin    *http.Client
}

// serverGOMAXPROCS is the GOMAXPROCS the server runs with: the inherited
// setting when there is one, else the CPUs this process may run on (what
// the Go runtime would pick by default), passed explicitly so the recorded
// value is the one in force.
func serverGOMAXPROCS() string {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return v
	}
	return strconv.Itoa(runtime.NumCPU())
}

// startServer launches bnbserve on ephemeral loopback ports and returns
// once /v1/info answers with the expected port count. The setup time runs
// from just before the process starts to that first good reply.
func startServer(bin string, wl workload) (*server, error) {
	cmd := exec.Command(bin,
		"-m", strconv.Itoa(wl.m), "-shards", strconv.Itoa(wl.shards),
		"-http", "127.0.0.1:0", "-tcp", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+serverGOMAXPROCS())
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{
		cmd:    cmd,
		stdout: make(chan struct{}),
		admin:  &http.Client{Transport: &http.Transport{}, Timeout: 60 * time.Second},
	}
	sc := bufio.NewScanner(out)
	for s.tcpAddr == "" && sc.Scan() {
		line := sc.Text()
		if a, ok := strings.CutPrefix(line, "bnbserve: http on "); ok {
			s.httpAddr = a
		}
		if a, ok := strings.CutPrefix(line, "bnbserve: tcp on "); ok {
			s.tcpAddr = a
		}
	}
	go func() {
		defer close(s.stdout)
		_, _ = io.Copy(io.Discard, out) // keeps the server's log writes from blocking
	}()
	if s.httpAddr == "" || s.tcpAddr == "" {
		s.stop()
		return nil, fmt.Errorf("bnbserve exited before announcing its listen addresses")
	}
	inputs, err := s.info()
	if err != nil {
		s.stop()
		return nil, err
	}
	s.setup = time.Since(start)
	if want := wl.shards << uint(wl.m); inputs != want {
		s.stop()
		return nil, fmt.Errorf("bnbserve reports %d inputs, want %d", inputs, want)
	}
	return s, nil
}

// stop sends SIGTERM (bnbserve drains gracefully), escalates to SIGKILL if
// the process has not exited in 20s, and waits for it either way.
func (s *server) stop() {
	s.admin.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.stdout:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.stdout
	}
	_ = s.cmd.Wait() // the exit status of a drained or killed server is not a result
}

func (s *server) url(path string) string { return "http://" + s.httpAddr + path }

// info fetches /v1/info and returns the current aggregate port count.
func (s *server) info() (int, error) {
	var doc struct {
		Inputs int `json:"inputs"`
	}
	if err := s.getJSON("/v1/info", &doc); err != nil {
		return 0, err
	}
	return doc.Inputs, nil
}

// counters is the subset of the server's /v1/stats metrics snapshot the
// per-layer ratios are derived from. The sink is shared by every shard's
// engine, so it counts shard requests, and it survives membership changes.
type counters struct {
	Routes, Errors, Sheds, Failovers, Hedges                    int64
	PlanHits, PlanMisses, PlanEvictions, PlanCompiles           int64
	BatchDequeues, BatchedRequests, StolenRequests, WorkerParks int64
}

func (c counters) sub(o counters) counters {
	return counters{
		Routes: c.Routes - o.Routes, Errors: c.Errors - o.Errors, Sheds: c.Sheds - o.Sheds,
		Failovers: c.Failovers - o.Failovers, Hedges: c.Hedges - o.Hedges,
		PlanHits: c.PlanHits - o.PlanHits, PlanMisses: c.PlanMisses - o.PlanMisses,
		PlanEvictions: c.PlanEvictions - o.PlanEvictions, PlanCompiles: c.PlanCompiles - o.PlanCompiles,
		BatchDequeues: c.BatchDequeues - o.BatchDequeues, BatchedRequests: c.BatchedRequests - o.BatchedRequests,
		StolenRequests: c.StolenRequests - o.StolenRequests, WorkerParks: c.WorkerParks - o.WorkerParks,
	}
}

func (s *server) counters() (counters, error) {
	var doc struct{ Metrics *counters }
	if err := s.getJSON("/v1/stats", &doc); err != nil {
		return counters{}, err
	}
	if doc.Metrics == nil {
		return counters{}, fmt.Errorf("/v1/stats carries no metrics snapshot")
	}
	return *doc.Metrics, nil
}

func (s *server) getJSON(path string, v any) error {
	resp, err := s.admin.Get(s.url(path))
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// membership posts /admin/shards/add or /admin/shards/remove and returns
// how long the server took to answer.
func (s *server) membership(op string) (time.Duration, error) {
	start := time.Now()
	resp, err := s.admin.Post(s.url("/admin/shards/"+op), "application/json", nil)
	if err != nil {
		return 0, fmt.Errorf("shard %s: %w", op, err)
	}
	body, _ := io.ReadAll(resp.Body) // the status decides; the body only explains it
	resp.Body.Close()
	took := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("shard %s: status %s: %s", op, resp.Status, bytes.TrimSpace(body))
	}
	return took, nil
}

// cpuTicks returns the server's utime+stime in clock ticks (USER_HZ, 100
// per second on Linux) from /proc/<pid>/stat.
func (s *server) cpuTicks() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times %q %q", f[11], f[12])
	}
	return ut + st, nil
}

const ticksPerSecond = 100

// peakRSSMB returns the server's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
