package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func inverse(p []int) []int {
	s := make([]int, len(p))
	for i, d := range p {
		s[d] = i
	}
	return s
}

func TestVerifyRejectsCorruptedReply(t *testing.T) {
	p := []int{2, 0, 3, 1}
	good := inverse(p)
	if err := verify(p, good); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	for name, sources := range map[string][]int{
		"swapped":      {good[1], good[0], good[2], good[3]},
		"duplicate":    {good[0], good[0], good[2], good[3]},
		"out of range": {good[0], good[1], good[2], 4},
		"negative":     {-1, good[1], good[2], good[3]},
		"short":        good[:3],
	} {
		if err := verify(p, sources); !errors.Is(err, errMisrouted) {
			t.Errorf("%s reply %v: got %v, want errMisrouted", name, sources, err)
		}
	}
}

// fakeServer speaks bnbserve's binary protocol on a loopback port: opcode 1
// answers the port count, opcode 2 answers with reply(p), a status byte and
// the sources it returns (none unless the status is 0). It serves one
// connection and closes done when the client hangs up.
func fakeServer(t *testing.T, inputs int, reply func(p []int) (byte, []int)) (addr string, done chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	done = make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var op [1]byte
		for {
			if _, err := io.ReadFull(conn, op[:]); err != nil {
				return // client hung up
			}
			if op[0] == 1 {
				var resp [9]byte
				binary.BigEndian.PutUint32(resp[1:5], uint32(inputs))
				if _, err := conn.Write(resp[:]); err != nil {
					return
				}
				continue
			}
			var head [4]byte
			if _, err := io.ReadFull(conn, head[:]); err != nil {
				return
			}
			raw := make([]byte, 4*binary.BigEndian.Uint32(head[:]))
			if _, err := io.ReadFull(conn, raw); err != nil {
				return
			}
			p := make([]int, len(raw)/4)
			for i := range p {
				p[i] = int(binary.BigEndian.Uint32(raw[4*i:]))
			}
			status, s := reply(p)
			resp := make([]byte, 1+4*len(s))
			resp[0] = status
			for j, v := range s {
				binary.BigEndian.PutUint32(resp[1+4*j:], uint32(v))
			}
			if _, err := conn.Write(resp); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), done
}

// TestLoopCountsCorruptedReplies drives the closed loop against a fake
// server whose replies swap two outputs: every request must count as failed
// and misrouted, and none as a latency sample.
func TestLoopCountsCorruptedReplies(t *testing.T) {
	addr, done := fakeServer(t, 8, func(p []int) (byte, []int) {
		s := inverse(p)
		s[0], s[1] = s[1], s[0]
		return 0, s
	})
	c, err := dialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	tl := loop(c, newStream(1, nil), 8, time.Now().Add(50*time.Millisecond))
	c.close()
	<-done
	if tl.attempted == 0 || tl.failed != tl.attempted || tl.misrouted != tl.attempted || len(tl.lat) != 0 {
		t.Fatalf("attempted %d failed %d misrouted %d samples %d; want every request failed as misrouted",
			tl.attempted, tl.failed, tl.misrouted, len(tl.lat))
	}
}

// TestLoopRetriesSizeMismatch answers every other route with the
// stale-membership status: the loop must refetch the port count and retry,
// counting a retry per request and no failure, and time each request once.
func TestLoopRetriesSizeMismatch(t *testing.T) {
	stale := false
	addr, done := fakeServer(t, 8, func(p []int) (byte, []int) {
		stale = !stale
		if stale {
			return 1, nil
		}
		return 0, inverse(p)
	})
	c, err := dialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	tl := loop(c, newStream(1, nil), 8, time.Now().Add(50*time.Millisecond))
	c.close()
	<-done
	if tl.attempted == 0 || tl.failed != 0 || tl.retries != tl.attempted || int64(len(tl.lat)) != tl.attempted {
		t.Fatalf("attempted %d failed %d retries %d samples %d; want one retry and one sample per request, no failure",
			tl.attempted, tl.failed, tl.retries, len(tl.lat))
	}
}

// layerSumTolerance is how far the sum of the traced replay's decompose,
// exchange and shard-wait medians may sit from the median of the same
// stream routed through an untraced stack and timed around Route alone. The
// seams cover the route only if the parts add up to what an independent
// measurement sees; the tolerance allows for the tracing overhead and for
// medians of skewed parts, which need not add up exactly.
const layerSumTolerance = 0.25

func TestTracedLayersSumToRoute(t *testing.T) {
	wl, _ := findWorkload("fresh-m7") // m=7 shards build without fault dictionaries
	plain, err := newStack(wl, false)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.close()
	traced, err := newStack(wl, true)
	if err != nil {
		t.Fatal(err)
	}
	defer traced.close()
	n := wl.shards << uint(wl.m)
	lt, err := replayStream(plain, traced, newStream(1, nil), n, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(lt.route) == 0 || len(lt.untraced) == 0 {
		t.Fatal("no routes replayed")
	}
	for i := range lt.route {
		d, x, w := lt.decompose[i], lt.exchange[i], lt.shardWait[i]
		if d < 0 || x < 0 || w <= 0 {
			t.Fatalf("route %d: decompose %v exchange %v shard wait %v; want the seams in order", i, d, x, w)
		}
	}
	sum := p50(lt.decompose) + p50(lt.exchange) + p50(lt.shardWait)
	r := sum / p50(lt.untraced)
	t.Logf("parts sum to %.1fus, untraced route median %.1fus (ratio %.3f)", sum, p50(lt.untraced), r)
	if r < 1-layerSumTolerance || r > 1+layerSumTolerance {
		t.Fatalf("decompose+exchange+shard_wait medians sum to %.1fus, %.3f of the untraced route median %.1fus; want within %.0f%%",
			sum, r, p50(lt.untraced), 100*layerSumTolerance)
	}
}

type specMetric struct {
	Name, Unit string
}

// TestSmokeEveryWorkload runs every workload briefly against a freshly
// built bnbserve, untraced and traced, and checks each result is correct
// and names exactly the metrics BENCHMARK.json lists, with their units.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("launches bnbserve for every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []specMetric `json:"end_to_end"`
		PerLayer  []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "bnbserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/bnbserve").CombinedOutput(); err != nil {
		t.Fatalf("build bnbserve: %v\n%s", err, out)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, bnbperf has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		wl, ok := findWorkload(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			res, nt, err := run(runConfig{server: bin, wl: wl, seed: 7, window: time.Second, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct %v attempted %d failed %d; checks %v",
					wl.name, traced, res.Correct, res.Attempted, res.Failed, nt.Checks)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", wl.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", wl.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}
