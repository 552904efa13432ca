package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"

	bnbnet "repro"
)

// TestHTTPSlowHeaderCutOff opens a connection that dribbles its request
// headers one byte at a time and never finishes them (slowloris). The
// server must close it once httpReadHeaderTimeout has passed, while a
// well-behaved client on another connection keeps routing correctly.
func TestHTTPSlowHeaderCutOff(t *testing.T) {
	s := startTestServer(t, config{m: 3, shards: 2})
	base := "http://" + s.HTTPAddr()

	slow, err := net.Dial("tcp", s.HTTPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "GET /v1/info HTTP/1.1\r\nHost: bnbserve\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	stopDribble := make(chan struct{})
	defer close(stopDribble)
	go func() {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopDribble:
				return
			case <-tick.C:
				if _, err := slow.Write([]byte{'a'}); err != nil {
					return // the server hung up
				}
			}
		}
	}()
	cut := make(chan error, 1)
	go func() {
		slow.SetReadDeadline(time.Now().Add(httpReadHeaderTimeout + 5*time.Second))
		_, err := io.ReadAll(slow)
		cut <- err
	}()

	// The well-behaved client routes while the slow one is held open.
	rng := rand.New(rand.NewSource(11))
	info := getInfo(t, base)
	for i := 0; i < 5; i++ {
		p := bnbnet.RandomPerm(info.Inputs, rng)
		status, rr, err := postRoute(base, p)
		if err != nil || status != http.StatusOK {
			t.Fatalf("route %d beside a slow-header client: status %d err %v", i, status, err)
		}
		if err := checkDelivery(p, rr.Sources); err != nil {
			t.Fatal(err)
		}
	}

	// The server's hang-up reads as EOF, or as a reset when it closed with
	// dribbled bytes unread; only our own read deadline means it never did.
	if err := <-cut; err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("slow-header connection was not closed by the server: %v", err)
		}
	}
	if took := time.Since(start); took < httpReadHeaderTimeout/2 {
		t.Fatalf("slow-header connection closed after %v, before the %v header timeout", took, httpReadHeaderTimeout)
	}
}

// TestStatsCountInlineServes routes through an otherwise idle server and
// reads /v1/stats: the shard requests were served on the connection's
// goroutine, and the served counters account for every shard request.
func TestStatsCountInlineServes(t *testing.T) {
	s := startTestServer(t, config{m: 3, shards: 2})
	base := "http://" + s.HTTPAddr()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		p := bnbnet.RandomPerm(s.cluster.Inputs(), rng)
		status, rr, err := postRoute(base, p)
		if err != nil || status != http.StatusOK {
			t.Fatalf("route %d: status %d err %v", i, status, err)
		}
		if err := checkDelivery(p, rr.Sources); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st bnbnet.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	m := st.Metrics
	if m == nil {
		t.Fatal("/v1/stats carries no metrics snapshot")
	}
	if m.InlineServes == 0 {
		t.Errorf("no shard request was served inline on an idle server: %+v", *m)
	}
	if got := m.BatchedRequests + m.StolenRequests + m.InlineServes; got != m.Routes {
		t.Errorf("batched %d + stolen %d + inline %d = %d, want routes = %d",
			m.BatchedRequests, m.StolenRequests, m.InlineServes, got, m.Routes)
	}
}

// FuzzTCPFrame drives the binary TCP front over an in-memory connection
// with arbitrary bytes. The server must not panic, must allocate a bounded
// amount however large the frames it is offered claim to be, and must
// answer exactly the frames the stream completes, each response starting
// with a defined status byte; a routed frame must deliver word for word.
func FuzzTCPFrame(f *testing.F) {
	c, err := bnbnet.NewCluster("bnb", 2, bnbnet.WithShards(2))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { c.Close() })
	s := &server{cluster: c}
	inputs := c.Inputs()

	frame := func(dests ...int) []byte {
		b := []byte{opRoute, 0, 0, 0, 0}
		binary.BigEndian.PutUint32(b[1:], uint32(len(dests)))
		for _, d := range dests {
			b = binary.BigEndian.AppendUint32(b, uint32(d))
		}
		return b
	}
	perm := bnbnet.RandomPerm(inputs, rand.New(rand.NewSource(1)))
	f.Add([]byte{opInfo})
	f.Add(frame(perm...))
	f.Add(append(frame(perm...), append([]byte{opInfo}, frame(perm...)...)...))
	f.Add(frame(make([]int, inputs)...))  // not a permutation
	f.Add(frame(1, 0))                    // smaller than the fabric
	f.Add([]byte{opRoute, 0, 0, 0, 0})    // empty frame
	f.Add([]byte{opRoute, 0, 0x10, 0, 0}) // announces 2^20 ports, sends none
	f.Add([]byte{opRoute, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		srv, cli := net.Pipe()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		served := make(chan struct{})
		go func() {
			defer close(served)
			defer srv.Close()
			s.serveTCPConn(srv)
		}()
		go func() {
			cli.Write(data) // fails early only when the server hangs up
			// Every byte has reached the server; stop it once it has
			// answered what they hold, as a client hanging up would.
			srv.SetReadDeadline(time.Now())
		}()
		resp, err := io.ReadAll(cli)
		<-served
		cli.Close()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("reading responses: %v", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+512*uint64(len(data)) {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), grew)
		}
		checkTCPResponses(t, data, resp, inputs)
	})
}

// checkTCPResponses walks the request stream and the response stream in
// step: every complete frame gets exactly one response with a defined
// status, and the server answers nothing after a frame that ends the
// connection or is cut short.
func checkTCPResponses(t *testing.T, data, resp []byte, inputs int) {
	t.Helper()
	status := func(allowed ...byte) byte {
		t.Helper()
		if len(resp) == 0 {
			t.Fatalf("no response to a complete frame; allowed statuses %v", allowed)
		}
		st := resp[0]
		if bytes.IndexByte(allowed, st) < 0 {
			t.Fatalf("status %d, want one of %v", st, allowed)
		}
		resp = resp[1:]
		return st
	}
	for len(data) > 0 {
		op := data[0]
		data = data[1:]
		switch op {
		case opInfo:
			status(tcpOK)
			if len(resp) < 8 || int(binary.BigEndian.Uint32(resp)) != inputs {
				t.Fatalf("info response %v, want %d inputs", resp, inputs)
			}
			resp = resp[8:]
		case opRoute:
			if len(data) < 4 {
				data = nil
				break
			}
			n := int(binary.BigEndian.Uint32(data))
			data = data[4:]
			if n == 0 || n > maxTCPPerm {
				status(tcpBadRequest)
				data = nil
				break
			}
			if len(data) < 4*n {
				data = nil
				break
			}
			payload := data[:4*n]
			data = data[4*n:]
			if n != inputs {
				status(tcpBadSize)
				break
			}
			p := make([]int, n)
			for i := range p {
				p[i] = int(binary.BigEndian.Uint32(payload[4*i:]))
			}
			if status(tcpOK, tcpNotPerm) == tcpNotPerm {
				if isPerm(p) {
					t.Fatalf("permutation %v rejected as not a permutation", p)
				}
				break
			}
			if len(resp) < 4*n {
				t.Fatalf("route response carries %d bytes, want %d", len(resp), 4*n)
			}
			sources := make([]int, n)
			for j := range sources {
				sources[j] = int(binary.BigEndian.Uint32(resp[4*j:]))
			}
			resp = resp[4*n:]
			if err := checkDelivery(p, sources); err != nil {
				t.Fatal(err)
			}
		default:
			status(tcpBadRequest)
			data = nil
		}
	}
	if len(resp) != 0 {
		t.Fatalf("%d response bytes answer no frame", len(resp))
	}
}

func isPerm(p []int) bool {
	seen := make([]bool, len(p))
	for _, d := range p {
		if d < 0 || d >= len(p) || seen[d] {
			return false
		}
		seen[d] = true
	}
	return true
}
