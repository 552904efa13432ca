package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/neterr"
	"repro/internal/perm"
)

// This file tests the caller-runs path, SubmitOrServe: a submitter that
// finds the engine idle borrows a parked worker's turn and serves its own
// request. Each test fails against a naive version that always serves on
// the caller: that version exceeds the worker bound, overtakes queued
// work, and lets Drain and Close return under a running request.

// waitIdlers blocks until k workers are registered on the idler stack.
func waitIdlers(t *testing.T, e *Engine, k int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.idleCount.Load() != k {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers parked after 5s", e.idleCount.Load(), k)
		}
		time.Sleep(time.Millisecond)
	}
}

// holdFirstPark holds the first worker that reaches parkHook (registered
// idle, before its pre-park re-scan) until release is closed; later parks
// pass through. The send blocks, so the hold cannot be missed by a worker
// that gets there before the test starts receiving.
func holdFirstPark(t *testing.T) (parked, release chan struct{}) {
	parked, release = make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	parkHook = func() {
		if held.CompareAndSwap(false, true) {
			parked <- struct{}{}
			<-release
		}
	}
	t.Cleanup(func() { parkHook = nil })
	return parked, release
}

// waitTicket is Ticket.Wait bounded by 5s, so a lost wakeup fails the test
// instead of hanging it.
func waitTicket(t *testing.T, tk *Ticket) ([]core.Word, error) {
	t.Helper()
	type result struct {
		out []core.Word
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := tk.Wait()
		done <- result{out, err}
	}()
	select {
	case r := <-done:
		return r.out, r.err
	case <-time.After(5 * time.Second):
		t.Fatal("ticket did not settle within 5s")
		return nil, nil
	}
}

// tagged returns the identity words of n ports with tag as word 0's
// payload, so a router can tell requests apart.
func tagged(n int, tag uint64) []core.Word {
	src := permWords(perm.Identity(n))
	src[0].Data = tag
	return src
}

// TestSubmitOrServeBoundsConcurrency runs 4×Workers callers through
// SubmitOrServe against a router that records how many routes overlap. The
// engine must never route more than Workers requests at once, and the
// caller-runs path must actually have served some of them.
func TestSubmitOrServeBoundsConcurrency(t *testing.T) {
	const n, workers = 8, 2
	per := 60
	if testing.Short() {
		per = 20
	}
	var cur, peak atomic.Int64
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		c := cur.Add(1)
		for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
		}
		time.Sleep(100 * time.Microsecond) // widen the overlap window
		cur.Add(-1)
		return deliver(dst, src)
	}}
	var m metrics.Metrics
	e, err := New(r, Config{Workers: workers, Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// An idle engine serves on the caller; under the load below, requests
	// also queue whenever both workers are busy.
	waitIdlers(t, e, workers)
	tk, err := e.SubmitOrServe(context.Background(), Standard, nil, tagged(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().InlineServes; got != 1 {
		t.Fatalf("InlineServes = %d on an idle engine, want 1", got)
	}
	var wg sync.WaitGroup
	for c := 0; c < 4*workers; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				p := perm.Random(n, rng)
				tk, err := e.SubmitOrServe(context.Background(), Standard, nil, permWords(p))
				if err != nil {
					t.Error(err)
					return
				}
				out, err := tk.Wait()
				if err != nil {
					t.Error(err)
					return
				}
				for j := range out {
					if out[j].Addr != j {
						t.Errorf("output %d carries address %d", j, out[j].Addr)
						return
					}
				}
			}
		}(int64(c))
	}
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Errorf("%d routes ran at once on a %d-worker engine", got, workers)
	}
}

// TestSubmitOrServeDoesNotOvertakeQueued holds the only worker at its
// pre-park re-scan (registered idle) while a Critical request is queued;
// a later SubmitOrServe of a Standard request must not run ahead of it.
func TestSubmitOrServeDoesNotOvertakeQueued(t *testing.T) {
	const n = 8
	parked, release := holdFirstPark(t)
	var mu sync.Mutex
	var order []uint64
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		mu.Lock()
		order = append(order, src[0].Data)
		mu.Unlock()
		return deliver(dst, src)
	}}
	e, err := New(r, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	<-parked
	critical, err := e.SubmitClass(context.Background(), Critical, nil, tagged(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	standard, err := e.SubmitOrServe(context.Background(), Standard, nil, tagged(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	for _, tk := range []*Ticket{critical, standard} {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("serving order %v, want [1 2]: the caller-run Standard request overtook the queued Critical one", order)
	}
}

// TestSubmitOrServeReclaim lets the only worker leave its park while a
// caller holds its turn: the worker finds queued work on its pre-park
// re-scan, and must wait for the turn to come back instead of routing
// beside the caller. The queued request is served once the caller is done.
func TestSubmitOrServeReclaim(t *testing.T) {
	const n = 8
	parked, release := holdFirstPark(t)
	gate := make(chan struct{})
	entered := make(chan struct{})
	var cur, peak atomic.Int64
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		c := cur.Add(1)
		if c > peak.Load() {
			peak.Store(c)
		}
		if src[0].Data == 1 {
			close(entered)
			<-gate
		}
		cur.Add(-1)
		return deliver(dst, src)
	}}
	e, err := New(r, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	<-parked // registered idle, held before its re-scan
	inline := make(chan *Ticket, 1)
	go func() {
		tk, err := e.SubmitOrServe(context.Background(), Standard, nil, tagged(n, 1))
		if err != nil {
			t.Error(err)
		}
		inline <- tk
	}()
	<-entered // the caller holds the worker's turn, mid-route
	queued, err := e.SubmitOrServe(context.Background(), Standard, nil, tagged(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	close(release) // the worker's re-scan takes the queued request
	for e.shards[0].total() != 0 {
		runtime.Gosched()
	}
	time.Sleep(20 * time.Millisecond)
	if got := cur.Load(); got != 1 {
		t.Fatalf("%d routes running while the caller holds the only worker's turn", got)
	}
	close(gate)
	for _, tk := range []*Ticket{<-inline, queued} {
		if tk == nil {
			t.Fatal("SubmitOrServe returned no ticket")
		}
		if _, err := waitTicket(t, tk); err != nil {
			t.Fatal(err)
		}
	}
	if got := peak.Load(); got > 1 {
		t.Errorf("%d routes ran at once on a 1-worker engine", got)
	}
}

// TestSubmitOrServeDrainCloseRace parks a caller-run request mid-route with
// the deterministic scheduler, queues a second request behind it, and
// starts Drain or Close. Neither may return while the caller-run request is
// routing; once it finishes, both tickets settle, later submissions are
// refused, and no worker outlives the engine. The "reclaim" schedules also
// let the worker find the queued request on its pre-park re-scan, so the
// turn is handed back to it directly.
func TestSubmitOrServeDrainCloseRace(t *testing.T) {
	const n = 8
	runtime.GC()
	baseline := runtime.NumGoroutine()
	stops := []struct {
		name string
		stop func(*Engine) error
		want error
	}{
		{"drain", func(e *Engine) error { return e.Drain(context.Background()) }, neterr.ErrDraining},
		{"close", func(e *Engine) error { return e.Close() }, neterr.ErrClosed},
	}
	for _, reclaim := range []bool{false, true} {
		for _, st := range stops {
			name := st.name
			if reclaim {
				name += "/reclaim"
			}
			t.Run(name, func(t *testing.T) {
				var parked, release chan struct{}
				if reclaim {
					parked, release = holdFirstPark(t)
				}
				r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
					if src[0].Data == 1 {
						check.Yield() // only the scheduled caller's request parks
					}
					return deliver(dst, src)
				}}
				e, err := New(r, Config{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if reclaim {
					<-parked
				} else {
					waitIdlers(t, e, 1)
				}
				var inline, queued *Ticket
				a := check.GoNamed("inline-caller", func(func()) {
					var err error
					if inline, err = e.SubmitOrServe(context.Background(), Standard, nil, tagged(n, 1)); err != nil {
						t.Error(err)
					}
				})
				b := check.GoNamed("queued-caller", func(func()) {
					var err error
					if queued, err = e.SubmitOrServe(context.Background(), Standard, nil, tagged(n, 2)); err != nil {
						t.Error(err)
					}
				})
				a.Step() // a borrowed the only worker's turn and is mid-route
				if got := e.idleCount.Load(); got != 0 {
					t.Errorf("idle workers = %d with the caller mid-route, want 0", got)
				}
				b.Finish() // no parked worker: b enqueues
				if reclaim {
					close(release)
				}
				stopped := make(chan error, 1)
				go func() { stopped <- st.stop(e) }()
				select {
				case err := <-stopped:
					t.Fatalf("%s returned (%v) while a caller-run request was mid-route", st.name, err)
				case <-time.After(30 * time.Millisecond):
				}
				a.Finish()
				select {
				case err := <-stopped:
					if err != nil {
						t.Fatalf("%s: %v", st.name, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s did not return after the caller-run request finished", st.name)
				}
				for i, tk := range []*Ticket{inline, queued} {
					if tk == nil {
						t.Fatalf("ticket %d missing", i)
					}
					out, err := waitTicket(t, tk)
					if err != nil {
						t.Fatalf("ticket %d: %v", i, err)
					}
					if out[0].Data != uint64(i+1) {
						t.Fatalf("ticket %d carries tag %d", i, out[0].Data)
					}
				}
				if _, err := e.SubmitOrServe(context.Background(), Standard, nil, tagged(n, 3)); !errors.Is(err, st.want) {
					t.Fatalf("SubmitOrServe after %s: err = %v, want %v", st.name, err, st.want)
				}
				e.Close()
			})
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline+2 {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines: baseline %d, after the races %d\n%s", baseline, got, buf[:runtime.Stack(buf, true)])
	}
}

// TestSubmitOrServeHonoursContext: a caller-run request whose context is
// already cancelled settles with the context's error without routing.
func TestSubmitOrServeHonoursContext(t *testing.T) {
	const n = 8
	var routed atomic.Int64
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		routed.Add(1)
		return deliver(dst, src)
	}}
	var m metrics.Metrics
	e, err := New(r, Config{Workers: 1, Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	waitIdlers(t, e, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tk, err := e.SubmitOrServe(ctx, Standard, nil, tagged(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait: err = %v, want context.Canceled", err)
	}
	if routed.Load() != 0 {
		t.Fatal("a cancelled request was routed")
	}
	if got := m.Snapshot().InlineServes; got != 1 {
		t.Fatalf("InlineServes = %d, want 1", got)
	}
}

// TestServedAccountingWithInline is the -race stress for the serving
// counters under mixed Submit and SubmitOrServe traffic: every served
// request was taken in a batch, stolen, or served inline, exactly once.
func TestServedAccountingWithInline(t *testing.T) {
	const n, producers = 8, 6
	per := 200
	if testing.Short() {
		per = 50
	}
	r := &funcRouter{n: n, fn: func(dst, src []core.Word) error {
		if src[0].Data%7 == 0 {
			runtime.Gosched()
		}
		return deliver(dst, src)
	}}
	var m metrics.Metrics
	e, err := New(r, Config{Workers: 2, Batch: 4, Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	waitIdlers(t, e, 2)
	tk, err := e.SubmitOrServe(context.Background(), Standard, nil, tagged(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tag := uint64(g*per + i)
				var tk *Ticket
				var err error
				if (g+i)%2 == 0 {
					tk, err = e.Submit(nil, tagged(n, tag))
				} else {
					tk, err = e.SubmitOrServe(context.Background(), Standard, nil, tagged(n, tag))
				}
				if err != nil {
					t.Error(err)
					return
				}
				out, err := tk.Wait()
				if err != nil {
					t.Error(err)
					return
				}
				if out[0].Data != tag {
					t.Errorf("request %d came back carrying %d", tag, out[0].Data)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if want := int64(producers*per + 1); snap.Routes != want {
		t.Fatalf("routes = %d, want %d", snap.Routes, want)
	}
	if got := snap.BatchedRequests + snap.StolenRequests + snap.InlineServes; got != snap.Routes {
		t.Fatalf("batched %d + stolen %d + inline %d = %d, want routes = %d",
			snap.BatchedRequests, snap.StolenRequests, snap.InlineServes, got, snap.Routes)
	}
	if snap.InlineServes == 0 {
		t.Error("no request took the caller-runs path")
	}
}
