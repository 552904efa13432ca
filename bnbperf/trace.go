package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	bnbnet "repro"
	"repro/internal/cluster"
)

// seams records, for the route in progress, when the coordinator submitted
// its first shard request and when its last shard ticket returned. The
// traced replay has a single caller, and the coordinator submits and waits
// on the caller's goroutine, so no synchronisation is needed.
type seams struct {
	firstSubmit, lastWait time.Time
}

// seamShard is the benchmark's own cluster.Shard over a supervised stack,
// the same one-line adaptation the root package makes, plus seam stamps
// when rec is set.
type seamShard struct {
	s   *bnbnet.Supervised
	rec *seams
}

func (b seamShard) Inputs() int { return b.s.Inputs() }

func (b seamShard) Submit(ctx context.Context, dst, src []bnbnet.Word) (cluster.Pending, error) {
	if b.rec != nil && b.rec.firstSubmit.IsZero() {
		b.rec.firstSubmit = time.Now()
	}
	t, err := b.s.SubmitCtx(ctx, dst, src)
	if err != nil {
		return nil, err
	}
	if b.rec == nil {
		return t, nil
	}
	return seamTicket{t: t, rec: b.rec}, nil
}

type seamTicket struct {
	t   *bnbnet.Ticket
	rec *seams
}

func (p seamTicket) Wait() ([]bnbnet.Word, error) {
	out, err := p.t.Wait()
	p.rec.lastWait = time.Now()
	return out, err
}

// stack is an in-process cluster built from the layers' public
// constructors, configured like bnbserve's (shared metrics sink, default
// planes and plan caches), with one tracer per shard when traced.
type stack struct {
	co      *cluster.Coordinator
	shards  []*bnbnet.Supervised
	tracers []*bnbnet.Tracer
	rec     *seams
}

// tracerCapacity bounds the spans each shard keeps; maxReplay keeps the
// traced requests below it so every request's shard spans survive.
const (
	tracerCapacity = 1 << 15
	maxReplay      = tracerCapacity / 2
)

func newStack(wl workload, traced bool) (*stack, error) {
	st := &stack{}
	if traced {
		st.rec = &seams{}
	}
	sink := bnbnet.NewMetrics()
	backends := make([]cluster.Shard, wl.shards)
	for g := range backends {
		opts := []bnbnet.Option{bnbnet.WithMetrics(sink)}
		if traced {
			tr := bnbnet.NewTracer(tracerCapacity)
			st.tracers = append(st.tracers, tr)
			opts = append(opts, bnbnet.WithTracer(tr))
		}
		sh, err := bnbnet.NewSupervised("bnb", wl.m, opts...)
		if err != nil {
			st.close()
			return nil, err
		}
		st.shards = append(st.shards, sh)
		backends[g] = seamShard{s: sh, rec: st.rec}
	}
	co, err := cluster.New(backends)
	if err != nil {
		st.close()
		return nil, err
	}
	st.co = co
	return st, nil
}

func (st *stack) close() {
	for _, sh := range st.shards {
		sh.Close()
	}
}

func permWords(p []int) []bnbnet.Word {
	w := make([]bnbnet.Word, len(p))
	for i, d := range p {
		w[i] = bnbnet.Word{Addr: d, Data: uint64(i)}
	}
	return w
}

// verifyWords checks a routed word vector: output j holds the word
// addressed to j, sourced at an input p maps to j.
func verifyWords(p []int, out []bnbnet.Word) error {
	sources := make([]int, len(out))
	for j, w := range out {
		if w.Addr != j {
			return fmt.Errorf("%w: output %d holds a word addressed to %d", errMisrouted, j, w.Addr)
		}
		sources[j] = int(w.Data)
	}
	return verify(p, sources)
}

// layerTimes are the traced replay's per-request seam timings, in request
// order.
type layerTimes struct {
	decompose, exchange, shardWait, route []time.Duration
	untraced                              []time.Duration
	assignments                           []*cluster.Assignment
}

// layers is the traced replay's output.
type layers struct {
	metrics map[string]metric
	routes  int64
}

// replay routes the workload's seeded request stream in-process, through
// an untraced stack and a traced one in alternating blocks for the given
// budget, then times the core network directly on the shard-local
// permutations the decompositions produced.
func replay(wl workload, seed int64, budget time.Duration) (layers, error) {
	plain, err := newStack(wl, false)
	if err != nil {
		return layers{}, err
	}
	defer plain.close()
	traced, err := newStack(wl, true)
	if err != nil {
		return layers{}, err
	}
	defer traced.close()

	n := wl.shards << uint(wl.m)
	var hot [][]int
	if wl.hotSet > 0 {
		hot = workingSet(seed, wl.hotSet, n)
		// Warm every plane cache of both stacks, as the served run does.
		for _, st := range []*stack{plain, traced} {
			for _, p := range hot {
				for pass := 0; pass < 8; pass++ {
					src := permWords(p)
					if err := st.co.Route(context.Background(), src, src); err != nil {
						return layers{}, err
					}
				}
			}
		}
	}
	lt, err := replayStream(plain, traced, newStream(seed*1000003+2*101, hot), n, budget)
	if err != nil {
		return layers{}, err
	}
	out := layers{metrics: map[string]metric{}, routes: int64(len(lt.route) + len(lt.untraced))}
	put := func(name string, v float64, unit string) { out.metrics[name] = metric{Value: v, Unit: unit} }
	p50 := func(d []time.Duration) float64 {
		return us(quantile(sortDurations(append([]time.Duration(nil), d...)), 0.5))
	}

	put("cluster.decompose_p50_us", p50(lt.decompose), "us")
	put("cluster.exchange_p50_us", p50(lt.exchange), "us")
	put("cluster.shard_wait_p50_us", p50(lt.shardWait), "us")
	put("cluster.route_p50_us", p50(lt.route), "us")
	put("cluster.layer_sum_ratio", layerSumRatio(lt), "ratio")
	put("trace.overhead_ratio", p50(lt.route)/p50(lt.untraced), "ratio")

	if err := spanMetrics(traced.tracers, len(lt.route), put); err != nil {
		return layers{}, err
	}
	if err := coreMetrics(wl.m, lt.assignments, budget/4, put); err != nil {
		return layers{}, err
	}
	return out, nil
}

// p50 returns the median of d in microseconds, leaving d unsorted.
func p50(d []time.Duration) float64 {
	return us(median(append([]time.Duration(nil), d...)))
}

// layerSumRatio is the sum of the decompose, exchange and shard-wait
// medians over the cluster route median: how well the seams account for a
// route's time.
func layerSumRatio(lt layerTimes) float64 {
	return (p50(lt.decompose) + p50(lt.exchange) + p50(lt.shardWait)) / p50(lt.route)
}

// replayStream alternates blocks of requests between the untraced and the
// traced stack, so drift on the host lands on both equally.
func replayStream(plain, traced *stack, st *stream, n int, budget time.Duration) (layerTimes, error) {
	const block = 50
	var lt layerTimes
	ctx := context.Background()
	dst := make([]bnbnet.Word, n)
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) && len(lt.route) < maxReplay {
		for i := 0; i < block; i++ {
			p := st.next(n)
			start := time.Now()
			if err := plain.co.Route(ctx, dst, permWords(p)); err != nil {
				return lt, err
			}
			lt.untraced = append(lt.untraced, time.Since(start))
			if err := verifyWords(p, dst); err != nil {
				return lt, err
			}
		}
		for i := 0; i < block; i++ {
			p := st.next(n)
			src := permWords(p)
			rec := traced.rec
			*rec = seams{}
			t0 := time.Now()
			a, err := traced.co.Decompose(p)
			if err != nil {
				return lt, err
			}
			t1 := time.Now()
			if err := traced.co.RouteAssigned(ctx, dst, src, a); err != nil {
				return lt, err
			}
			t2 := time.Now()
			if err := verifyWords(p, dst); err != nil {
				return lt, err
			}
			wait := rec.lastWait.Sub(rec.firstSubmit)
			lt.decompose = append(lt.decompose, t1.Sub(t0))
			lt.shardWait = append(lt.shardWait, wait)
			// Exchange is the coordinator's own work around the shard wait:
			// stage A scatter before the first submit, stage C gather after
			// the last ticket.
			lt.exchange = append(lt.exchange, rec.firstSubmit.Sub(t1)+t2.Sub(rec.lastWait))
			lt.route = append(lt.route, t2.Sub(t0))
			if len(lt.assignments) < 256 {
				lt.assignments = append(lt.assignments, a)
			}
		}
	}
	return lt, nil
}

// spanMetrics derives the engine, plane and shard-skew metrics from the
// shards' request spans. With one caller, the k-th of the newest request
// spans of every shard (in admission order) belongs to the k-th traced
// route.
func spanMetrics(tracers []*bnbnet.Tracer, routes int, put func(string, float64, string)) error {
	var queue, service []time.Duration
	var attempts, hits int64
	ends := make([][]time.Time, len(tracers))
	for g, tr := range tracers {
		var spans []bnbnet.TraceSpan
		for _, sp := range tr.Snapshot(0) {
			if sp.Kind == "request" && !sp.Aborted {
				spans = append(spans, sp)
			}
		}
		// Warm-up routes come first; the traced routes are the newest spans.
		if len(spans) < routes {
			return fmt.Errorf("shard %d kept %d request spans for %d routes", g, len(spans), routes)
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
		for _, sp := range spans[len(spans)-routes:] {
			queue = append(queue, sp.QueueWait)
			service = append(service, sp.Service)
			attempts += int64(sp.Attempts)
			if sp.PlanHit {
				hits++
			}
			ends[g] = append(ends[g], sp.Start.Add(sp.Total))
		}
	}
	skew := make([]time.Duration, routes)
	for k := range skew {
		lo, hi := ends[0][k], ends[0][k]
		for g := range ends {
			if ends[g][k].Before(lo) {
				lo = ends[g][k]
			}
			if ends[g][k].After(hi) {
				hi = ends[g][k]
			}
		}
		skew[k] = hi.Sub(lo)
	}
	sortDurations(queue)
	put("engine.queue_wait_p50_us", us(quantile(queue, 0.50)), "us")
	put("engine.queue_wait_p99_us", us(quantile(queue, 0.99)), "us")
	put("plane.service_p50_us", us(median(service)), "us")
	put("plane.attempts_per_request", ratio(attempts, int64(len(service))), "ratio")
	put("plancache.request_hit_ratio", ratio(hits, int64(len(service))), "ratio")
	put("cluster.shard_skew_p99_us", us(quantile(sortDurations(skew), 0.99)), "us")
	return nil
}

// coreMetrics times BNB.Compile, BNB.RouteInto and BNB.Replay directly on
// the shard-local permutations of the replayed decompositions, verifying
// every output. Replay is sub-microsecond, so it is timed over a batch of
// calls per permutation.
func coreMetrics(m int, as []*cluster.Assignment, budget time.Duration, put func(string, float64, string)) error {
	nw, err := bnbnet.New("bnb", m)
	if err != nil {
		return err
	}
	b, ok := nw.(*bnbnet.BNB)
	if !ok {
		return fmt.Errorf("bnb family built %T, not *BNB", nw)
	}
	const replays = 64
	var compile, route, replay []time.Duration
	dst := make([]bnbnet.Word, 1<<uint(m))
	deadline := time.Now().Add(budget)
	for _, a := range as {
		for _, row := range a.Local {
			q := make(bnbnet.Perm, len(row))
			for i, d := range row {
				q[i] = int(d)
			}
			src := permWords(q)

			start := time.Now()
			pl, err := b.Compile(q)
			if err != nil {
				return err
			}
			compile = append(compile, time.Since(start))

			start = time.Now()
			if err := b.RouteInto(dst, src); err != nil {
				return err
			}
			route = append(route, time.Since(start))
			if err := verifyWords(q, dst); err != nil {
				return fmt.Errorf("RouteInto: %w", err)
			}

			start = time.Now()
			for i := 0; i < replays; i++ {
				if err := b.Replay(pl, dst, src); err != nil {
					return err
				}
			}
			replay = append(replay, time.Since(start)/replays)
			if err := verifyWords(q, dst); err != nil {
				return fmt.Errorf("Replay: %w", err)
			}
		}
		if time.Now().After(deadline) {
			break
		}
	}
	put("core.compile_p50_us", us(median(compile)), "us")
	put("core.route_p50_us", us(median(route)), "us")
	put("core.replay_p50_us", us(median(replay)), "us")
	return nil
}
