package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

type runConfig struct {
	server string
	wl     workload
	seed   int64
	window time.Duration
	traced bool
}

const (
	// An untraced run times set-up over several launches and reports the
	// median, serving from the last launch: at least minSetups launches,
	// more until setupBudget of set-up time has been measured, at most
	// maxSetups. A launch at m=7 takes a few milliseconds, where
	// process-start jitter alone moves a median of three by a quarter; one
	// at m=5 takes about two seconds, most of it building fault dictionaries.
	minSetups   = 5
	maxSetups   = 41
	setupBudget = 500 * time.Millisecond
	// warmup runs the load before the timed window so connections, plan
	// caches and the Go runtime have settled.
	warmup = time.Second
	// slice is the length of the window's slices. The throughput, latency
	// and CPU figures are medians over slices, so a burst of interference
	// from outside the benchmark moves a few slices, not the result.
	slice = time.Second
	// Shard add/remove cycles are timed with the load paused after every
	// idleEvery-th slice, so the samples spread over the run: at least one
	// cycle per pause and at least idlePhase of them (an add at m=7 takes
	// well under a millisecond), at most maxIdleCycles.
	idleEvery     = 2
	idlePhase     = 20 * time.Millisecond
	maxIdleCycles = 50
	// maxReplayBudget caps the traced in-process replay.
	maxReplayBudget = 4 * time.Second
)

// notes is printed on the line before the result: the host facts that
// decide the numbers, the sample counts and the workload-property checks.
type notes struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Host     hostFacts      `json:"host"`
	Samples  int            `json:"latency_samples"`
	Checks   map[string]any `json:"checks"`
}

type hostFacts struct {
	GOMAXPROCSClient int     `json:"gomaxprocs_client"`
	GOMAXPROCSServer string  `json:"gomaxprocs_server"`
	Nproc            int     `json:"nproc"`
	GoVersion        string  `json:"go_version"`
	Sleep12usP50     float64 `json:"sleep_12us_p50_us"`
	Sleep12usP99     float64 `json:"sleep_12us_p99_us"`
	// SpinMs is the median time of a fixed integer loop: the host's speed
	// at the start of the run, which drifts on shared machines and moves
	// every timing of the run with it.
	SpinMs  float64 `json:"spin_ms"`
	Network string  `json:"network"`
}

// spinSink keeps the reference loop's result live.
var spinSink uint64

// spin times a fixed amount of integer work, the median of five passes.
func spin() time.Duration {
	passes := make([]time.Duration, 5)
	for i := range passes {
		start := time.Now()
		x := uint64(i)
		for j := 0; j < 20_000_000; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		spinSink += x
		passes[i] = time.Since(start)
	}
	return median(passes)
}

// measureHost records the generator's and server's GOMAXPROCS (not
// NumCPU), the CPUs this process may use (what nproc prints), the Go
// version both binaries were built with, and the timer floor: how long a
// requested 12µs sleep actually takes.
func measureHost() hostFacts {
	sleeps := make([]time.Duration, 200)
	for i := range sleeps {
		start := time.Now()
		time.Sleep(12 * time.Microsecond)
		sleeps[i] = time.Since(start)
	}
	sort.Slice(sleeps, func(i, j int) bool { return sleeps[i] < sleeps[j] })
	return hostFacts{
		GOMAXPROCSClient: runtime.GOMAXPROCS(0),
		GOMAXPROCSServer: serverGOMAXPROCS(),
		Nproc:            runtime.NumCPU(),
		GoVersion:        runtime.Version(),
		Sleep12usP50:     us(quantile(sleeps, 0.50)),
		Sleep12usP99:     us(quantile(sleeps, 0.99)),
		SpinMs:           ms(spin()),
		Network:          "loopback (127.0.0.1); no physical link crossed",
	}
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	if i > 0 {
		i--
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

func median(d []time.Duration) time.Duration { return quantile(sortDurations(d), 0.5) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// served is what the timed window against the server measured.
type served struct {
	tally
	slices         []sliceStat
	elapsed        time.Duration
	cpuTicks       int64
	rssMB          float64
	delta          counters
	setups         []time.Duration // one per launch; the median is setup_s
	adds, removes  []time.Duration
	hitRatio       float64 // over every plan-cache lookup, health probes included
	minReqHit      float64 // lower bound on the share of route requests that hit
	propertyFailed string
}

// Workload-property thresholds. The server's plan-cache counters also count
// the health checker's probe passes, which route idle planes through the
// same caches, so request-level figures are derived: a hot request stream
// must provably hit more often than not, and a fresh stream must
// never repeat a permutation and must compile on every shard request.
const minHotHit = 0.5

// sliceStat is one slice of the timed window.
type sliceStat struct {
	routes   int64
	elapsed  time.Duration
	p50, p99 time.Duration
	cpuTicks int64
}

func medianOf(v []float64) float64 {
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	if len(v) == 0 {
		return 0
	}
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// sliceMedian returns the median over slices of f.
func sliceMedian(sl []sliceStat, f func(sliceStat) float64) float64 {
	v := make([]float64, len(sl))
	for i, s := range sl {
		v[i] = f(s)
	}
	return medianOf(v)
}

func run(cfg runConfig) (result, notes, error) {
	wl := cfg.wl
	nt := notes{Workload: wl.name, Seed: cfg.seed, Host: measureHost(), Checks: map[string]any{}}
	sv, err := serve(cfg)
	if err != nil {
		return result{}, nt, err
	}
	sort.Slice(sv.lat, func(i, j int) bool { return sv.lat[i] < sv.lat[j] })
	nt.Samples = len(sv.lat)
	nt.Checks["window_counters"] = sv.delta
	nt.Checks["plancache_hit_ratio"] = sv.hitRatio
	if wl.hotSet > 0 {
		nt.Checks["request_hit_ratio_min"] = sv.minReqHit
	} else {
		nt.Checks["repeated_permutations"] = sv.repeats
	}
	nt.Checks["shard_adds"] = len(sv.adds)
	setupMs := make([]float64, len(sv.setups))
	for i, d := range sv.setups {
		setupMs[i] = math.Round(ms(d)*100) / 100
	}
	nt.Checks["setup_launches_ms"] = setupMs
	if sv.firstErr != nil {
		nt.Checks["first_error"] = sv.firstErr.Error()
	}
	res := result{
		// A healthy server answers every request of these workloads, so a
		// failed or refused one is a defect, not load.
		Correct:   sv.misrouted == 0 && sv.failed == 0 && sv.propertyFailed == "",
		Attempted: sv.attempted,
		Failed:    sv.failed,
		Metrics:   map[string]metric{},
	}
	if sv.propertyFailed != "" {
		nt.Checks["property_failed"] = sv.propertyFailed
		fmt.Fprintln(os.Stderr, "bnbperf: workload property violated:", sv.propertyFailed)
	}
	routes := int64(len(sv.lat))
	clientP50 := sliceMedian(sv.slices, func(s sliceStat) float64 { return us(s.p50) })
	nt.Checks["window_totals"] = map[string]float64{
		"routes_per_s":            float64(routes) / sv.elapsed.Seconds(),
		"latency_p50_us":          us(quantile(sv.lat, 0.50)),
		"latency_p99_us":          us(quantile(sv.lat, 0.99)),
		"server_cpu_us_per_route": float64(sv.cpuTicks) * 1e6 / ticksPerSecond / float64(max(routes, 1)),
	}
	perSlice := make([]float64, len(sv.slices))
	for i, sl := range sv.slices {
		perSlice[i] = math.Round(float64(sl.routes) / sl.elapsed.Seconds())
	}
	nt.Checks["slice_routes_per_s"] = perSlice
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	// The client p99 is reported with the per-layer metrics, which carry no
	// bound: on a shared 2-CPU host its run-to-run spread reached 29%,
	// beyond the largest bound an end-to-end metric may have.
	clientP99 := sliceMedian(sv.slices, func(s sliceStat) float64 { return us(s.p99) })
	if !cfg.traced {
		put("routes_per_s", sliceMedian(sv.slices, func(s sliceStat) float64 { return float64(s.routes) / s.elapsed.Seconds() }), "1/s")
		put("latency_p50_us", clientP50, "us")
		put("server_cpu_us_per_route", sliceMedian(sv.slices, func(s sliceStat) float64 {
			return float64(s.cpuTicks) * 1e6 / ticksPerSecond / float64(max(s.routes, 1))
		}), "us")
		put("server_rss_mb", sv.rssMB, "MB")
		put("setup_s", median(sv.setups).Seconds(), "s")
		put("shard_add_ms", ms(median(sv.adds)), "ms")
		return res, nt, nil
	}

	d := sv.delta
	put("latency_p99_us", clientP99, "us")
	put("error_ratio", ratio(sv.failed, sv.attempted), "ratio")
	put("core.compiles_per_route", ratio(d.PlanCompiles, routes), "ratio")
	put("engine.mean_batch", ratio(d.BatchedRequests, d.BatchDequeues), "requests")
	put("engine.stolen_ratio", ratio(d.StolenRequests, d.Routes), "ratio")
	put("engine.parks_per_request", ratio(d.WorkerParks, d.Routes), "ratio")
	put("engine.sheds", float64(d.Sheds), "count")
	put("plane.failovers", float64(d.Failovers), "count")
	put("plane.hedges", float64(d.Hedges), "count")
	put("plancache.hit_ratio", sv.hitRatio, "ratio")
	put("plancache.evictions", float64(d.PlanEvictions), "count")
	put("cluster.shard_remove_ms", ms(median(sv.removes)), "ms")
	put("cluster.size_retries_per_kroute", 1000*ratio(sv.retries, routes), "1/kroute")

	lay, err := replay(wl, cfg.seed, min(cfg.window/4, maxReplayBudget))
	if err != nil {
		return result{}, nt, fmt.Errorf("traced replay: %w", err)
	}
	res.Attempted += lay.routes
	for name, m := range lay.metrics {
		res.Metrics[name] = m
	}
	put("bnbserve.overhead_p50_us", clientP50-lay.metrics["cluster.route_p50_us"].Value, "us")
	nt.Checks["replay_routes"] = lay.routes
	return res, nt, nil
}

// serve launches the server (several times when timing set-up), runs the
// warm-up and the timed window, reads the server's counters and /proc
// around the window, and times shard membership changes.
func serve(cfg runConfig) (served, error) {
	wl := cfg.wl
	var sv served
	var s *server
	for measured := time.Duration(0); len(sv.setups) < maxSetups &&
		(len(sv.setups) < minSetups || measured < setupBudget); {
		if s != nil {
			s.stop()
		}
		var err error
		if s, err = startServer(cfg.server, wl); err != nil {
			return sv, err
		}
		sv.setups = append(sv.setups, s.setup)
		measured += s.setup
		if cfg.traced {
			break
		}
	}
	defer s.stop()

	n := wl.shards << uint(wl.m)
	clients := make([]*tcpClient, connections)
	for i := range clients {
		c, err := dialTCP(s.tcpAddr)
		if err != nil {
			return sv, err
		}
		defer c.close()
		clients[i] = c
	}
	// The warm-up and every slice draw from their own seeded streams, so a
	// fresh stream never repeats a permutation across them. A hot workload
	// also serves every slice from its own working set: how often the
	// health checker's probe passes evict hot plans depends on which
	// permutations share plan-cache shards with the probes, and the median
	// over several working sets keeps one draw from deciding the run.
	streams := func(salt int64, hot [][]int) []*stream {
		st := make([]*stream, connections)
		for i := range st {
			st[i] = newStream(cfg.seed*1000003+salt*101+int64(i), hot)
		}
		return st
	}
	warmWorkingSet := func(salt int64) ([][]int, error) {
		if wl.hotSet == 0 {
			return nil, nil
		}
		hot := workingSet(cfg.seed*1000003+salt*101+99, wl.hotSet, n)
		for _, p := range hot {
			for pass := 0; pass < 8; pass++ { // reach every plane's cache of every shard
				if err := clients[0].route(p, make([]int, n)); err != nil {
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
		}
		return hot, nil
	}
	hot, err := warmWorkingSet(0)
	if err != nil {
		return sv, err
	}
	if w := drive(clients, streams(1, hot), n, time.Now().Add(warmup)); w.failed > 0 {
		return sv, fmt.Errorf("warm-up: %d of %d requests failed: %v", w.failed, w.attempted, w.firstErr)
	}

	before, err := s.counters()
	if err != nil {
		return sv, err
	}
	// Between slices the benchmark warms the next working set and times
	// membership changes with the load paused. outside collects the counter
	// deltas of that work, which are not the window's.
	var outside []counters
	between := func(f func() error) error {
		c0, err := s.counters()
		if err != nil {
			return err
		}
		if err := f(); err != nil {
			return err
		}
		c1, err := s.counters()
		if err != nil {
			return err
		}
		outside = append(outside, c1.sub(c0))
		return nil
	}
	idle := func() error {
		begin := time.Now()
		for i := 0; i < maxIdleCycles && (i == 0 || time.Since(begin) < idlePhase); i++ {
			a, err := s.membership("add")
			if err != nil {
				return err
			}
			r, err := s.membership("remove")
			if err != nil {
				return err
			}
			sv.adds, sv.removes = append(sv.adds, a), append(sv.removes, r)
		}
		return nil
	}
	k := max(1, int(cfg.window/slice))
	for i := 0; i < k; i++ {
		if i > 0 && wl.hotSet > 0 {
			if err := between(func() (err error) {
				hot, err = warmWorkingSet(int64(i + 1))
				return err
			}); err != nil {
				return sv, err
			}
		}
		t0, err := s.cpuTicks()
		if err != nil {
			return sv, err
		}
		sliceStart := time.Now()
		t := drive(clients, streams(int64(i+2), hot), n, sliceStart.Add(slice))
		elapsed := time.Since(sliceStart)
		t1, err := s.cpuTicks()
		if err != nil {
			return sv, err
		}
		l := sortDurations(append([]time.Duration(nil), t.lat...))
		sv.slices = append(sv.slices, sliceStat{
			routes:   int64(len(l)),
			elapsed:  elapsed,
			p50:      quantile(l, 0.50),
			p99:      quantile(l, 0.99),
			cpuTicks: t1 - t0,
		})
		sv.tally.add(t)
		sv.elapsed += elapsed
		sv.cpuTicks += t1 - t0
		if i%idleEvery == idleEvery-1 {
			if err := between(idle); err != nil {
				return sv, err
			}
		}
	}
	after, err := s.counters()
	if err != nil {
		return sv, err
	}
	if sv.rssMB, err = s.peakRSSMB(); err != nil {
		return sv, err
	}
	sv.delta = after.sub(before)
	for _, d := range outside {
		sv.delta = sv.delta.sub(d)
	}
	d := sv.delta
	lookups := d.PlanHits + d.PlanMisses
	requests := d.Routes + d.Errors // one lookup per shard request; probes bypass the engine
	sv.hitRatio = ratio(d.PlanHits, lookups)
	// At most lookups-requests hits belong to probes.
	sv.minReqHit = max(0, ratio(d.PlanHits-(lookups-requests), requests))
	routes := int64(len(sv.lat))

	switch {
	case wl.hotSet > 0 && sv.minReqHit < minHotHit:
		sv.propertyFailed = fmt.Sprintf("hot requests provably hit the plan cache only %.4f of the time; want >= %g", sv.minReqHit, minHotHit)
	case wl.hotSet == 0 && sv.repeats > 0:
		sv.propertyFailed = fmt.Sprintf("fresh stream repeated %d permutations", sv.repeats)
	case wl.hotSet == 0 && d.PlanCompiles < int64(wl.shards)*routes:
		sv.propertyFailed = fmt.Sprintf("fresh stream compiled %d plans for %d routes over %d shards; every shard request must compile", d.PlanCompiles, routes, wl.shards)
	}
	return sv, nil
}
