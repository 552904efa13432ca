package main

// Schema validation for BENCH_<m>.json files. CI runs `bnbbench -validate`
// over freshly generated output, so a drifting field name or a nonsensical
// number fails the build instead of silently corrupting the perf trajectory.

import (
	"encoding/json"
	"fmt"
	"io"
)

// requiredFamilies must appear in every report's networks section; they are
// the paper's headline comparison (self-routing BNB vs. Batcher sorting vs.
// centrally-routed Beneš).
var requiredFamilies = []string{"bnb", "batcher", "benes"}

// Validate strictly decodes one report and checks its invariants.
func Validate(r io.Reader) (Report, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("decode: %w", err)
	}
	if err := checkReport(rep); err != nil {
		return Report{}, err
	}
	return rep, nil
}

func checkReport(rep Report) error {
	if rep.Schema != "bnbbench/v6" {
		return fmt.Errorf("schema %q, want bnbbench/v6", rep.Schema)
	}
	if rep.M < 1 || rep.N != 1<<uint(rep.M) {
		return fmt.Errorf("m = %d with n = %d; want n = 2^m", rep.M, rep.N)
	}
	if rep.Go == "" || rep.GOOS == "" || rep.GOARCH == "" || rep.CPUs < 1 || rep.GOMAXPROCS < 1 {
		return fmt.Errorf("incomplete machine stamp: go=%q goos=%q goarch=%q cpus=%d gomaxprocs=%d",
			rep.Go, rep.GOOS, rep.GOARCH, rep.CPUs, rep.GOMAXPROCS)
	}
	seen := map[string]bool{}
	for _, nr := range rep.Networks {
		if seen[nr.Family] {
			return fmt.Errorf("family %q listed twice", nr.Family)
		}
		seen[nr.Family] = true
		if nr.Samples < 1 {
			return fmt.Errorf("%s: %d samples", nr.Family, nr.Samples)
		}
		if nr.NsPerOp <= 0 || nr.RoutesPerSec <= 0 {
			return fmt.Errorf("%s: non-positive ns_per_op %v or routes_per_sec %v",
				nr.Family, nr.NsPerOp, nr.RoutesPerSec)
		}
		if nr.P50Ns <= 0 || nr.P99Ns < nr.P50Ns {
			return fmt.Errorf("%s: p50 %d / p99 %d out of order", nr.Family, nr.P50Ns, nr.P99Ns)
		}
		if nr.AllocsPerOp < 0 || nr.PooledNsPerOp < 0 {
			return fmt.Errorf("%s: negative allocs or pooled time", nr.Family)
		}
	}
	for _, want := range requiredFamilies {
		if !seen[want] {
			return fmt.Errorf("required family %q missing (have %v)", want, rep.Networks)
		}
	}
	for _, er := range rep.Engine {
		if er.Workers < 1 || er.Requests < 1 {
			return fmt.Errorf("engine sweep: workers %d, requests %d", er.Workers, er.Requests)
		}
		if er.RoutesPerSec <= 0 || er.P50Ns <= 0 || er.P99Ns < er.P50Ns {
			return fmt.Errorf("engine sweep workers=%d: routes_per_sec %v, p50 %d, p99 %d",
				er.Workers, er.RoutesPerSec, er.P50Ns, er.P99Ns)
		}
		// Sharded-queue accounting: every served request left a shard exactly
		// once, by batch dequeue or by steal, and a steal moves >= 1 request.
		if got := er.BatchedRequests + er.StolenRequests; got != int64(er.Requests) {
			return fmt.Errorf("engine sweep workers=%d: batched %d + stolen %d = %d dequeues, want %d requests",
				er.Workers, er.BatchedRequests, er.StolenRequests, got, er.Requests)
		}
		if er.StolenRequests < er.Steals {
			return fmt.Errorf("engine sweep workers=%d: %d stolen requests across %d steals",
				er.Workers, er.StolenRequests, er.Steals)
		}
		if er.BatchedRequests < er.BatchDequeues {
			return fmt.Errorf("engine sweep workers=%d: %d batched requests across %d batch dequeues",
				er.Workers, er.BatchedRequests, er.BatchDequeues)
		}
		if er.MeanBatch < 0 || er.WorkerParks < 0 {
			return fmt.Errorf("engine sweep workers=%d: negative mean_batch %v or worker_parks %d",
				er.Workers, er.MeanBatch, er.WorkerParks)
		}
	}
	for _, pr := range rep.Planes {
		if pr.Planes < 2 {
			return fmt.Errorf("plane sweep: %d planes", pr.Planes)
		}
		if pr.RoutesPerSec <= 0 || pr.P50Ns <= 0 || pr.P99Ns < pr.P50Ns {
			return fmt.Errorf("plane sweep: routes_per_sec %v, p50 %d, p99 %d",
				pr.RoutesPerSec, pr.P50Ns, pr.P99Ns)
		}
		if pr.Failovers < 0 {
			return fmt.Errorf("plane sweep: negative failovers")
		}
	}
	pl := rep.Plan
	if pl.CompileNsPerOp <= 0 || pl.ReplayNsPerOp <= 0 {
		return fmt.Errorf("plan: non-positive compile %v or replay %v ns/op",
			pl.CompileNsPerOp, pl.ReplayNsPerOp)
	}
	if pl.ReplayNsPerOp >= pl.CompileNsPerOp {
		return fmt.Errorf("plan: replay %v ns/op not below compile %v ns/op — replaying should skip the arbiter pass",
			pl.ReplayNsPerOp, pl.CompileNsPerOp)
	}
	if pl.ReplayAllocsPerOp < 0 || pl.BreakEvenRoutes < 0 {
		return fmt.Errorf("plan: negative replay allocs or break-even")
	}
	if len(pl.HitSweep) < 1 {
		return fmt.Errorf("plan: empty hit sweep")
	}
	for _, hp := range pl.HitSweep {
		if hp.RepeatRatio < 0 || hp.RepeatRatio > 1 || hp.HitRatio < 0 || hp.HitRatio > 1 {
			return fmt.Errorf("plan sweep: ratios out of [0,1]: repeat %v, hit %v", hp.RepeatRatio, hp.HitRatio)
		}
		if hp.RoutesPerSec <= 0 {
			return fmt.Errorf("plan sweep repeat=%v: non-positive routes_per_sec %v", hp.RepeatRatio, hp.RoutesPerSec)
		}
	}
	rc := rep.Reconfig
	if rc.Planes < 2 {
		return fmt.Errorf("reconfig: %d planes", rc.Planes)
	}
	if rc.RolloutNs <= 0 || rc.DrainNs <= 0 {
		return fmt.Errorf("reconfig: non-positive rollout %d ns or drain %d ns", rc.RolloutNs, rc.DrainNs)
	}
	if rc.SwapBlackoutNs <= 0 || rc.SwapBlackoutNs > rc.RolloutNs {
		return fmt.Errorf("reconfig: swap blackout %d ns outside (0, rollout %d ns]", rc.SwapBlackoutNs, rc.RolloutNs)
	}
	if rc.PlanWarms < 1 {
		return fmt.Errorf("reconfig: %d plan warms — the rollout must carry the hot set over", rc.PlanWarms)
	}
	if rc.WarmHitRatio <= 0 || rc.WarmHitRatio > 1 {
		return fmt.Errorf("reconfig: warm hit ratio %v outside (0, 1]", rc.WarmHitRatio)
	}
	tl := rep.Tail
	if tl.Planes < 2 {
		return fmt.Errorf("tail: %d planes", tl.Planes)
	}
	if tl.SlowDelayNs <= 0 || tl.SlowRate <= 0 || tl.SlowRate > 1 {
		return fmt.Errorf("tail: slow delay %d ns, rate %v", tl.SlowDelayNs, tl.SlowRate)
	}
	if tl.HealthyP99Ns <= 0 || tl.UnhedgedP99Ns <= 0 || tl.HedgedP99Ns <= 0 {
		return fmt.Errorf("tail: non-positive p99 (healthy %d, unhedged %d, hedged %d)",
			tl.HealthyP99Ns, tl.UnhedgedP99Ns, tl.HedgedP99Ns)
	}
	if tl.HedgedP99Ns > tl.UnhedgedP99Ns {
		return fmt.Errorf("tail: hedged p99 %d ns above unhedged %d ns — hedging must cut the slow-plane tail",
			tl.HedgedP99Ns, tl.UnhedgedP99Ns)
	}
	if tl.Hedges < tl.HedgeWins || tl.HedgeWins < 0 {
		return fmt.Errorf("tail: hedge wins %d exceed hedges %d", tl.HedgeWins, tl.Hedges)
	}
	if tl.HedgeFireRate < 0 || tl.HedgeFireRate > 1 {
		return fmt.Errorf("tail: hedge fire rate %v outside [0, 1]", tl.HedgeFireRate)
	}
	if len(tl.Classes) != 3 {
		return fmt.Errorf("tail: %d class points, want 3", len(tl.Classes))
	}
	classesSeen := map[string]bool{}
	for _, cp := range tl.Classes {
		if cp.Class == "" || classesSeen[cp.Class] {
			return fmt.Errorf("tail: empty or duplicate class %q", cp.Class)
		}
		classesSeen[cp.Class] = true
		if cp.Submitted < 1 {
			return fmt.Errorf("tail class %s: %d submitted", cp.Class, cp.Submitted)
		}
		if cp.Sheds < 0 || cp.Sheds > cp.Submitted {
			return fmt.Errorf("tail class %s: %d sheds of %d submitted", cp.Class, cp.Sheds, cp.Submitted)
		}
		if cp.ShedRate < 0 || cp.ShedRate > 1 {
			return fmt.Errorf("tail class %s: shed rate %v outside [0, 1]", cp.Class, cp.ShedRate)
		}
	}
	if tl.Classes[0].ShedRate < tl.Classes[2].ShedRate {
		return fmt.Errorf("tail: background shed rate %v below critical %v — the QoS order is inverted",
			tl.Classes[0].ShedRate, tl.Classes[2].ShedRate)
	}
	cl := rep.Cluster
	if cl.ShardOrder < 1 {
		return fmt.Errorf("cluster: shard order %d", cl.ShardOrder)
	}
	if len(cl.Sweep) < 2 {
		return fmt.Errorf("cluster: %d sweep points, want >= 2 shard counts", len(cl.Sweep))
	}
	prevShards := 0
	for _, cp := range cl.Sweep {
		if cp.Shards <= prevShards {
			return fmt.Errorf("cluster sweep: shard counts not strictly increasing at %d", cp.Shards)
		}
		prevShards = cp.Shards
		if cp.Inputs != cp.Shards<<uint(cl.ShardOrder) {
			return fmt.Errorf("cluster sweep shards=%d: %d inputs, want %d aggregate ports",
				cp.Shards, cp.Inputs, cp.Shards<<uint(cl.ShardOrder))
		}
		if cp.Requests < 1 || cp.NsPerOp <= 0 || cp.RoutesPerSec <= 0 || cp.WordsPerSec <= 0 {
			return fmt.Errorf("cluster sweep shards=%d: non-positive figures (requests %d, ns/op %v, routes/s %v, words/s %v)",
				cp.Shards, cp.Requests, cp.NsPerOp, cp.RoutesPerSec, cp.WordsPerSec)
		}
		if cp.P50Ns <= 0 || cp.P99Ns < cp.P50Ns {
			return fmt.Errorf("cluster sweep shards=%d: p50 %d / p99 %d out of order", cp.Shards, cp.P50Ns, cp.P99Ns)
		}
		if cp.DecomposeNsPerOp <= 0 || cp.ReplayNsPerOp <= 0 {
			return fmt.Errorf("cluster sweep shards=%d: non-positive decompose %v or replay %v ns/op",
				cp.Shards, cp.DecomposeNsPerOp, cp.ReplayNsPerOp)
		}
		// The matching stage is pure bookkeeping — linear-ish edge coloring
		// with no shard round-trips — so decomposing must undercut the full
		// end-to-end route it is one stage of.
		if cp.DecomposeNsPerOp >= cp.NsPerOp {
			return fmt.Errorf("cluster sweep shards=%d: decompose %v ns/op not below the end-to-end route %v ns/op",
				cp.Shards, cp.DecomposeNsPerOp, cp.NsPerOp)
		}
	}
	return nil
}

// checkScaling asserts the engine sweep actually scales: the highest worker
// count's throughput must reach minScale times the single-worker point, and
// its p99 must stay within 4x its p50 (the tail must not pay for the
// parallelism). Opt-in via -minscale because the assertion only makes sense
// on a multi-core machine — a single-CPU container serializes the workers
// and would fail it vacuously.
func checkScaling(rep Report, minScale float64) error {
	var single, best *EngineResult
	for i := range rep.Engine {
		er := &rep.Engine[i]
		if er.Workers == 1 {
			single = er
		}
		if best == nil || er.Workers > best.Workers {
			best = er
		}
	}
	if single == nil || best == nil || best.Workers <= 1 {
		return fmt.Errorf("scaling check needs a 1-worker and a multi-worker engine point (have %d points)", len(rep.Engine))
	}
	if best.RoutesPerSec < minScale*single.RoutesPerSec {
		return fmt.Errorf("engine at %d workers reaches %.0f routes/sec, below %.2fx the 1-worker %.0f routes/sec",
			best.Workers, best.RoutesPerSec, minScale, single.RoutesPerSec)
	}
	if best.P99Ns > 4*best.P50Ns {
		return fmt.Errorf("engine at %d workers: p99 %d ns above 4x p50 %d ns",
			best.Workers, best.P99Ns, best.P50Ns)
	}
	return nil
}
