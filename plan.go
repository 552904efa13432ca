package bnbnet

// This file exposes the compiled-plan surface: Compile runs the BNB
// arbiter tree once per permutation and records every switch decision into
// an immutable Plan; Replay routes subsequent batches of the same
// permutation by pure wire-following, an order of magnitude below the live
// self-routing pass. PlanRouter is the optional surface (discover with
// AsPlanRouter), WithPlanCache fronts an engine or supervised planes with a
// lock-free plan cache, and cachedPlanRouter is the fast path those
// constructors install. DESIGN.md §12 derives when compilation amortizes.

import (
	"expvar"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/perm"
	"repro/internal/plancache"
	"repro/internal/trace"
)

// Plan is an immutable compiled route plan, bound to the router that
// compiled it and safe for concurrent use by any number of replays. A plan
// compiled by BNB.Compile records the switch settings realizing one
// permutation — one bitset per switch column plus the derived end-to-end
// wire map; a plan compiled by Cluster.Compile records the product
// decomposition — the inter-shard matching and the per-shard local
// permutations. Replaying a plan on the wrong kind of router fails with
// ErrPlanMismatch instead of misdelivering.
type Plan struct {
	p  *core.Plan          // monolithic switch settings (BNB.Compile)
	ca *cluster.Assignment // product decomposition (Cluster.Compile)
}

// M returns the network order the plan was compiled on: the monolithic
// order for a BNB plan, the per-shard order for a cluster plan (whose
// aggregate port count need not be a power of two — see Inputs).
func (pl *Plan) M() int {
	if pl.ca != nil {
		m := 0
		for l := pl.ca.L; l > 1; l >>= 1 {
			m++
		}
		return m
	}
	return pl.p.M()
}

// Inputs returns the plan's port count: N = 2^m for a BNB plan, the
// aggregate S·2^m for a cluster plan.
func (pl *Plan) Inputs() int {
	if pl.ca != nil {
		return pl.ca.Inputs()
	}
	return pl.p.Inputs()
}

// Perm returns a copy of the compiled permutation.
func (pl *Plan) Perm() Perm {
	if pl.ca != nil {
		return Perm(append([]int(nil), pl.ca.P...))
	}
	return pl.p.Perm()
}

// Switches returns the number of recorded switch states:
// (N/2)·(1/2)logN(logN+1) for a BNB plan, S times the per-shard figure for
// a cluster plan (the inter-shard matchings are stored as wire maps, not
// switch states).
func (pl *Plan) Switches() int {
	if pl.ca != nil {
		m := pl.M()
		return pl.ca.S * (pl.ca.L / 2) * (m * (m + 1) / 2)
	}
	return pl.p.SwitchCount()
}

// PlanRouter is the optional compiled-plan surface of a Network: Compile
// runs the self-routing control plane once for a permutation and records
// the resulting switch settings; Replay routes a batch along a compiled
// plan without re-running the arbiters — pure wire-following, zero
// steady-state allocations. *BNB implements it natively. Discover the
// surface with AsPlanRouter, which sees through New's decorators.
type PlanRouter interface {
	// Compile records the switch settings realizing the permutation.
	Compile(p Perm) (*Plan, error)
	// Replay routes src into dst along the plan. The source addresses must
	// match the plan's permutation (ErrPlanMismatch otherwise); dst may be
	// src itself but must not partially overlap it.
	Replay(pl *Plan, dst, src []Word) error
}

// AsPlanRouter returns the compiled-plan surface of n, or ok = false when
// neither the network nor anything under its decorators offers one.
func AsPlanRouter(n Network) (PlanRouter, bool) { return asSurface[PlanRouter](n) }

// Compile implements PlanRouter: it runs the BNB self-routing control plane
// once for the permutation — one full arbiter-tree pass — and records every
// switch decision into an immutable Plan. Safe for concurrent use.
func (b *BNB) Compile(p Perm) (*Plan, error) {
	cp, err := b.n.Compile(p)
	if err != nil {
		return nil, err
	}
	return &Plan{p: cp}, nil
}

// Replay implements PlanRouter: it routes src into dst along a compiled
// plan by pure wire-following, with zero heap allocations when dst and src
// are distinct slices. The source addresses must match the plan's
// permutation — a mismatched batch fails with ErrPlanMismatch instead of
// misdelivering. Safe for concurrent use.
func (b *BNB) Replay(pl *Plan, dst, src []Word) error {
	if pl == nil {
		return fmt.Errorf("bnbnet: nil plan")
	}
	if pl.p == nil {
		return fmt.Errorf("bnbnet: %w: plan was compiled on a cluster, not a BNB network", ErrPlanMismatch)
	}
	return b.n.Replay(pl.p, dst, src)
}

// PlanCacheStats is a point-in-time view of one plan cache: entry count,
// capacity, and the hit/miss/eviction counters. HitRatio derives the cache
// effectiveness.
type PlanCacheStats = plancache.Stats

// cachedPlanRouter is the compiled-plan fast path WithPlanCache installs in
// front of an engine or a supervised plane: each request's permutation is
// looked up in a lock-free plan cache and replayed on a hit; a miss
// compiles a fresh plan (one live self-routing pass), publishes it, and
// replays it. Hits, misses, evictions and compile cost land in the Metrics
// sink; per-request spans record compile vs. replay attribution.
type cachedPlanRouter struct {
	b     *BNB
	cache *plancache.Cache[*core.Plan]
	m     *metrics.Metrics
}

// Inputs implements engine.Router.
func (r *cachedPlanRouter) Inputs() int { return r.b.Inputs() }

// RouteInto implements engine.Router.
func (r *cachedPlanRouter) RouteInto(dst, src []Word) error {
	return r.RouteIntoTraced(dst, src, nil)
}

// RouteIntoTraced implements the engine's span-carrying surface: cache hits
// replay without touching the arbiter tree; misses compile, publish and
// replay, with the compile cost attributed on the span.
func (r *cachedPlanRouter) RouteIntoTraced(dst, src []Word, sp *trace.Span) error {
	if pl := r.cache.Lookup(src); pl != nil {
		// The cache compares addresses element-wise, so a hit always
		// satisfies Replay's plan-match check.
		if err := r.b.n.Replay(pl, dst, src); err != nil {
			return err
		}
		r.m.AddPlanHit()
		sp.MarkPlanHit()
		return nil
	}
	p := make(perm.Perm, len(src))
	for i, wd := range src {
		p[i] = wd.Addr
	}
	start := time.Now()
	pl, err := r.b.n.Compile(p)
	elapsed := time.Since(start)
	if err != nil {
		// Malformed requests (not a permutation, wrong size) fail here with
		// the same sentinels the live route would report.
		return err
	}
	r.m.AddPlanMiss()
	r.m.AddPlanCompile(elapsed)
	sp.SetPlanCompile(elapsed)
	if r.cache.Insert(pl) {
		r.m.AddPlanEviction()
	}
	return r.b.n.Replay(pl, dst, src)
}

// publishExpvar registers fn under the expvar name, erroring (instead of
// panicking, as expvar itself would) when the name is taken.
func publishExpvar(name string, fn func() any) error {
	if expvar.Get(name) != nil {
		return fmt.Errorf("bnbnet: expvar name %q already published", name)
	}
	expvar.Publish(name, expvar.Func(fn))
	return nil
}

// newCachedPlanRouter wraps the network's compiled-plan surface with a
// fresh plan cache of the given capacity. It reports ok = false when the
// network (after unwrapping decorators) has no such surface.
func newCachedPlanRouter(n Network, entries int, m *metrics.Metrics) (*cachedPlanRouter, bool) {
	b, ok := asSurface[*BNB](n)
	if !ok {
		return nil, false
	}
	return &cachedPlanRouter{b: b, cache: plancache.New[*core.Plan](entries), m: m}, true
}
