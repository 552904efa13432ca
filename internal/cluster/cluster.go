// Package cluster routes global permutations across a fleet of shards via
// the Baumslag–Annexstein product decomposition.
//
// A permutation on N = S·L ports (S shards of L local ports each) factors
// into three stages:
//
//	stage A   inter-shard exchange at a fixed local column h0
//	stage B   an independent local permutation inside every shard
//	stage C   inter-shard exchange at a fixed local column h1
//
// Writing global port i as (g, h) with g = i/L the shard and h = i%L the
// local port, an element sourced at (g0, h0) and destined for (g1, h1)
// transits an intermediate shard c: stage A moves it (g0,h0) → (c,h0),
// stage B routes it (c,h0) → (c,h1) inside shard c, and stage C moves it
// (c,h1) → (g1,h1). The intermediate shards are chosen by edge coloring
// the bipartite column multigraph (see coloring.go) so that every stage is
// itself a permutation — stage A and C never collide and every shard
// receives exactly one word per local port.
//
// The Coordinator owns the decomposition and the scatter-gather; shards
// are Submit/Wait routers (the supervised BNB stack at the root package
// satisfies the interface via a one-line adapter, which serves an idle
// shard's batch on the calling goroutine and returns it already settled).
package cluster

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/neterr"
)

// Pending is an in-flight shard routing request. *engine.Ticket satisfies
// it structurally; tests use synchronous fakes.
type Pending interface {
	Wait() ([]core.Word, error)
}

// Shard is one routing backend serving L local ports. Submit enqueues the
// local batch, or serves it before returning, and returns a Pending that
// settles when dst is filled with the routed words (dst[j] carries the
// word addressed to local port j).
type Shard interface {
	Inputs() int
	Submit(ctx context.Context, dst, src []core.Word) (Pending, error)
}

// Assignment is a compiled product decomposition of one global
// permutation: the inter-shard stages and per-shard local permutations.
// It is immutable after Decompose and safe to replay concurrently.
type Assignment struct {
	// S and L are the shard count and local ports per shard.
	S, L int
	// P is the global permutation this assignment routes (P[i] is the
	// destination of the word sourced at global port i).
	P []int
	// Mid[i] is the intermediate shard transited by the word sourced at
	// global port i.
	Mid []int32
	// Local[c][h0] is the local destination port inside shard c for the
	// word arriving at local port h0 — each row is a permutation of [0,L).
	Local [][]int32
	// Final[c][h1] is the global destination port of the word leaving
	// shard c at local port h1.
	Final [][]int32
}

// Inputs returns the aggregate port count S·L.
func (a *Assignment) Inputs() int { return a.S * a.L }

// PermView returns the routed global permutation P without copying; the
// assignment cache keys on it. Callers must not modify it.
func (a *Assignment) PermView() []int { return a.P }

// scratch is the reusable per-route buffer set: one src and one dst slab
// per shard plus the pending-ticket slice.
type scratch struct {
	src, dst [][]core.Word
	pend     []Pending
}

// colorScratch is the reusable decomposition buffer set: the edge colorer
// and the permutation check's seen bitmap.
type colorScratch struct {
	ec   *edgeColorer
	seen []uint64
}

// Coordinator scatters global permutations over a fixed set of shards.
// It is safe for concurrent use; membership is immutable (the public
// Cluster type swaps whole Coordinators to change membership).
type Coordinator struct {
	shards  []Shard
	s, l, n int
	pool    sync.Pool // *scratch, for routeWith
	cpool   sync.Pool // *colorScratch, for decompose
}

// New builds a Coordinator over the given shards. All shards must serve
// the same number of local ports.
func New(shards []Shard) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	l := shards[0].Inputs()
	if l <= 0 {
		return nil, fmt.Errorf("cluster: shard reports %d ports", l)
	}
	for i, sh := range shards {
		if sh.Inputs() != l {
			return nil, fmt.Errorf("cluster: shard %d serves %d ports, shard 0 serves %d", i, sh.Inputs(), l)
		}
	}
	s := len(shards)
	c := &Coordinator{shards: append([]Shard(nil), shards...), s: s, l: l, n: s * l}
	c.pool.New = func() any {
		sc := &scratch{
			src:  make([][]core.Word, s),
			dst:  make([][]core.Word, s),
			pend: make([]Pending, s),
		}
		for g := 0; g < s; g++ {
			sc.src[g] = make([]core.Word, l)
			sc.dst[g] = make([]core.Word, l)
		}
		return sc
	}
	c.cpool.New = func() any {
		return &colorScratch{ec: newEdgeColorer(l, s, s*l), seen: make([]uint64, (s*l+63)/64)}
	}
	return c, nil
}

// Inputs returns the aggregate port count.
func (c *Coordinator) Inputs() int { return c.n }

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return c.s }

// ShardPorts returns the local port count per shard.
func (c *Coordinator) ShardPorts() int { return c.l }

// Decompose computes the product decomposition of the permutation p
// (p[i] = destination of global port i): the intermediate-shard choice via
// bipartite edge coloring plus the per-shard local permutations.
func (c *Coordinator) Decompose(p []int) (*Assignment, error) {
	if len(p) != c.n {
		return nil, fmt.Errorf("%w: got %d entries, want %d", neterr.ErrBadSize, len(p), c.n)
	}
	a := c.newAssignment()
	copy(a.P, p)
	return c.decompose(a)
}

// newAssignment allocates an Assignment for this membership in four
// allocations: the struct, P, one int32 slab carved into Mid and every
// Local and Final row, and one slice of row headers shared by Local and
// Final.
func (c *Coordinator) newAssignment() *Assignment {
	s, l, n := c.s, c.l, c.n
	slab := make([]int32, 3*n)
	rows := make([][]int32, 2*s)
	a := &Assignment{S: s, L: l, P: make([]int, n), Mid: slab[:n:n], Local: rows[:s:s], Final: rows[s:]}
	for g := 0; g < s; g++ {
		lo := n + 2*g*l
		a.Local[g] = slab[lo : lo+l : lo+l]
		a.Final[g] = slab[lo+l : lo+2*l : lo+2*l]
	}
	return a
}

// decompose checks that a.P is a permutation and fills the rest of a.
func (c *Coordinator) decompose(a *Assignment) (*Assignment, error) {
	cs := c.cpool.Get().(*colorScratch)
	defer c.cpool.Put(cs)
	seen := cs.seen
	clear(seen)
	for i, d := range a.P {
		if d < 0 || d >= c.n || seen[d>>6]&(1<<uint(d&63)) != 0 {
			return nil, fmt.Errorf("%w: entry %d maps to %d", neterr.ErrNotPermutation, i, d)
		}
		seen[d>>6] |= 1 << uint(d&63)
	}
	// Global port i is (shard g, port h) with i = g·L + h; walking the two
	// nested keeps h without a division.
	ec := cs.ec
	ec.reset()
	s, l := c.s, c.l
	for g, i := 0, 0; g < s; g++ {
		for h := 0; h < l; h, i = h+1, i+1 {
			if err := ec.insert(int32(h), int32(a.P[i]%l)); err != nil {
				return nil, err
			}
		}
	}
	for g, i := 0, 0; g < s; g++ {
		for h := 0; h < l; h, i = h+1, i+1 {
			col := ec.color[i]
			h1 := ec.ends[i][1] - int32(l)
			a.Mid[i] = col
			a.Local[col][h] = h1
			a.Final[col][h1] = int32(a.P[i])
		}
	}
	return a, nil
}

// Route decomposes the permutation carried by the src addresses and routes
// it: dst[j] receives the word addressed to global port j, with its Data
// payload intact. dst may alias src. It blocks until every shard settles.
func (c *Coordinator) Route(ctx context.Context, dst, src []core.Word) error {
	_, err := c.DecomposeAndRoute(ctx, dst, src)
	return err
}

// DecomposeAndRoute is Route that also returns the Assignment it
// computed, so a caller can replay it later with RouteAssigned. The
// assignment is nil when the src addresses could not be decomposed and
// non-nil, and valid, whenever they could, even if routing then failed.
func (c *Coordinator) DecomposeAndRoute(ctx context.Context, dst, src []core.Word) (*Assignment, error) {
	if len(dst) != c.n || len(src) != c.n {
		return nil, fmt.Errorf("%w: got %d/%d words, want %d", neterr.ErrBadSize, len(src), len(dst), c.n)
	}
	a := c.newAssignment()
	for i, w := range src {
		a.P[i] = w.Addr
	}
	a, err := c.decompose(a)
	if err != nil {
		return nil, err
	}
	return a, c.routeWith(ctx, dst, src, a)
}

// RouteAssigned replays a previously computed Assignment. The src
// addresses must carry exactly the assignment's permutation; a mismatch
// returns ErrPlanMismatch without submitting anything.
func (c *Coordinator) RouteAssigned(ctx context.Context, dst, src []core.Word, a *Assignment) error {
	if a == nil || a.S != c.s || a.L != c.l {
		return fmt.Errorf("%w: assignment shape %dx%d, cluster %dx%d", neterr.ErrPlanMismatch, shapeS(a), shapeL(a), c.s, c.l)
	}
	if len(dst) != c.n || len(src) != c.n {
		return fmt.Errorf("%w: got %d/%d words, want %d", neterr.ErrBadSize, len(src), len(dst), c.n)
	}
	for i, w := range src {
		if w.Addr != a.P[i] {
			return fmt.Errorf("%w: src[%d] addressed to %d, assignment expects %d", neterr.ErrPlanMismatch, i, w.Addr, a.P[i])
		}
	}
	return c.routeWith(ctx, dst, src, a)
}

func shapeS(a *Assignment) int {
	if a == nil {
		return 0
	}
	return a.S
}

func shapeL(a *Assignment) int {
	if a == nil {
		return 0
	}
	return a.L
}

// routeWith runs the three stages: scatter (stage A reshuffle into
// per-shard batches), shard routing (stage B, scatter-gather over
// Submit/Wait), and the final exchange (stage C) into dst.
func (c *Coordinator) routeWith(ctx context.Context, dst, src []core.Word, a *Assignment) error {
	sc := c.pool.Get().(*scratch)
	defer c.pool.Put(sc)

	// Stage A: the word sourced at global port i = (g0,h0) lands in its
	// intermediate shard's batch at the same column h0, readdressed to its
	// stage-B local destination. Reads of src complete before any write to
	// dst, so dst may alias src.
	l := c.l
	for g, i := 0, 0; g < c.s; g++ {
		for h0 := 0; h0 < l; h0, i = h0+1, i+1 {
			mid := a.Mid[i]
			sc.src[mid][h0] = core.Word{Addr: int(a.Local[mid][h0]), Data: src[i].Data}
		}
	}

	// Stage B: submit every shard batch, then settle every ticket. A
	// submit failure stops further submits but already-submitted tickets
	// are still waited so shard buffers are quiescent on return.
	var firstErr error
	for g := range sc.pend {
		sc.pend[g] = nil
	}
	for g := 0; g < c.s; g++ {
		t, err := c.shards[g].Submit(ctx, sc.dst[g], sc.src[g])
		if err != nil {
			firstErr = fmt.Errorf("cluster: shard %d: %w", g, err)
			break
		}
		sc.pend[g] = t
	}
	for g, t := range sc.pend {
		if t == nil {
			continue
		}
		out, err := t.Wait()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: shard %d: %w", g, err)
			}
			continue
		}
		if out != nil {
			sc.dst[g] = out
		}
	}
	if firstErr != nil {
		return firstErr
	}

	// Stage C: the word leaving shard c at column h1 belongs at global
	// port Final[c][h1]; restore the global address and deliver.
	for g := 0; g < c.s; g++ {
		fin := a.Final[g]
		sd := sc.dst[g]
		if len(sd) != l {
			return fmt.Errorf("%w: shard %d returned %d words, want %d", neterr.ErrMisrouted, g, len(sd), l)
		}
		for h1 := 0; h1 < l; h1++ {
			if sd[h1].Addr != h1 {
				return fmt.Errorf("%w: shard %d delivered address %d at port %d", neterr.ErrMisrouted, g, sd[h1].Addr, h1)
			}
			d := int(fin[h1])
			dst[d] = core.Word{Addr: d, Data: sd[h1].Data}
		}
	}
	return nil
}
