package bnbnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// clusterCacheStats returns the current membership's assignment-cache
// counters, failing the test when the cluster reports none.
func clusterCacheStats(t *testing.T, c *Cluster) PlanCacheStats {
	t.Helper()
	st := c.Stats()
	if len(st.PlanCaches) != 1 {
		t.Fatalf("cluster Stats carries %d plan caches, want 1", len(st.PlanCaches))
	}
	return st.PlanCaches[0]
}

// routeChecked routes p through the cluster with each source index as the
// payload and fails the test on an error or a misdelivered word.
func routeChecked(t *testing.T, c *Cluster, p Perm) []Word {
	t.Helper()
	out, err := c.RoutePerm(p)
	if err != nil {
		t.Fatalf("RoutePerm: %v", err)
	}
	if err := checkDelivered(p, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkDelivered reports whether out is p's routing of permWords(p).
func checkDelivered(p Perm, out []Word) error {
	if len(out) != len(p) {
		return fmt.Errorf("routed %d words, want %d", len(out), len(p))
	}
	for i, d := range p {
		if out[d].Addr != d || out[d].Data != uint64(i) {
			return fmt.Errorf("misrouted: out[%d] = %+v, want {%d %d}", d, out[d], d, i)
		}
	}
	return nil
}

// TestClusterCacheHitMatchesMiss routes each permutation three times: a
// first sighting the doorkeeper turns away, a second that admits the
// assignment, and a cache hit. All three outputs must agree word for word.
func TestClusterCacheHitMatchesMiss(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for m := 3; m <= 5; m++ {
		for s := 2; s <= 4; s++ {
			c, err := NewCluster("bnb", m, WithShards(s))
			if err != nil {
				t.Fatalf("NewCluster(m=%d, S=%d): %v", m, s, err)
			}
			for k := 0; k < 3; k++ {
				p := RandomPerm(c.Inputs(), rng)
				first := routeChecked(t, c, p)
				second := routeChecked(t, c, p)
				before := clusterCacheStats(t, c).Hits
				hit := routeChecked(t, c, p)
				if got := clusterCacheStats(t, c).Hits; got != before+1 {
					t.Fatalf("m=%d S=%d: third route of a permutation: hits %d -> %d, want a hit", m, s, before, got)
				}
				for j := range first {
					if first[j] != second[j] || first[j] != hit[j] {
						t.Fatalf("m=%d S=%d: output %d differs: %+v / %+v / %+v", m, s, j, first[j], second[j], hit[j])
					}
				}
			}
			st := clusterCacheStats(t, c)
			if st.Entries != 3 || st.Hits != 3 || st.Misses != 6 || st.Rejected != 3 {
				t.Fatalf("m=%d S=%d: cache stats %+v, want 3 entries, 3 hits, 6 misses, 3 rejected", m, s, st)
			}
			c.Close()
		}
	}
}

// TestClusterCacheOneEntry alternates two permutations through a 1-entry
// assignment cache, so each admission evicts the other's entry and every
// lookup probes a slot the other permutation may hold; neither may ever
// be misrouted.
func TestClusterCacheOneEntry(t *testing.T) {
	c, err := NewCluster("bnb", 3, WithShards(2), WithPlanCache(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(9))
	pa, pb := RandomPerm(c.Inputs(), rng), RandomPerm(c.Inputs(), rng)
	for round := 0; round < 20; round++ {
		routeChecked(t, c, pa)
		routeChecked(t, c, pa)
		routeChecked(t, c, pb)
	}
	st := clusterCacheStats(t, c)
	if st.Capacity != 1 || st.Entries > 1 {
		t.Fatalf("stats %+v, want capacity 1 and at most 1 entry", st)
	}
	if st.Hits+st.Misses != 60 || st.Hits == 0 {
		t.Fatalf("stats %+v, want 60 lookups with some hits", st)
	}
}

// TestClusterCacheMembership checks that a membership change starts from
// an empty cache: a permutation cached under the old membership is now
// the wrong size, and a permutation of the new size routes correctly,
// first as a miss and then from the new snapshot's own cache.
func TestClusterCacheMembership(t *testing.T) {
	c, err := NewCluster("bnb", 3, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(11))
	old := RandomPerm(c.Inputs(), rng)
	for i := 0; i < 3; i++ {
		routeChecked(t, c, old)
	}
	if st := clusterCacheStats(t, c); st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("before AddShard: stats %+v, want 1 entry and 1 hit", st)
	}
	if _, err := c.AddShard(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := clusterCacheStats(t, c); st != (PlanCacheStats{Capacity: st.Capacity}) {
		t.Fatalf("after AddShard: stats %+v, want an empty cache", st)
	}
	if _, err := c.RoutePerm(old); !errors.Is(err, ErrBadSize) {
		t.Fatalf("old-membership permutation: err = %v, want ErrBadSize", err)
	}
	p := RandomPerm(c.Inputs(), rng)
	for i := 0; i < 3; i++ {
		routeChecked(t, c, p)
	}
	if st := clusterCacheStats(t, c); st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("after AddShard: stats %+v, want 1 entry and 1 hit", st)
	}
}

// TestClusterCacheDoorkeeper routes 10k distinct permutations: none is
// seen twice, so the doorkeeper admits none and the cache stays empty.
func TestClusterCacheDoorkeeper(t *testing.T) {
	c, err := NewCluster("bnb", 3, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const routes = 10000
	rng := rand.New(rand.NewSource(13))
	seen := make(map[string]bool, routes)
	for len(seen) < routes {
		p := RandomPerm(c.Inputs(), rng)
		key := fmt.Sprint(p)
		if seen[key] {
			continue
		}
		seen[key] = true
		routeChecked(t, c, p)
	}
	st := clusterCacheStats(t, c)
	if st.Entries != 0 || st.Hits != 0 || st.Misses != routes || st.Rejected != routes {
		t.Fatalf("stats %+v, want empty with %d misses and %d rejected", st, routes, routes)
	}
}

// TestClusterCacheDisabled checks that WithPlanCache(0) turns the
// assignment cache off along with the shards' plan caches.
func TestClusterCacheDisabled(t *testing.T) {
	c, err := NewCluster("bnb", 3, WithShards(2), WithPlanCache(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := RandomPerm(c.Inputs(), rand.New(rand.NewSource(17)))
	for i := 0; i < 3; i++ {
		routeChecked(t, c, p)
	}
	st := c.Stats()
	if st.PlanCaches != nil {
		t.Fatalf("cluster PlanCaches = %+v, want none", st.PlanCaches)
	}
	for _, sh := range st.Shards {
		if sh.PlanCaches != nil {
			t.Fatalf("shard %d PlanCaches = %+v, want none", sh.Index, sh.PlanCaches)
		}
	}
	if f := c.fab.Load(); f.cache != nil {
		t.Fatal("membership snapshot carries an assignment cache")
	}
}

// TestClusterCacheBatchChurn runs RouteBatch over batches that repeat
// permutations from a small working set, so cache hits, first and second
// sightings race one another, while shards are added and drained. Every
// request must deliver word for word or be rejected as the wrong size by
// a membership change; nothing may be lost or misrouted.
func TestClusterCacheBatchChurn(t *testing.T) {
	c, err := NewCluster("bnb", 3, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(19))
	sets := map[int][]Perm{}
	for _, n := range []int{16, 24} {
		for i := 0; i < 4; i++ {
			sets[n] = append(sets[n], RandomPerm(n, rng))
		}
	}

	var stop atomic.Bool
	var routed, rejected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				set := sets[c.Inputs()]
				ps := make([]Perm, 8)
				for i := range ps {
					ps[i] = set[rng.Intn(len(set))]
				}
				outs, errs := c.RoutePermBatch(ps)
				for i, err := range errs {
					if err != nil {
						if errors.Is(err, ErrBadSize) {
							rejected.Add(1)
							continue
						}
						t.Errorf("RouteBatch: %v", err)
						return
					}
					if err := checkDelivered(ps[i], outs[i]); err != nil {
						t.Error(err)
						return
					}
					routed.Add(1)
				}
			}
		}(int64(g))
	}

	var hits int64
	for cycle := 0; cycle < 3; cycle++ {
		time.Sleep(20 * time.Millisecond)
		hits += clusterCacheStats(t, c).Hits
		if _, err := c.AddShard(context.Background()); err != nil {
			t.Fatalf("AddShard: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
		hits += clusterCacheStats(t, c).Hits
		if _, err := c.RemoveShard(context.Background()); err != nil {
			t.Fatalf("RemoveShard: %v", err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	if routed.Load() == 0 || hits == 0 {
		t.Fatalf("churn routed %d requests with %d cache hits; want both nonzero", routed.Load(), hits)
	}
	t.Logf("churn: %d routed, %d resized-rejected, %d cache hits", routed.Load(), rejected.Load(), hits)
}

// TestClusterCacheHitAllocs pins the allocation cost of a cache-hit
// cluster route at m=5 over 4 shards, bnbserve's default shape. When every
// shard is served on the calling goroutine, each of the four shard
// requests allocates only its ticket, which has no channel; a queued
// request would allocate the channel as well. The bound is the queued
// path's cost (12 objects per route: four tickets, four channels, and the
// route's fixed four), so a change that made the caller-runs path
// allocate more than the queued path did fails here.
func TestClusterCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	const maxAllocs = 12
	c, err := NewCluster("bnb", 5, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := RandomPerm(c.Inputs(), rand.New(rand.NewSource(1)))
	src := permWords(p)
	dst := make([]Word, len(src))
	for i := 0; i < 3; i++ { // first sighting, admission, then a hit
		routeIntoChecked(t, c, p, dst, src)
	}
	if st := clusterCacheStats(t, c); st.Hits == 0 {
		t.Fatalf("the warm-up never hit the assignment cache: %+v", st)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.RouteIntoCtx(context.Background(), dst, src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocs {
		t.Errorf("cache-hit cluster route allocates %.1f objects, want <= %d", allocs, maxAllocs)
	}
	if err := checkDelivered(p, dst); err != nil {
		t.Fatal(err)
	}
	t.Logf("cache-hit cluster route: %.1f allocs", allocs)
}

// routeIntoChecked routes src (permWords(p)) into dst and fails the test
// on an error or a misdelivered word.
func routeIntoChecked(t *testing.T, c *Cluster, p Perm, dst, src []Word) {
	t.Helper()
	if err := c.RouteIntoCtx(context.Background(), dst, src); err != nil {
		t.Fatalf("RouteIntoCtx: %v", err)
	}
	if err := checkDelivered(p, dst); err != nil {
		t.Fatal(err)
	}
}
