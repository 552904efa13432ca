// Package plancache is a lock-free sharded cache of compiled route plans,
// keyed by permutation. It serves the repeated-permutation traffic shape —
// connection tables and fixed shuffle schedules replay the same few
// permutations for many batches — where the winning move is to compile the
// switch settings once and replay them from cache (DESIGN.md §12).
//
// The cache is wait-free for readers: each shard holds an immutable entry
// slice behind an atomic.Pointer, so Lookup is a pointer load plus a scan,
// with no locks, no reference counting, and no memory barriers beyond the
// load. Writers build a fresh slice and install it with compare-and-swap,
// retrying on contention. Eviction is CLOCK second-chance: every hit sets
// the entry's touched bit, and an inserting writer evicts the first
// untouched entry, clearing touched bits as it scans — an LRU approximation
// that needs no per-hit writes beyond one atomic bool store.
package plancache

import (
	"sync/atomic"

	"repro/internal/core"
)

// Yield, when non-nil, is invoked at the two linearization-sensitive points
// of the cache — after a reader snapshots a shard and before a writer's
// compare-and-swap — so the deterministic-schedule tests can interleave
// fill, lookup and eviction at will. Production leaves it nil.
var Yield func()

// entry is one cached plan. The key aliases the plan's immutable
// permutation (no copy); touched is the CLOCK reference bit.
type entry struct {
	hash    uint64
	key     []int
	plan    *core.Plan
	touched atomic.Bool
}

// shard is an immutable slice of entries behind one atomic pointer. The
// slice itself is never mutated after publication; only the entries'
// touched bits are written in place (they are atomic and advisory).
type shard struct {
	entries atomic.Pointer[[]*entry]
}

// Cache is a lock-free sharded plan cache. Construct with New; a nil *Cache
// is the disabled cache (Lookup always misses, Insert drops the plan), so
// callers need no nil checks on the hot path. All methods are safe for
// concurrent use.
type Cache struct {
	shards   []shard
	mask     uint64
	perShard int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// New builds a cache bounded at roughly the given number of entries,
// distributed over power-of-two shards. entries <= 0 returns the disabled
// (nil) cache.
func New(entries int) *Cache {
	if entries <= 0 {
		return nil
	}
	// Shard count scales with capacity but stays small: one shard per 32
	// entries, capped at 16, so tiny caches do not round their capacity away.
	nShards := 1
	for nShards < 16 && nShards*32 < entries {
		nShards <<= 1
	}
	perShard := (entries + nShards - 1) / nShards
	return &Cache{
		shards:   make([]shard, nShards),
		mask:     uint64(nShards - 1),
		perShard: perShard,
	}
}

// Capacity returns the maximum number of plans the cache holds; 0 on the
// disabled cache.
func (c *Cache) Capacity() int {
	if c == nil {
		return 0
	}
	return len(c.shards) * c.perShard
}

// hashAddrs is FNV-1a over the destination addresses.
func hashAddrs(src []core.Word) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, wd := range src {
		h ^= uint64(wd.Addr)
		h *= prime64
	}
	return h
}

// hashKey is hashAddrs over an already-flattened key.
func hashKey(key []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, d := range key {
		h ^= uint64(d)
		h *= prime64
	}
	return h
}

// Lookup returns the cached plan whose permutation matches the batch's
// destination addresses, or nil on a miss. The scan is wait-free: one atomic
// pointer load and an element-wise compare against the hash-matching
// entries. A hit marks the entry recently used. Nil-safe (always a miss).
func (c *Cache) Lookup(src []core.Word) *core.Plan {
	if c == nil {
		return nil
	}
	h := hashAddrs(src)
	sh := &c.shards[h&c.mask]
	snap := sh.entries.Load()
	if Yield != nil {
		Yield()
	}
	if snap != nil {
		for _, e := range *snap {
			if e.hash != h || len(e.key) != len(src) {
				continue
			}
			match := true
			for i, d := range e.key {
				if src[i].Addr != d {
					match = false
					break
				}
			}
			if match {
				e.touched.Store(true)
				c.hits.Add(1)
				return e.plan
			}
		}
	}
	c.misses.Add(1)
	return nil
}

// Insert publishes a compiled plan into the cache, evicting a
// least-recently-used-approximate victim when the shard is full. It reports
// whether an existing plan was evicted. Inserting a permutation that is
// already cached is a no-op (the incumbent wins — both plans are equivalent,
// and keeping the incumbent preserves its recency state). Nil-safe (drops
// the plan).
func (c *Cache) Insert(plan *core.Plan) (evicted bool) {
	if c == nil || plan == nil {
		return false
	}
	key := plan.PermView()
	h := hashKey(key)
	e := &entry{hash: h, key: key, plan: plan}
	e.touched.Store(true)
	sh := &c.shards[h&c.mask]
	for {
		snap := sh.entries.Load()
		var cur []*entry
		if snap != nil {
			cur = *snap
		}
		dup := false
		for _, old := range cur {
			if old.hash == h && equalKey(old.key, key) {
				dup = true
				break
			}
		}
		if dup {
			return false
		}
		next := make([]*entry, 0, len(cur)+1)
		drop := -1
		if len(cur) >= c.perShard {
			// CLOCK second chance: evict the first untouched entry, clearing
			// reference bits as we scan; if every entry was touched since the
			// last eviction, the oldest (slot 0) goes.
			drop = 0
			for i, old := range cur {
				if !old.touched.Swap(false) {
					drop = i
					break
				}
			}
		}
		for i, old := range cur {
			if i != drop {
				next = append(next, old)
			}
		}
		next = append(next, e)
		if Yield != nil {
			Yield()
		}
		if sh.entries.CompareAndSwap(snap, &next) {
			if drop >= 0 {
				c.evictions.Add(1)
			}
			return drop >= 0
		}
	}
}

func equalKey(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, d := range a {
		if b[i] != d {
			return false
		}
	}
	return true
}

// Hot returns up to k cached plans, preferring entries whose CLOCK
// reference bit is set (recently hit) over cold ones. This is the rollout
// pre-warm export: a live reconfiguration reads the hottest plans of the
// outgoing cache, re-verifies each on the replacement plane, and seeds the
// fresh cache so the first post-rollout requests hit instead of paying a
// compile. Reading leaves the reference bits untouched. Nil-safe.
func (c *Cache) Hot(k int) []*core.Plan {
	if c == nil || k <= 0 {
		return nil
	}
	var hot, cold []*core.Plan
	for i := range c.shards {
		snap := c.shards[i].entries.Load()
		if snap == nil {
			continue
		}
		for _, e := range *snap {
			if e.touched.Load() {
				hot = append(hot, e.plan)
			} else {
				cold = append(cold, e.plan)
			}
		}
	}
	if len(hot) < k {
		hot = append(hot, cold...)
	}
	if len(hot) > k {
		hot = hot[:k]
	}
	return hot
}

// Len returns the number of cached plans; 0 on the disabled cache.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	total := 0
	for i := range c.shards {
		if snap := c.shards[i].entries.Load(); snap != nil {
			total += len(*snap)
		}
	}
	return total
}

// Stats is a point-in-time view of the cache.
type Stats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// HitRatio returns hits/(hits+misses), 0 before any lookup.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns the cache counters; the zero Stats on the disabled cache.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Entries:   c.Len(),
		Capacity:  c.Capacity(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}
