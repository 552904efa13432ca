// Package plancache is a lock-free sharded cache of compiled routing
// artefacts, keyed by permutation. It serves the repeated-permutation
// traffic shape — connection tables and fixed shuffle schedules replay the
// same few permutations for many batches — where the winning move is to
// compute the switch settings once and replay them from cache (DESIGN.md
// §12). The cache is generic over the cached value: a network's compiled
// *core.Plan, or a cluster's *cluster.Assignment (DESIGN.md §16); anything
// that exposes the permutation it routes.
//
// The cache is wait-free for readers: each shard holds an immutable entry
// slice behind an atomic.Pointer, so Lookup is a pointer load plus a scan,
// with no locks, no reference counting, and no memory barriers beyond the
// load. Writers build a fresh slice and install it with compare-and-swap,
// retrying on contention. Eviction is CLOCK second-chance: every hit sets
// the entry's touched bit, and an inserting writer evicts the first
// untouched entry, clearing touched bits as it scans — an LRU approximation
// that needs no per-hit writes beyond one atomic bool store.
//
// A cache built with NewAdmitting also has a doorkeeper: a fixed table of
// recently offered permutation hashes. Insert admits a value only when its
// hash is already in the table, so a permutation enters the cache on its
// second sighting and a never-repeating stream leaves the cache empty
// instead of churning it full of entries that will never hit.
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

// Value is what the cache holds: an immutable routing artefact that
// exposes, without copying, the permutation it routes (PermView()[i] is the
// destination of the word at input i). The cache keys on that view, so the
// value must never change it.
type Value interface {
	comparable
	PermView() []int
}

// entry is one cached value. The key aliases the value's immutable
// permutation (no copy); touched is the CLOCK reference bit.
type entry[V Value] struct {
	hash    uint64
	key     []int
	val     V
	touched atomic.Bool
}

// shard is an immutable slice of entries behind one atomic pointer. The
// slice itself is never mutated after publication; only the entries'
// touched bits are written in place (they are atomic and advisory).
type shard[V Value] struct {
	entries atomic.Pointer[[]*entry[V]]
}

// Cache is a lock-free sharded cache. Construct with New or NewAdmitting; a
// nil *Cache is the disabled cache (Lookup always misses, Insert drops the
// value), so callers need no nil checks on the hot path. All methods are
// safe for concurrent use.
type Cache[V Value] struct {
	shards   []shard[V]
	mask     uint64
	perShard int

	// door is the doorkeeper of an admitting cache, nil otherwise: slot
	// h&doorMask remembers the last hash h offered to Insert there.
	door     []atomic.Uint64
	doorMask uint64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	rejected  atomic.Int64
}

// New builds a cache bounded at roughly the given number of entries,
// distributed over power-of-two shards, that admits every inserted value.
// entries <= 0 returns the disabled (nil) cache.
func New[V Value](entries int) *Cache[V] {
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
	return &Cache[V]{
		shards:   make([]shard[V], nShards),
		mask:     uint64(nShards - 1),
		perShard: perShard,
	}
}

// NewAdmitting is New with a doorkeeper: Insert admits a value only when
// its permutation was offered before and is still remembered. The
// doorkeeper remembers up to the next power of two at or above four times
// the capacity of recent hashes, one 8-byte slot each.
func NewAdmitting[V Value](entries int) *Cache[V] {
	c := New[V](entries)
	if c == nil {
		return nil
	}
	slots := 1
	for slots < 4*c.Capacity() {
		slots <<= 1
	}
	c.door = make([]atomic.Uint64, slots)
	c.doorMask = uint64(slots - 1)
	return c
}

// Capacity returns the maximum number of values the cache holds; 0 on the
// disabled cache.
func (c *Cache[V]) Capacity() int {
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

// Lookup returns the cached value whose permutation matches the batch's
// destination addresses, or the zero V (nil) on a miss. The scan is
// wait-free: one atomic pointer load and an element-wise compare against the
// hash-matching entries. A hit marks the entry recently used. Nil-safe
// (always a miss).
func (c *Cache[V]) Lookup(src []core.Word) V {
	var zero V
	if c == nil {
		return zero
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
				return e.val
			}
		}
	}
	c.misses.Add(1)
	return zero
}

// Insert publishes a value into the cache, evicting a
// least-recently-used-approximate victim when the shard is full. It reports
// whether an existing value was evicted. Inserting a permutation that is
// already cached is a no-op (the incumbent wins — both values are
// equivalent, and keeping the incumbent preserves its recency state). On an
// admitting cache, a permutation the doorkeeper does not remember is
// recorded there and dropped. Nil-safe (drops the value).
func (c *Cache[V]) Insert(val V) (evicted bool) {
	var zero V
	if c == nil || val == zero {
		return false
	}
	key := val.PermView()
	h := hashKey(key)
	if c.door != nil {
		// A racing Insert of another hash may overwrite the slot between
		// the load and the store; that only costs one of them a sighting.
		slot := &c.door[h&c.doorMask]
		if slot.Load() != h {
			slot.Store(h)
			c.rejected.Add(1)
			return false
		}
	}
	e := &entry[V]{hash: h, key: key, val: val}
	e.touched.Store(true)
	sh := &c.shards[h&c.mask]
	for {
		snap := sh.entries.Load()
		var cur []*entry[V]
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
		next := make([]*entry[V], 0, len(cur)+1)
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

// Hot returns up to k cached values, preferring entries whose CLOCK
// reference bit is set (recently hit) over cold ones. This is the rollout
// pre-warm export: a live reconfiguration reads the hottest plans of the
// outgoing cache, re-verifies each on the replacement plane, and seeds the
// fresh cache so the first post-rollout requests hit instead of paying a
// compile. Reading leaves the reference bits untouched. Nil-safe.
func (c *Cache[V]) Hot(k int) []V {
	if c == nil || k <= 0 {
		return nil
	}
	var hot, cold []V
	for i := range c.shards {
		snap := c.shards[i].entries.Load()
		if snap == nil {
			continue
		}
		for _, e := range *snap {
			if e.touched.Load() {
				hot = append(hot, e.val)
			} else {
				cold = append(cold, e.val)
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

// Len returns the number of cached values; 0 on the disabled cache.
func (c *Cache[V]) Len() int {
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
	// Rejected counts inserts the doorkeeper of an admitting cache dropped
	// because their permutation had not been seen before; always 0 on a
	// cache built with New.
	Rejected int64 `json:"rejected"`
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
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Entries:   c.Len(),
		Capacity:  c.Capacity(),
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Rejected:  c.rejected.Load(),
	}
}
