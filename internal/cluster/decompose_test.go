package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/perm"
)

// TestDecomposeAllocs pins the decomposition's allocations at m=7, S=2:
// the colorer and the seen bitmap come from the coordinator's pool, so a
// Decompose allocates only the Assignment (struct, P, one int32 slab and
// one slice of row headers).
func TestDecomposeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates and drops pooled buffers")
	}
	c := newTestCoordinator(t, 2, 7)
	p := perm.Random(c.Inputs(), rand.New(rand.NewSource(7)))
	if _, err := c.Decompose(p); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Decompose(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("Decompose at m=7, S=2 allocates %.1f objects, want <= 4", allocs)
	}
}

// TestDecomposeReusesScratch decomposes many permutations through one
// coordinator, so every call after the first runs on a pooled colorer
// that an earlier call left behind, and checks each result in full.
func TestDecomposeReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ s, m int }{{2, 3}, {3, 2}, {4, 3}, {5, 1}} {
		c := newTestCoordinator(t, tc.s, tc.m)
		for iter := 0; iter < 20; iter++ {
			p := perm.Random(c.Inputs(), rng)
			a, err := c.Decompose(p)
			if err != nil {
				t.Fatalf("S=%d m=%d: %v", tc.s, tc.m, err)
			}
			checkAssignment(t, a, p)
		}
	}
}

// BenchmarkDecompose times the matching stage alone — the Kőnig edge
// coloring plus the per-shard local maps — over a rotating set of random
// permutations, for (m, S) from the served default to 16384 ports.
func BenchmarkDecompose(b *testing.B) {
	for _, tc := range []struct{ m, s int }{{7, 2}, {5, 4}, {7, 3}, {10, 16}} {
		b.Run(fmt.Sprintf("m=%d/S=%d", tc.m, tc.s), func(b *testing.B) {
			c := newTestCoordinator(b, tc.s, tc.m)
			rng := rand.New(rand.NewSource(1))
			ps := make([]perm.Perm, 16)
			for i := range ps {
				ps[i] = perm.Random(c.Inputs(), rng)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Decompose(ps[i%len(ps)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
