package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/perm"
)

// benchOrders are the orders the core microbenchmarks sweep: the bnbserve
// default, the fresh-permutation serving order, and the alloc-pin order.
var benchOrders = []int{3, 5, 7, 10}

// BenchmarkCompile measures one Compile of a random permutation — the
// plan-cache miss path of the serving stack.
func BenchmarkCompile(b *testing.B) {
	for _, m := range benchOrders {
		n, err := New(m, 16)
		if err != nil {
			b.Fatal(err)
		}
		p := perm.Random(n.Inputs(), rand.New(rand.NewSource(int64(m))))
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := n.Compile(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouteInto measures one pooled live route of a random
// permutation into a caller-owned buffer.
func BenchmarkRouteInto(b *testing.B) {
	for _, m := range benchOrders {
		n, err := New(m, 16)
		if err != nil {
			b.Fatal(err)
		}
		p := perm.Random(n.Inputs(), rand.New(rand.NewSource(int64(m))))
		src := make([]Word, n.Inputs())
		for i, d := range p {
			src[i] = Word{Addr: d, Data: uint64(i)}
		}
		dst := make([]Word, n.Inputs())
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := n.RouteInto(dst, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
