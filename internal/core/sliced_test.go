package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gbn"
	"repro/internal/perm"
	"repro/internal/splitter"
	"repro/internal/wiring"
)

// TestRouteSlicedMatchesRoute proves the atomic-word simulation is faithful
// to the q-plane sliced hardware: both produce bit-identical outputs.
func TestRouteSlicedMatchesRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, cfg := range []struct{ m, w int }{{1, 0}, {3, 0}, {3, 8}, {5, 16}, {6, 1}} {
		n, err := New(cfg.m, cfg.w)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 15; trial++ {
			p := perm.Random(n.Inputs(), rng)
			words := make([]Word, n.Inputs())
			mask := uint64(1)<<uint(cfg.w) - 1
			if cfg.w == 64 {
				mask = ^uint64(0)
			}
			for i, d := range p {
				words[i] = Word{Addr: d, Data: rng.Uint64() & mask}
			}
			atomic, err := n.Route(words)
			if err != nil {
				t.Fatal(err)
			}
			sliced, err := n.RouteSliced(words)
			if err != nil {
				t.Fatal(err)
			}
			for j := range atomic {
				if atomic[j] != sliced[j] {
					t.Fatalf("m=%d w=%d: output %d differs: atomic %+v, sliced %+v",
						cfg.m, cfg.w, j, atomic[j], sliced[j])
				}
			}
			if !Delivered(sliced) {
				t.Fatalf("m=%d w=%d: sliced route misdelivered", cfg.m, cfg.w)
			}
		}
	}
}

// TestRouteSlicedDataWidthBoundary checks w = 64 payloads survive the
// bit-plane decomposition exactly.
func TestRouteSlicedDataWidthBoundary(t *testing.T) {
	n, err := New(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	p := perm.Random(8, rng)
	words := make([]Word, 8)
	for i, d := range p {
		words[i] = Word{Addr: d, Data: rng.Uint64()}
	}
	sliced, err := n.RouteSliced(words)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range p {
		if sliced[d].Data != words[i].Data {
			t.Fatalf("64-bit payload of input %d corrupted: %#x -> %#x",
				i, words[i].Data, sliced[d].Data)
		}
	}
}

func TestRouteSlicedValidation(t *testing.T) {
	n, err := New(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.RouteSliced(make([]Word, 3)); err == nil {
		t.Error("RouteSliced accepted wrong count")
	}
	if _, err := n.RouteSliced(make([]Word, 8)); err == nil {
		t.Error("RouteSliced accepted duplicate destinations")
	}
}

func BenchmarkRouteSliced256(b *testing.B) {
	n, err := New(8, 16)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	p := perm.Random(256, rng)
	words := make([]Word, 256)
	for i, d := range p {
		words[i] = Word{Addr: d, Data: uint64(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.RouteSliced(words); err != nil {
			b.Fatal(err)
		}
	}
}

// RouteSliced routes the words through an explicit q-bit-slice simulation of
// Definition 5: each word is decomposed into its m address bits and w data
// bits, every one-bit slice travels through its own plane of sw(1) columns,
// and within each nested network only the BSN slice computes controls — the
// other q-1 planes are slaved to them, exactly as the hardware wires the
// control broadcast. The words are reassembled from the slice planes at the
// outputs.
//
// RouteSliced is observationally identical to Route (which moves words
// atomically); it is the test oracle proving that the atomic-word shortcut
// is faithful to the sliced hardware.
func (n *Network) RouteSliced(words []Word) ([]Word, error) {
	if len(words) != n.Inputs() {
		return nil, fmt.Errorf("bnb: got %d words, want %d", len(words), n.Inputs())
	}
	addrs := make(perm.Perm, len(words))
	for i, wd := range words {
		addrs[i] = wd.Addr
	}
	if err := addrs.Validate(); err != nil {
		return nil, fmt.Errorf("bnb: destination addresses are not a permutation: %w", err)
	}

	q := n.m + n.w
	// planes[s][line] is the bit of slice s on the given line. Slices
	// 0..m-1 are the address bits (paper convention: slice 0 = MSB); slices
	// m..q-1 are the data bits, MSB first.
	planes := make([][]uint8, q)
	for s := range planes {
		planes[s] = make([]uint8, n.Inputs())
	}
	for i, wd := range words {
		for l := 0; l < n.m; l++ {
			planes[l][i] = uint8(wiring.AddrBit(wd.Addr, l, n.m))
		}
		for b := 0; b < n.w; b++ {
			planes[n.m+b][i] = uint8(wd.Data >> uint(n.w-1-b) & 1)
		}
	}

	// Route the planes through the main GBN together: the payload of the
	// generic runner is a column vector of q bits (one per slice).
	type column []uint8 // length q
	cols := make([]column, n.Inputs())
	for i := range cols {
		c := make(column, q)
		for s := 0; s < q; s++ {
			c[s] = planes[s][i]
		}
		cols[i] = c
	}

	mainRouter := gbn.RouterFunc[column](func(mainBox gbn.Box, in []column) ([]column, error) {
		i := mainBox.Stage
		nt := n.nested[i]
		nestedRouter := gbn.RouterFunc[column](func(box gbn.Box, boxIn []column) ([]column, error) {
			p := nt.BoxOrder(box.Stage)
			// The BSN slice (slice i) decodes; all other slices are slaved.
			bits := make([]uint8, len(boxIn))
			for x, c := range boxIn {
				bits[x] = c[i]
			}
			controls, err := n.sps[p].Controls(bits)
			if err != nil {
				return nil, fmt.Errorf("splitter sp(%d) on slice %d: %w", p, i, err)
			}
			// Apply the same controls independently to every slice plane —
			// the broadcast of the control signal in hardware.
			out := make([]column, len(boxIn))
			for x := range out {
				out[x] = make(column, q)
			}
			for s := 0; s < q; s++ {
				sliceBits := make([]uint8, len(boxIn))
				for x, c := range boxIn {
					sliceBits[x] = c[s]
				}
				routed, err := splitter.Apply(controls, sliceBits)
				if err != nil {
					return nil, err
				}
				for x, b := range routed {
					out[x][s] = b
				}
			}
			return out, nil
		})
		return gbn.Run[column](nt, in, nestedRouter)
	})
	outCols, err := gbn.Run[column](n.main, cols, mainRouter)
	if err != nil {
		return nil, fmt.Errorf("bnb: %w", err)
	}

	// Reassemble words from the slice planes.
	out := make([]Word, n.Inputs())
	for j, c := range outCols {
		addr := 0
		for l := 0; l < n.m; l++ {
			addr = wiring.SetAddrBit(addr, l, n.m, int(c[l]))
		}
		var data uint64
		for b := 0; b < n.w; b++ {
			data = data<<1 | uint64(c[n.m+b])
		}
		out[j] = Word{Addr: addr, Data: data}
	}
	return out, nil
}
