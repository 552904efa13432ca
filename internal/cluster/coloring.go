package cluster

// Bipartite edge coloring — the matching stage of the product
// decomposition. The inter-shard exchange is computed by properly coloring
// an s-regular bipartite multigraph on the local-port columns: vertex h on
// the left is "column h before shard routing", vertex h on the right is
// "column h after shard routing", and each element contributes one edge
// (h0 -> h1) from its source column to its destination column. König's
// theorem guarantees an s-coloring; each color class is a perfect matching
// between columns, and the color assigned to an element is the intermediate
// shard it transits (Baumslag & Annexstein, Math. Systems Theory 24, 1991).
//
// The implementation is König's constructive proof: edges are inserted one
// at a time, and when the two endpoints have no common free color the
// two-color alternating path from the source endpoint is flipped to create
// one. The path walk is linear in its length and each edge is recolored at
// most once per insertion, so the whole coloring runs in O(E·(H+S)) worst
// case and far less in practice.

import "fmt"

// edgeColorer colors an s-regular bipartite multigraph with h vertices per
// side using exactly s colors. Vertices 0..h-1 are the left side, h..2h-1
// the right side.
type edgeColorer struct {
	h, colors int
	// ends[e] are the two endpoint vertices of edge e (left, right+h).
	ends [][2]int32
	// at[v*colors+c] is the edge occupying color c at vertex v, or -1.
	at []int32
	// color[e] is the assigned color of edge e, or -1 before insertion.
	color []int32
	// path is the reusable alternating-path scratch.
	path []int32
}

func newEdgeColorer(h, colors, edges int) *edgeColorer {
	ec := &edgeColorer{
		h:      h,
		colors: colors,
		ends:   make([][2]int32, 0, edges),
		at:     make([]int32, 2*h*colors),
		color:  make([]int32, 0, edges),
	}
	ec.reset()
	return ec
}

// reset empties the colorer for another graph of the same shape, keeping
// its buffers.
func (ec *edgeColorer) reset() {
	ec.ends = ec.ends[:0]
	ec.color = ec.color[:0]
	for i := range ec.at {
		ec.at[i] = -1
	}
}

// freeColor returns the smallest color unused at vertex v.
func (ec *edgeColorer) freeColor(v int32) int32 {
	base := int(v) * ec.colors
	for c := 0; c < ec.colors; c++ {
		if ec.at[base+c] < 0 {
			return int32(c)
		}
	}
	return -1
}

// otherEnd returns the endpoint of edge e that is not v.
func (ec *edgeColorer) otherEnd(e, v int32) int32 {
	return ec.ends[e][0] + ec.ends[e][1] - v
}

// insert adds the edge (left, right) — right in [0, h) — and colors it,
// flipping an alternating path when the endpoints share no free color.
func (ec *edgeColorer) insert(left, right int32) error {
	u, v := left, int32(ec.h)+right
	e := int32(len(ec.ends))
	ec.ends = append(ec.ends, [2]int32{u, v})
	ec.color = append(ec.color, -1)
	cu, cv := ec.freeColor(u), ec.freeColor(v)
	if cu < 0 || cv < 0 {
		return fmt.Errorf("cluster: edge coloring out of colors (vertex degree exceeds %d)", ec.colors)
	}
	if cu != cv {
		// Free color cv at u by flipping the (cv, cu)-alternating path that
		// starts at u. In a bipartite graph the path cannot terminate at v
		// (it would close an odd alternating cycle), so cv stays free at v.
		ec.flip(u, cv, cu)
		cu = cv
	}
	ec.color[e] = cu
	ec.at[int(u)*ec.colors+int(cu)] = e
	ec.at[int(v)*ec.colors+int(cu)] = e
	return nil
}

// flip swaps colors c1 and c2 along the alternating path that starts at
// vertex u with an edge colored c1.
func (ec *edgeColorer) flip(u, c1, c2 int32) {
	// Collect the path first, then recolor: clearing every touched slot
	// before refilling keeps the bookkeeping obviously consistent even when
	// consecutive path edges share a vertex slot.
	ec.path = ec.path[:0]
	x, want := u, c1
	for {
		e := ec.at[int(x)*ec.colors+int(want)]
		if e < 0 {
			break
		}
		ec.path = append(ec.path, e)
		x = ec.otherEnd(e, x)
		want = c1 + c2 - want
	}
	for _, e := range ec.path {
		c := ec.color[e]
		for _, v := range ec.ends[e] {
			if ec.at[int(v)*ec.colors+int(c)] == e {
				ec.at[int(v)*ec.colors+int(c)] = -1
			}
		}
	}
	for _, e := range ec.path {
		c := c1 + c2 - ec.color[e]
		ec.color[e] = c
		ec.at[int(ec.ends[e][0])*ec.colors+int(c)] = e
		ec.at[int(ec.ends[e][1])*ec.colors+int(c)] = e
	}
}
