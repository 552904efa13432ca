// Package arbiter implements the tree-structured arbiter A(p) of Lee & Lu's
// Section 4 — the control logic of the splitter. The arbiter receives the
// 2^p one-bit inputs of a splitter, propagates XOR state up the tree and
// flags down the tree, and delivers one flag per input; XOR-ing each input
// bit with its flag yields the switch settings that split the 1-bits evenly
// between the even and odd outputs.
//
// The function node (the paper's Fig. 5) is modeled twice: behaviourally,
// as the up/down rules of the routing algorithm, and at gate level, as the
// four-gate circuit the paper sketches. Tests prove both agree on every
// input combination.
//
// Up/down rules (the paper's Algorithm, steps 1-4):
//
//  1. each node sends up z_u = x1 XOR x2;
//  2. if z_u == 0 the node generates flags itself: y1 = 0 to its upper
//     child and y2 = 1 to its lower child, ignoring the parent flag;
//  3. if z_u == 1 the node forwards the parent flag z_d to both children;
//  4. at the root, z_u is echoed back as z_d.
package arbiter

import (
	"fmt"
	"math/bits"

	"repro/internal/wiring"
)

// NodeUp computes the state a function node sends to its parent.
func NodeUp(x1, x2 uint8) uint8 {
	return x1 ^ x2
}

// NodeDown computes the flags (y1 for the upper child, y2 for the lower
// child) a function node sends down, given its children state bits and the
// flag z_d received from its parent.
func NodeDown(x1, x2, zd uint8) (y1, y2 uint8) {
	if x1^x2 == 0 {
		return 0, 1
	}
	return zd, zd
}

// NodeDownGates is the gate-level realization of NodeDown per Fig. 5:
// with z_u = x1 XOR x2,
//
//	y1 = z_u AND z_d        (0 when the node self-generates, else z_d)
//	y2 = (NOT z_u) OR z_d   (1 when the node self-generates, else z_d)
//
// It exists so tests can prove the published schematic computes the same
// function as the behavioural rules.
func NodeDownGates(x1, x2, zd uint8) (y1, y2 uint8) {
	zu := x1 ^ x2
	y1 = zu & zd
	y2 = (zu ^ 1) | zd
	return y1, y2
}

// GatesPerNode is the gate inventory of one function node in the Fig. 5
// realization: one XOR (z_u), one AND (y1), one OR and one NOT (y2).
const GatesPerNode = 4

// Tree is an arbiter A(p): a complete binary tree of function nodes over
// 2^p one-bit inputs. A(1) is pure wiring (zero nodes): the single switch of
// a 2x2 splitter is set directly by its upper input bit.
type Tree struct {
	p int
}

// New constructs an arbiter A(p) for a 2^p-input splitter, 1 <= p <= MaxOrder.
func New(p int) (*Tree, error) {
	if p < 1 || p > wiring.MaxOrder {
		return nil, fmt.Errorf("arbiter: p=%d out of range [1,%d]", p, wiring.MaxOrder)
	}
	return &Tree{p: p}, nil
}

// P returns the order of the arbiter (the splitter has 2^P inputs).
func (t *Tree) P() int { return t.p }

// Inputs returns the number of one-bit inputs, 2^p.
func (t *Tree) Inputs() int { return 1 << uint(t.p) }

// Nodes returns the number of function nodes: 2^p - 1 for p >= 2, and 0 for
// the wiring-only A(1) (the paper's cost equation (4) charges A(1) nothing).
func (t *Tree) Nodes() int {
	if t.p < 2 {
		return 0
	}
	return t.Inputs() - 1
}

// CriticalPath returns the arbiter's critical path in function-node delays
// D_FN: the state travels up p node levels and the flag travels down p node
// levels, giving 2p for p >= 2; A(1) is wiring and contributes 0. This is
// the per-splitter term of the paper's delay equation (8).
func (t *Tree) CriticalPath() int {
	if t.p < 2 {
		return 0
	}
	return 2 * t.p
}

// Flags runs the arbiter on the splitter's input bits and returns the flag
// delivered to each input. bits must contain exactly 2^p values in {0,1}.
//
// For A(1) the returned flags are zero: the paper defines sp(1) switch
// setting directly from the input bit, which corresponds to a constant-zero
// flag in the XOR switch-setting rule of Algorithm step 5.
func (t *Tree) Flags(bits []uint8) ([]uint8, error) {
	flags, err := t.FlagsInto(bits, make([]uint8, WorkSize(t.p)))
	if err != nil {
		return nil, err
	}
	out := make([]uint8, len(flags))
	copy(out, flags)
	return out, nil
}

// WorkSize returns the scratch length FlagsInto requires for an arbiter of
// order p: room for every tree level, 2^{p+1} - 1 values.
func WorkSize(p int) int { return 2<<uint(p) - 1 }

// FlagsInto computes the same flags as Flags without allocating: work
// provides the storage for the tree levels (len >= WorkSize(p)) and the
// returned slice aliases work[0:2^p]. bits is not modified and must not
// alias work. This is the engine hot path: the caller recycles work across
// routes, so steady-state routing performs no allocation.
func (t *Tree) FlagsInto(bits, work []uint8) ([]uint8, error) {
	n := t.Inputs()
	if len(bits) != n {
		return nil, fmt.Errorf("arbiter: got %d inputs, want %d", len(bits), n)
	}
	for i, b := range bits {
		if b > 1 {
			return nil, fmt.Errorf("arbiter: input %d has non-binary value %d", i, b)
		}
	}
	if t.p < 2 {
		// A(1): wiring only; flags are identically zero.
		if len(work) < n {
			return nil, fmt.Errorf("arbiter: work length %d, need %d", len(work), n)
		}
		flags := work[:n]
		for i := range flags {
			flags[i] = 0
		}
		return flags, nil
	}
	if len(work) < WorkSize(t.p) {
		return nil, fmt.Errorf("arbiter: work length %d, need %d", len(work), WorkSize(t.p))
	}

	// Level v occupies work[off : off+2^{p-v}], with level 0 (the inputs)
	// first; consecutive levels are adjacent, totalling 2^{p+1}-1 values.
	copy(work[:n], bits)

	// Upward pass: each node sends x1 XOR x2 to its parent.
	off := 0
	for v := 1; v <= t.p; v++ {
		prev := work[off : off+n>>uint(v-1)]
		off += len(prev)
		cur := work[off : off+n>>uint(v)]
		for i := range cur {
			cur[i] = NodeUp(prev[2*i], prev[2*i+1])
		}
	}

	// Downward pass, in place: the flags of level v-1 overwrite its up
	// states (each node reads its two children's states before writing their
	// flags, so the overwrite is safe). At the root the node's own XOR state
	// is echoed as the parent flag (Algorithm step 4), which is exactly the
	// value already stored there.
	for v := t.p; v >= 1; v-- {
		childOff := off - n>>uint(v-1)
		parent := work[off : off+n>>uint(v)]
		child := work[childOff : childOff+n>>uint(v-1)]
		for i, zd := range parent {
			y1, y2 := NodeDown(child[2*i], child[2*i+1], zd)
			child[2*i], child[2*i+1] = y1, y2
		}
		off = childOff
	}
	return work[:n], nil
}

// FlagsGateLevel computes the same flags as Flags but evaluates every node
// with the gate-level realization NodeDownGates, and additionally returns
// the number of gate evaluations performed (the dynamic gate count). It is
// used by tests and by the hardware-reconciliation experiments to tie the
// behavioural model to the published schematic.
func (t *Tree) FlagsGateLevel(bits []uint8) (flags []uint8, gates int, err error) {
	n := t.Inputs()
	if len(bits) != n {
		return nil, 0, fmt.Errorf("arbiter: got %d inputs, want %d", len(bits), n)
	}
	flags = make([]uint8, n)
	if t.p < 2 {
		return flags, 0, nil
	}
	up := make([][]uint8, t.p+1)
	up[0] = bits
	for v := 1; v <= t.p; v++ {
		prev := up[v-1]
		cur := make([]uint8, len(prev)/2)
		for i := range cur {
			cur[i] = prev[2*i] ^ prev[2*i+1] // the node's XOR gate
		}
		up[v] = cur
	}
	down := make([][]uint8, t.p+1)
	down[t.p] = []uint8{up[t.p][0]}
	for v := t.p; v >= 1; v-- {
		child := make([]uint8, len(up[v-1]))
		for i := range up[v] {
			y1, y2 := NodeDownGates(up[v-1][2*i], up[v-1][2*i+1], down[v][i])
			child[2*i], child[2*i+1] = y1, y2
			gates += GatesPerNode
		}
		down[v-1] = child
	}
	copy(flags, down[0])
	return flags, gates, nil
}

// TotalGates returns the static gate count of the arbiter in the Fig. 5
// realization.
func (t *Tree) TotalGates() int {
	return t.Nodes() * GatesPerNode
}

// laneBit[s] has bit t set exactly when bit s of the lane index t is set:
// within one uint64 of pair lanes, the lanes whose tree-level-(s+2)
// ancestor sees them in its lower child.
var laneBit = [6]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// ControlsPacked computes the switch settings of a whole column of sp(p)
// splitters in closed form, 64 switches per word, without walking the tree.
// Switch (pair) t of the column is lane t&63 of word t>>6: a holds its
// upper input bit A, b its lower input bit B, and ctl receives its control
// — the same bits, box by box, as Flags and the splitter's rule
// control = A XOR flag(2t). The column's boxes are the aligned runs of
// 2^{p-1} pairs; pairs counts the real lanes (lanes past it must be zero).
// work needs 2·len(a) words.
//
// With u = A XOR B, the pair's level-1 node self-generates (flag 0 to A)
// when u = 0; otherwise A inherits the flag of the pair's nearest ancestor
// at a level v >= 2 whose block parity is 0, which sends 0 to its upper
// child and 1 to its lower child — bit v-2 of t. So
// control = A XOR (u AND flag), and every level's block parities follow
// from u by shift-XOR partner swaps: within a word for blocks up to 64
// pairs, across words beyond.
//
// The return value is the first pair whose box violates the splitter
// precondition (odd 1-count for p >= 2; equal inputs for p = 1), or -1.
// Boxes that violate it get unspecified controls.
func ControlsPacked(ctl, a, b, work []uint64, p, pairs int) int {
	levels := p - 1 // tree levels v = 2..p, indexed s = v-2
	par, done := work[:len(a)], work[len(a):2*len(a)]
	for w := range a {
		par[w], ctl[w], done[w] = a[w]^b[w], 0, 0
		for s := 0; s < levels && s < 6; s++ {
			d := uint(1) << uint(s)
			par[w] ^= par[w]&laneBit[s]>>d | par[w]&^laneBit[s]<<d
			gen := ^par[w] &^ done[w]
			ctl[w] |= gen & laneBit[s]
			done[w] |= gen
		}
	}
	for s := 6; s < levels; s++ {
		span := 1 << uint(s-6) // partner distance in words
		for w := range par {
			if w&span == 0 {
				x := par[w] ^ par[w|span]
				par[w], par[w|span] = x, x
			}
		}
		for w := range par {
			gen := ^par[w] &^ done[w]
			if w&span != 0 {
				ctl[w] |= gen
			}
			done[w] |= gen
		}
	}
	first := -1
	for w := range a {
		u := a[w] ^ b[w]
		bad := par[w] // the root's block parity, for p >= 2
		if p < 2 {
			bad = ^u
			if rest := pairs - 64*w; rest < 64 {
				bad &= 1<<uint(rest) - 1
			}
		}
		if bad != 0 && first < 0 {
			first = 64*w + bits.TrailingZeros64(bad)
		}
		ctl[w] = a[w] ^ u&ctl[w]
	}
	return first
}
