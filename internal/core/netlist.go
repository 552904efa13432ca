package core

// The flat netlist: New unrolls the two-level nesting of Definition 5 into
// its m(m+1)/2 switch columns once, and a single evaluator drives every
// route path over that schedule. The evaluator moves one int32 token per
// line instead of a Word — the destination address of the word the line
// holds, which names the word because the addresses form a permutation —
// computes each column's controls with the bit-packed closed-form arbiter
// 64 switches per word, and realizes each unshuffle as a block
// de-interleave. RouteInto,
// RouteIntoOverride, Compile, RouteTraced, ComputeSettings and ReplayWired
// are thin views of it; the per-box routeNested path in core.go survives as
// the test oracle. DESIGN.md §17 has the derivation.

import (
	"fmt"
	"math/bits"

	"repro/internal/arbiter"
	"repro/internal/neterr"
)

// column is one switch column of the flat netlist: nested column j of main
// stage i, a row of sp(p) splitters (p = m-i-j) decoding address bit i.
type column struct {
	stage, nested, p int
	// k is the span of the unshuffle wiring after the column: the nested
	// network's 2^p-unshuffle inside a main stage, the main network's
	// 2^{m-i}-unshuffle after a stage's last column, 0 after the final one.
	k int
}

// netlist returns the column schedule of an order-m network, in colIndex
// order.
func netlist(m int) []column {
	cols := make([]column, 0, m*(m+1)/2)
	for i := 0; i < m; i++ {
		for j := 0; j < m-i; j++ {
			c := column{stage: i, nested: j, p: m - i - j}
			switch {
			case j < m-i-1:
				c.k = c.p
			case i < m-1:
				c.k = m - i
			}
			cols = append(cols, c)
		}
	}
	return cols
}

// scratch bundles every per-route buffer of the evaluator. It is recycled
// through the Network's sync.Pool, so steady-state routes allocate nothing.
type scratch struct {
	cur, tmp []int32  // the token on each line; the rewire buffer
	inv      []int32  // inv[d] is the input addressed to d, -1 until admitted
	a, b     []uint64 // packed upper/lower address bits of the column's pairs
	ctl      []uint64 // the column's controls when no plan records them
	work     []uint64 // arbiter.ControlsPacked level storage
	box      []bool   // one box's controls, unpacked for an Override
	words    []Word   // staging for routes and replays with dst == src
}

func newScratch(n *Network) *scratch {
	N := n.Inputs()
	W := n.colWords
	return &scratch{
		cur:   make([]int32, N),
		tmp:   make([]int32, N),
		inv:   make([]int32, N),
		a:     make([]uint64, W),
		b:     make([]uint64, W),
		ctl:   make([]uint64, W),
		work:  make([]uint64, 2*W),
		box:   make([]bool, N/2),
		words: make([]Word, N),
	}
}

// reset readies the scratch for a fresh round of admit calls.
func (sc *scratch) reset() {
	for d := range sc.inv {
		sc.inv[d] = -1
	}
}

// admit places input i, addressed to d, on line i, rejecting a destination
// out of range or already claimed.
func (sc *scratch) admit(i, d int) error {
	if uint(d) >= uint(len(sc.inv)) || sc.inv[d] >= 0 {
		return notPermutation(i, d, len(sc.inv))
	}
	sc.inv[d] = int32(i)
	sc.cur[i] = int32(d)
	return nil
}

func notPermutation(i, d, N int) error {
	if d < 0 || d >= N {
		return fmt.Errorf("bnb: destination addresses are not a permutation: entry %d -> %d out of range [0,%d): %w",
			i, d, N, neterr.ErrNotPermutation)
	}
	return fmt.Errorf("bnb: destination addresses are not a permutation: destination %d appears more than once: %w",
		d, neterr.ErrNotPermutation)
}

// eval drives the tokens on sc.cur through every column of the netlist and
// returns the final token vector (an alias of sc.cur or sc.tmp): entry j is
// the token exiting on output j.
//
// In self-routing mode (route true; the tokens are destination addresses,
// as admit places them) the packed arbiters compute each column's controls
// — into the column's words of rec when rec is non-nil, else into scratch —
// and ov, when non-nil, may then perturb them box by box. Splitter
// precondition violations are reported exactly as the per-box oracle
// reports them: the first failing splitter of the lowest failing nested
// network in the main stage, position-stamped. In replay mode (route
// false; any tokens) the controls are read from rec. snap, when non-nil,
// sees the token vector after every main stage.
func (n *Network) eval(sc *scratch, route bool, rec []uint64, ov Override, snap func([]int32)) ([]int32, error) {
	cur, tmp := sc.cur, sc.tmp
	W := n.colWords
	var fail error
	failBox := len(cur) // nested network index of fail within its main stage
	for ci, c := range n.cols {
		ctl := sc.ctl
		if rec != nil {
			ctl = rec[ci*W : (ci+1)*W]
		}
		lastInStage := c.nested == n.m-c.stage-1
		if route {
			if c.nested == 0 {
				gather(sc.a, sc.b, cur, uint(n.m-1-c.stage))
			}
			if t := arbiter.ControlsPacked(ctl, sc.a, sc.b, sc.work, c.p, len(cur)/2); t >= 0 {
				if l := t >> uint(n.m-c.stage-1); l < failBox {
					failBox, fail = l, n.splitterError(sc, c, t)
				}
			}
			if ov != nil {
				sc.override(ov, c, ctl)
			}
		}
		switchAndRewire(cur, tmp, ctl, c.k)
		if c.k != 0 {
			cur, tmp = tmp, cur
		}
		if route && !lastInStage {
			// The next column decodes the same address bit: carry the
			// packed bits along instead of gathering them again.
			rewireBits(sc.a, sc.b, ctl, sc.work, c.p)
		}
		if lastInStage {
			if fail != nil {
				return nil, fail
			}
			if snap != nil {
				snap(cur)
			}
		}
	}
	return cur, nil
}

// splitterError renders the precondition violation of the box holding pair
// t in column c, byte for byte as the per-box path reports it: the
// splitter's own message under the main- and nested-GBN position stamps.
func (n *Network) splitterError(sc *scratch, c column, t int) error {
	size := 1 << uint(c.p)
	first := t &^ (size/2 - 1)
	in := make([]uint8, size)
	for x := 0; x < size/2; x++ {
		q := first + x
		in[2*x] = uint8(sc.a[q>>6] >> uint(q&63) & 1)
		in[2*x+1] = uint8(sc.b[q>>6] >> uint(q&63) & 1)
	}
	_, err := n.sps[c.p].Controls(in)
	box := 2 * first >> uint(c.p) // global box index within the column
	return fmt.Errorf("bnb: gbn: stage %d box %d: gbn: stage %d box %d: splitter sp(%d) on address bit %d: %w",
		c.stage, box>>uint(c.nested), c.nested, box&(1<<uint(c.nested)-1), c.p, c.stage, err)
}

// gather packs the decoded address bit (bit shift, LSB-first) of every line
// pair: lane t of a holds the upper line 2t's bit, of b the lower line's.
func gather(a, b []uint64, cur []int32, shift uint) {
	for w := range a {
		lines := cur[128*w : min(len(cur), 128*w+128)]
		var lo, hi uint64 // the bits of lines 0..63 and 64..127, in line order
		for x, d := range lines[:min(len(lines), 64)] {
			lo |= uint64(d>>shift&1) << uint(x)
		}
		if len(lines) > 64 {
			for x, d := range lines[64:] {
				hi |= uint64(d>>shift&1) << uint(x)
			}
		}
		lo, hi = unzip(lo, 5), unzip(hi, 5)
		a[w] = lo&lo32 | hi<<32
		b[w] = lo>>32 | hi&^lo32
	}
}

const lo32 = 0x00000000FFFFFFFF

// unzipMasks are the delta-swap masks of the bit unzip, finest first.
var unzipMasks = [5]uint64{
	0x2222222222222222, 0x0C0C0C0C0C0C0C0C, 0x00F000F000F000F0,
	0x0000FF000000FF00, 0x00000000FFFF0000,
}

// unzip applies the first r steps of the bit unzip to x: afterwards every
// aligned 2^{r+1}-bit segment holds its even bits in its low half and its
// odd bits in its high half, each in order (r = 5 unzips the whole word).
func unzip(x uint64, r int) uint64 {
	for s, mask := range unzipMasks[:r] {
		t := (x ^ x>>(1<<uint(s))) & mask
		x ^= t ^ t<<(1<<uint(s))
	}
	return x
}

// lowLanes[r] marks the low half of every aligned 2^{r+1}-lane segment.
var lowLanes = [6]uint64{
	0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
	0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, lo32,
}

// rewireBits moves the packed pair bits a, b of a column of sp(p) boxes
// through the column's switches and its 2^p-unshuffle, so they describe the
// lines of the next column. Inside each box of P = 2^{p-1} pairs the
// unshuffle sends the upper lines (a) to the low half and the lower lines
// (b) to the high half, so the new pairs of the low half are the even and
// odd lanes of a, and those of the high half the even and odd lanes of b.
// tmp needs 2·len(a) words.
func rewireBits(a, b, ctl, tmp []uint64, p int) {
	for w := range a {
		d := ctl[w] & (a[w] ^ b[w])
		a[w] ^= d
		b[w] ^= d
	}
	if p <= 7 { // boxes within one word
		half, low := uint(1)<<uint(p-2), lowLanes[p-2]
		for w := range a {
			ua, ub := unzip(a[w], p-2), unzip(b[w], p-2)
			a[w] = ua&low | ub&low<<half
			b[w] = ua&^low>>half | ub&^low
		}
		return
	}
	na, nb := tmp[:len(a)], tmp[len(a):2*len(a)]
	box := 1 << uint(p-7) // words per box
	for base := 0; base < len(a); base += box {
		for q := 0; q < box/2; q++ {
			a0, a1 := unzip(a[base+2*q], 5), unzip(a[base+2*q+1], 5)
			b0, b1 := unzip(b[base+2*q], 5), unzip(b[base+2*q+1], 5)
			na[base+q], na[base+box/2+q] = a0&lo32|a1<<32, b0&lo32|b1<<32
			nb[base+q], nb[base+box/2+q] = a0>>32|a1&^lo32, b0>>32|b1&^lo32
		}
	}
	copy(a, na)
	copy(b, nb)
}

// switchAndRewire applies the column's switches — pair t exchanges its two
// lines when control bit t is set — and routes the result through the
// 2^k-unshuffle into next: in every aligned block of 2^k lines, the even
// lines go to the low half and the odd lines to the high half. With k = 0
// (the final column) the switches apply in place and next is untouched.
func switchAndRewire(cur, next []int32, ctl []uint64, k int) {
	if k == 0 {
		for w, word := range ctl {
			for ; word != 0; word &= word - 1 {
				t := 64*w + bits.TrailingZeros64(word)
				cur[2*t], cur[2*t+1] = cur[2*t+1], cur[2*t]
			}
		}
		return
	}
	half := 1 << uint(k-1)
	for w, word := range ctl {
		for t := 64 * w; t < min(64*w+64, len(cur)/2); t++ {
			x, y := cur[2*t], cur[2*t+1]
			d := (x ^ y) & -int32(word&1)
			word >>= 1
			lo := t&^(half-1)<<1 | t&(half-1) // even line 2t's slot; odd goes half above
			next[lo], next[lo+half] = x^d, y^d
		}
	}
}

// override hands each box of column c to ov as a []bool and packs the
// possibly mutated settings back into ctl.
func (sc *scratch) override(ov Override, c column, ctl []uint64) {
	box := sc.box[:1<<uint(c.p-1)]
	for base := 0; base < len(sc.box); base += len(box) {
		for x := range box {
			q := base + x
			box[x] = ctl[q>>6]>>uint(q&63)&1 != 0
		}
		ov(c.stage, c.nested, base, box)
		for x, exchange := range box {
			q := base + x
			if exchange {
				ctl[q>>6] |= 1 << uint(q&63)
			} else {
				ctl[q>>6] &^= 1 << uint(q&63)
			}
		}
	}
}

// Override perturbs the control bits of one switching column after the
// splitter computes them and before the words move — the per-element
// fault-injection hook. It is called once per splitter box with the
// element's address in the Settings coordinate system: mainStage is the
// main-GBN stage i, column the nested-stage index j within it, and
// controls[x] is the exchange bit of global switch switchBase+x of that
// column (0 <= switchBase+x < N/2). Mutating controls in place changes how
// the data words move; the self-routing control plane is not re-run, exactly
// like a hardware fault that corrupts a switch state after arbitration. The
// hook must be a pure function of its arguments: the order in which boxes
// are visited is unspecified.
type Override func(mainStage, column, switchBase int, controls []bool)

// RouteIntoOverride behaves like RouteInto with the override hook installed
// for the duration of the route. Input validation is unchanged — the offered
// addresses must still form a permutation — but the override may corrupt
// switch states, so the output can violate the delivery contract without an
// error being returned; callers that need detection must check Delivered on
// the result. A nil override is exactly RouteInto. Safe for concurrent use.
func (n *Network) RouteIntoOverride(dst, src []Word, ov Override) error {
	return n.routeInto(dst, src, ov)
}

// RouteInto self-routes src into dst — the pooled, allocation-free
// counterpart of Route. dst and src must both have length N; dst may be the
// same slice as src but must not partially overlap it. The destination
// addresses must form a permutation of {0,...,N-1}; on return dst[j] holds
// the word addressed to output j. On error dst is unspecified. All
// per-route scratch comes from the network's pool, so after warm-up the
// call performs zero heap allocations. Safe for concurrent use.
func (n *Network) RouteInto(dst, src []Word) error {
	return n.routeInto(dst, src, nil)
}

func (n *Network) routeInto(dst, src []Word, ov Override) error {
	N := n.Inputs()
	if len(src) != N {
		return fmt.Errorf("bnb: got %d words, want %d: %w", len(src), N, neterr.ErrBadSize)
	}
	if len(dst) != N {
		return fmt.Errorf("bnb: got %d output slots, want %d: %w", len(dst), N, neterr.ErrBadSize)
	}
	sc := n.pool.Get().(*scratch)
	defer n.pool.Put(sc)
	sc.reset()
	for i, wd := range src {
		if err := sc.admit(i, wd.Addr); err != nil {
			return err
		}
	}
	lines, err := n.eval(sc, true, nil, ov, nil)
	if err != nil {
		return err
	}
	if &dst[0] == &src[0] {
		src = sc.words
		copy(src, dst)
	}
	for j, d := range lines {
		dst[j] = src[sc.inv[d]]
	}
	return nil
}

// RoutePermInto routes a bare permutation into dst without allocating:
// input i carries destination p[i] and data equal to the source index.
func (n *Network) RoutePermInto(dst []Word, p []int) error {
	if len(p) != n.Inputs() {
		return fmt.Errorf("bnb: permutation length %d, want %d: %w", len(p), n.Inputs(), neterr.ErrBadSize)
	}
	if len(dst) != n.Inputs() {
		return fmt.Errorf("bnb: got %d output slots, want %d: %w", len(dst), n.Inputs(), neterr.ErrBadSize)
	}
	for i, d := range p {
		dst[i] = Word{Addr: d, Data: uint64(i)}
	}
	return n.RouteInto(dst, dst)
}
