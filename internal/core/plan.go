package core

// Compiled route plans: one self-routing pass over the arbiter tree is
// recorded as an immutable bitset image of every switch column plus the
// derived end-to-end wire map, and subsequent batches of the same
// permutation replay the plan as pure wire-following — no arbiters, no
// address decoding. This is the compile-once/replay-many operating mode the
// KR-Beneš line of work frames as the control-cost tradeoff of
// rearrangeable networks (DESIGN.md §12): the compile costs one full BNB
// route, and every replay costs a single gather over the wire map.
//
// The Plan packs the switch decisions 64 per word — the arbiter's packed
// control words are stored as computed — and carries the wire map so the
// hot path never walks the columns at all. Settings is a view of a Plan.
// ReplayWired keeps the column-by-column data path available as the slow
// reference the differential tests compare the wire map against.

import (
	"fmt"

	"repro/internal/neterr"
	"repro/internal/perm"
)

// Plan is an immutable compiled switch-setting plan for one permutation: the
// bitset image of every switch column (the hardware's switch states, one bit
// per 2x2 switch) and the derived wire map. A Plan is created by Compile,
// never mutated afterwards, and safe for concurrent use by any number of
// replays.
type Plan struct {
	m int
	// p is the compiled permutation: input i exits on output p[i].
	p perm.Perm
	// bits holds every column's bitset back to back: nested column j of
	// main stage i occupies the colWords words from colIndex(m,i,j)·colWords,
	// and bit k of it is the exchange state of global switch k of that
	// column (0 <= k < N/2), packed 64 per word.
	bits []uint64
	// wire is the end-to-end wire map: wire[j] is the input index whose word
	// exits on output j (wire[p[i]] == i).
	wire []int32
}

// colIndex flattens the (main stage, nested column) coordinates: main stage i
// contributes m-i columns, so stage i starts at i*m - i*(i-1)/2.
func colIndex(m, i, j int) int { return i*m - i*(i-1)/2 + j }

// M returns the order of the network the plan was compiled on.
func (pl *Plan) M() int { return pl.m }

// Inputs returns the port count N = 2^m of the plan.
func (pl *Plan) Inputs() int { return 1 << uint(pl.m) }

// Perm returns a copy of the compiled permutation.
func (pl *Plan) Perm() perm.Perm {
	out := make(perm.Perm, len(pl.p))
	copy(out, pl.p)
	return out
}

// PermView returns the compiled permutation without copying. The plan is
// immutable, so the view stays valid for the plan's lifetime; callers must
// not modify it. The plan cache keys entries on it.
func (pl *Plan) PermView() perm.Perm { return pl.p }

// SwitchCount returns the number of recorded switch decisions,
// (N/2)·(1/2)m(m+1) — the same count Settings.SwitchCount reports.
func (pl *Plan) SwitchCount() int {
	return (pl.Inputs() / 2) * pl.m * (pl.m + 1) / 2
}

// Control reads one recorded switch state: the exchange bit of global switch
// k (0 <= k < N/2) in nested column j of main stage i — the Settings
// coordinate system.
func (pl *Plan) Control(i, j, k int) bool {
	stride := len(pl.bits) / (pl.m * (pl.m + 1) / 2)
	return pl.bits[colIndex(pl.m, i, j)*stride+k>>6]&(1<<uint(k&63)) != 0
}

// Compile runs the self-routing control plane once for the permutation and
// records every switch decision into a fresh Plan. The compile pass is one
// full BNB route (arbiter trees and all); replays of the returned plan skip
// all of it. Safe for concurrent use.
func (n *Network) Compile(p perm.Perm) (*Plan, error) {
	N := n.Inputs()
	if len(p) != N {
		return nil, fmt.Errorf("bnb: permutation length %d, want %d: %w", len(p), N, neterr.ErrBadSize)
	}
	sc := n.pool.Get().(*scratch)
	defer n.pool.Put(sc)
	sc.reset()
	for i, d := range p {
		if err := sc.admit(i, d); err != nil {
			return nil, err
		}
	}
	pl := &Plan{
		m:    n.m,
		p:    p.Clone(),
		bits: make([]uint64, len(n.cols)*n.colWords),
		wire: make([]int32, N),
	}
	lines, err := n.eval(sc, true, pl.bits, nil, nil)
	if err != nil {
		return nil, err
	}
	for j, d := range lines {
		if int(d) != j {
			return nil, fmt.Errorf("bnb: internal error: compile pass misdelivered %d to %d", d, j)
		}
		pl.wire[j] = sc.inv[d]
	}
	return pl, nil
}

// checkPlan rejects a nil plan or one compiled for another order.
func (n *Network) checkPlan(pl *Plan) error {
	if pl == nil {
		return fmt.Errorf("bnb: nil plan")
	}
	if pl.m != n.m {
		return fmt.Errorf("bnb: plan compiled for order %d, network has order %d: %w", pl.m, n.m, neterr.ErrPlanMismatch)
	}
	return nil
}

// Replay routes src into dst along a compiled plan — pure wire-following,
// zero heap allocations when dst and src are distinct slices. The source
// addresses must match the plan's permutation (src[i].Addr == p[i]); a
// mismatched batch fails with ErrPlanMismatch instead of misdelivering. dst
// may be the same slice as src (the replay then stages through pooled
// scratch) but must not partially overlap it. Safe for concurrent use.
func (n *Network) Replay(pl *Plan, dst, src []Word) error {
	if err := n.checkPlan(pl); err != nil {
		return err
	}
	N := n.Inputs()
	if len(src) != N {
		return fmt.Errorf("bnb: got %d words, want %d: %w", len(src), N, neterr.ErrBadSize)
	}
	if len(dst) != N {
		return fmt.Errorf("bnb: got %d output slots, want %d: %w", len(dst), N, neterr.ErrBadSize)
	}
	for i, wd := range src {
		if wd.Addr != pl.p[i] {
			return fmt.Errorf("bnb: input %d addressed to %d, plan expects %d: %w",
				i, wd.Addr, pl.p[i], neterr.ErrPlanMismatch)
		}
	}
	if &dst[0] == &src[0] {
		sc := n.pool.Get().(*scratch)
		copy(sc.words, src)
		for j, w := range pl.wire {
			dst[j] = sc.words[w]
		}
		n.pool.Put(sc)
		return nil
	}
	for j, w := range pl.wire {
		dst[j] = src[w]
	}
	return nil
}

// ApplyPlan replays the plan over arbitrary payloads, ignoring the words'
// addresses entirely: word i lands on the output the compiled permutation
// assigned to input i — the pure data path, exactly what the hardware's
// slaved slices do. It backs the deprecated circuit-switched Send.
func (n *Network) ApplyPlan(pl *Plan, words []Word) ([]Word, error) {
	if err := n.checkPlan(pl); err != nil {
		return nil, err
	}
	if len(words) != n.Inputs() {
		return nil, fmt.Errorf("bnb: got %d words, want %d: %w", len(words), n.Inputs(), neterr.ErrBadSize)
	}
	out := make([]Word, len(words))
	for j, w := range pl.wire {
		out[j] = words[w]
	}
	return out, nil
}

// ReplayWired replays the plan by driving the words through the full
// netlist column by column, reading every switch state from the plan's
// bitsets — the slow reference path that proves the wire map and the bitset
// image agree. It allocates the result; Replay is the hot path.
func (n *Network) ReplayWired(pl *Plan, words []Word) ([]Word, error) {
	if err := n.checkPlan(pl); err != nil {
		return nil, err
	}
	if len(words) != n.Inputs() {
		return nil, fmt.Errorf("bnb: got %d words, want %d: %w", len(words), n.Inputs(), neterr.ErrBadSize)
	}
	return n.wired(pl, words), nil
}

// wired moves the words through the netlist under the plan's recorded
// switch states, ignoring their addresses.
func (n *Network) wired(pl *Plan, words []Word) []Word {
	sc := n.pool.Get().(*scratch)
	defer n.pool.Put(sc)
	for x := range sc.cur {
		sc.cur[x] = int32(x) // the tokens are the input indices
	}
	lines, _ := n.eval(sc, false, pl.bits, nil, nil) // replay mode cannot fail
	out := make([]Word, len(words))
	for j, s := range lines {
		out[j] = words[s]
	}
	return out
}
