package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gbn"
	"repro/internal/perm"
)

// oracle routes the words along the per-box reference path — the main GBN
// of whole nested networks, each a GBN of splitter boxes, through the
// generic gbn runners — with ov installed as in RouteIntoOverride. traced
// additionally returns the main-stage snapshots as RouteTraced does.
func (n *Network) oracle(words []Word, ov Override, traced bool) ([]Word, [][]Word, error) {
	router := gbn.RouterFunc[Word](func(box gbn.Box, in []Word) ([]Word, error) {
		return n.routeNested(box, in, ov)
	})
	var out []Word
	var trace [][]Word
	var err error
	if traced {
		out, trace, err = gbn.RunTraced[Word](n.main, words, router)
	} else {
		out, err = gbn.Run[Word](n.main, words, router)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("bnb: %w", err)
	}
	return out, trace, nil
}

// oraclePlan compiles p along the per-box reference path: every box's
// controls are recorded through the override hook into the Plan layout.
func (n *Network) oraclePlan(t *testing.T, p perm.Perm) *Plan {
	t.Helper()
	N := n.Inputs()
	pl := &Plan{m: n.m, p: p.Clone(), bits: make([]uint64, len(n.cols)*n.colWords), wire: make([]int32, N)}
	record := func(i, j, base int, controls []bool) {
		for x, c := range controls {
			if c {
				k := base + x
				pl.bits[colIndex(n.m, i, j)*n.colWords+k>>6] |= 1 << uint(k&63)
			}
		}
	}
	words := make([]Word, N)
	for i, d := range p {
		words[i] = Word{Addr: d, Data: uint64(i)}
	}
	out, _, err := n.oracle(words, record, false)
	if err != nil {
		t.Fatalf("oracle compile of %v: %v", p, err)
	}
	for j, wd := range out {
		pl.wire[j] = int32(wd.Data)
	}
	return pl
}

// samePlan fails the test unless two plans agree bit for bit: permutation,
// every column bitset and the wire map.
func samePlan(t *testing.T, got, want *Plan) {
	t.Helper()
	if got.m != want.m || !got.p.Equal(want.p) || len(got.bits) != len(want.bits) {
		t.Fatalf("plan header differs: m=%d/%d perm %v/%v words %d/%d",
			got.m, want.m, got.p, want.p, len(got.bits), len(want.bits))
	}
	for x := range got.bits {
		if got.bits[x] != want.bits[x] {
			t.Fatalf("m=%d perm %v: column word %d = %#x, oracle %#x", got.m, got.p, x, got.bits[x], want.bits[x])
		}
	}
	for j := range got.wire {
		if got.wire[j] != want.wire[j] {
			t.Fatalf("m=%d perm %v: wire[%d] = %d, oracle %d", got.m, got.p, j, got.wire[j], want.wire[j])
		}
	}
}

// TestCompileMatchesOracleExhaustive compares the netlist Compile with the
// per-box oracle on every one of the 8! permutations at m=3.
func TestCompileMatchesOracleExhaustive(t *testing.T) {
	n, err := New(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	count := perm.ForEach(8, func(p perm.Perm) bool {
		pl, err := n.Compile(p)
		if err != nil {
			t.Fatalf("Compile(%v): %v", p, err)
		}
		samePlan(t, pl, n.oraclePlan(t, p))
		return true
	})
	if count != 40320 {
		t.Fatalf("visited %d permutations, want 8!", count)
	}
}

// TestCompileMatchesOracleRandom compares Compile with the oracle on the
// structured families and random permutations for m = 1..10, covering
// boxes that span several control words (p > 7).
func TestCompileMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0xb0b))
	for m := 1; m <= 10; m++ {
		n, err := New(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		N := n.Inputs()
		ps := []perm.Perm{perm.Identity(N), perm.Reversal(N), perm.BitReversal(m), perm.PerfectShuffle(m)}
		trials := 12
		if m >= 9 {
			trials = 3
		}
		for i := 0; i < trials; i++ {
			ps = append(ps, perm.Random(N, rng))
		}
		for _, p := range ps {
			pl, err := n.Compile(p)
			if err != nil {
				t.Fatalf("m=%d Compile: %v", m, err)
			}
			samePlan(t, pl, n.oraclePlan(t, p))
		}
	}
}

// TestRouteTracedMatchesOracle checks RouteTraced's output and every
// main-stage snapshot, and RouteInto's output, against the oracle.
func TestRouteTracedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7ace))
	for m := 1; m <= 8; m++ {
		n, err := New(m, 32)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 6; trial++ {
			words := make([]Word, n.Inputs())
			for i, d := range perm.Random(n.Inputs(), rng) {
				words[i] = Word{Addr: d, Data: rng.Uint64() >> 32}
			}
			wantOut, wantTrace, err := n.oracle(words, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			out, trace, err := n.RouteTraced(words)
			if err != nil {
				t.Fatal(err)
			}
			if len(trace) != len(wantTrace) {
				t.Fatalf("m=%d: %d snapshots, oracle %d", m, len(trace), len(wantTrace))
			}
			for s := range trace {
				for j := range trace[s] {
					if trace[s][j] != wantTrace[s][j] {
						t.Fatalf("m=%d snapshot %d line %d: %+v, oracle %+v", m, s, j, trace[s][j], wantTrace[s][j])
					}
				}
			}
			live := make([]Word, n.Inputs())
			if err := n.RouteInto(live, words); err != nil {
				t.Fatal(err)
			}
			for j := range wantOut {
				if out[j] != wantOut[j] || live[j] != wantOut[j] {
					t.Fatalf("m=%d output %d: traced %+v, live %+v, oracle %+v", m, j, out[j], live[j], wantOut[j])
				}
			}
		}
	}
}

// TestOverrideMatchesOracle drives random single and double stuck-at faults
// at orders past the golden file's through RouteIntoOverride and the
// oracle: the outputs, or the position-stamped errors, must be identical.
func TestOverrideMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5a7))
	for m := 5; m <= 8; m++ {
		n, err := New(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		N := n.Inputs()
		src := make([]Word, N)
		dst := make([]Word, N)
		rejected := 0
		for trial := 0; trial < 60; trial++ {
			for i, d := range perm.Random(N, rng) {
				src[i] = Word{Addr: d, Data: uint64(i)}
			}
			type stuck struct{ i, j, k int }
			faults := make([]stuck, 1+trial%2)
			for f := range faults {
				i := rng.Intn(m)
				faults[f] = stuck{i, rng.Intn(m - i), rng.Intn(N / 2)}
			}
			cross := trial%3 != 0
			ov := func(i, j, base int, controls []bool) {
				for _, f := range faults {
					if f.i == i && f.j == j && f.k >= base && f.k < base+len(controls) {
						controls[f.k-base] = cross
					}
				}
			}
			want, _, wantErr := n.oracle(src, ov, false)
			gotErr := n.RouteIntoOverride(dst, src, ov)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("m=%d faults %v: error %v, oracle %v", m, faults, gotErr, wantErr)
			}
			if wantErr != nil {
				rejected++
				if gotErr.Error() != wantErr.Error() {
					t.Fatalf("m=%d faults %v:\n got    %v\n oracle %v", m, faults, gotErr, wantErr)
				}
				continue
			}
			for j := range want {
				if dst[j] != want[j] {
					t.Fatalf("m=%d faults %v: output %d = %+v, oracle %+v", m, faults, j, dst[j], want[j])
				}
			}
		}
		if rejected == 0 {
			t.Fatalf("m=%d: no trial hit a rejected pass", m)
		}
	}
}
