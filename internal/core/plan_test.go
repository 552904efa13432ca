package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/neterr"
	"repro/internal/perm"
)

// testPerms returns a representative permutation set for order m: the
// structured families plus seeded random draws.
func testPerms(t *testing.T, m int) []perm.Perm {
	t.Helper()
	N := 1 << uint(m)
	rng := rand.New(rand.NewSource(1991))
	ps := []perm.Perm{perm.Identity(N), perm.Reversal(N), perm.BitReversal(m), perm.PerfectShuffle(m), perm.BitComplement(m)}
	for i := 0; i < 8; i++ {
		ps = append(ps, perm.Random(N, rng))
	}
	return ps
}

// TestCompileAgreesWithSettings checks that Compile and the Settings path
// record exactly the per-box oracle's switch decisions, bit for bit, and
// that the wire map is the inverse of the compiled permutation.
func TestCompileAgreesWithSettings(t *testing.T) {
	for m := 1; m <= 4; m++ {
		n, err := New(m, 16)
		if err != nil {
			t.Fatalf("New(%d): %v", m, err)
		}
		for _, p := range testPerms(t, m) {
			pl, err := n.Compile(p)
			if err != nil {
				t.Fatalf("m=%d Compile(%v): %v", m, p, err)
			}
			s, err := n.ComputeSettings(p)
			if err != nil {
				t.Fatalf("m=%d ComputeSettings(%v): %v", m, p, err)
			}
			oracle := n.oraclePlan(t, p)
			for i := 0; i < m; i++ {
				for j := 0; j < m-i; j++ {
					for k := 0; k < n.Inputs()/2; k++ {
						want := oracle.Control(i, j, k)
						if got := pl.Control(i, j, k); got != want {
							t.Fatalf("m=%d perm %v: control (%d,%d,%d) = %v, oracle says %v",
								m, p, i, j, k, got, want)
						}
						if got := s.pl.Control(i, j, k); got != want {
							t.Fatalf("m=%d perm %v: settings control (%d,%d,%d) = %v, oracle says %v",
								m, p, i, j, k, got, want)
						}
					}
				}
			}
			for i, d := range p {
				if got := pl.wire[d]; got != int32(i) {
					t.Fatalf("m=%d perm %v: wire[%d] = %d, want %d", m, p, d, got, i)
				}
			}
			if pl.SwitchCount() != s.SwitchCount() {
				t.Fatalf("m=%d: plan counts %d switches, settings %d", m, pl.SwitchCount(), s.SwitchCount())
			}
		}
	}
}

// TestReplayMatchesLiveRoute routes every test permutation both live
// (RouteInto) and via compile→replay and compares word for word, with
// distinct payloads so data movement is fully checked.
func TestReplayMatchesLiveRoute(t *testing.T) {
	for m := 1; m <= 5; m++ {
		n, err := New(m, 16)
		if err != nil {
			t.Fatalf("New(%d): %v", m, err)
		}
		N := n.Inputs()
		for _, p := range testPerms(t, m) {
			src := make([]Word, N)
			for i, d := range p {
				src[i] = Word{Addr: d, Data: uint64(1000 + i)}
			}
			live := make([]Word, N)
			if err := n.RouteInto(live, src); err != nil {
				t.Fatalf("m=%d RouteInto: %v", m, err)
			}
			pl, err := n.Compile(p)
			if err != nil {
				t.Fatalf("m=%d Compile: %v", m, err)
			}
			replayed := make([]Word, N)
			if err := n.Replay(pl, replayed, src); err != nil {
				t.Fatalf("m=%d Replay: %v", m, err)
			}
			for j := range live {
				if live[j] != replayed[j] {
					t.Fatalf("m=%d perm %v: output %d live %+v, replay %+v", m, p, j, live[j], replayed[j])
				}
			}
			// ReplayWired drives the bitset image through the real wiring and
			// must agree with the wire-map gather.
			wired, err := n.ReplayWired(pl, src)
			if err != nil {
				t.Fatalf("m=%d ReplayWired: %v", m, err)
			}
			for j := range live {
				if live[j] != wired[j] {
					t.Fatalf("m=%d perm %v: output %d live %+v, wired replay %+v", m, p, j, live[j], wired[j])
				}
			}
			// ApplyPlan ignores addresses: word i must land on output p[i].
			out, err := n.ApplyPlan(pl, src)
			if err != nil {
				t.Fatalf("m=%d ApplyPlan: %v", m, err)
			}
			for i, d := range p {
				if out[d] != src[i] {
					t.Fatalf("m=%d perm %v: ApplyPlan put %+v on output %d, want %+v", m, p, out[d], d, src[i])
				}
			}
		}
	}
}

// TestCompileReplayExhaustive replays every permutation of the m <= 3
// networks against the live route.
func TestCompileReplayExhaustive(t *testing.T) {
	for m := 1; m <= 3; m++ {
		n, err := New(m, 16)
		if err != nil {
			t.Fatalf("New(%d): %v", m, err)
		}
		N := n.Inputs()
		live := make([]Word, N)
		replayed := make([]Word, N)
		src := make([]Word, N)
		perm.ForEach(N, func(p perm.Perm) bool {
			for i, d := range p {
				src[i] = Word{Addr: d, Data: uint64(77 + i)}
			}
			if err := n.RouteInto(live, src); err != nil {
				t.Fatalf("m=%d RouteInto(%v): %v", m, p, err)
			}
			pl, err := n.Compile(p)
			if err != nil {
				t.Fatalf("m=%d Compile(%v): %v", m, p, err)
			}
			if err := n.Replay(pl, replayed, src); err != nil {
				t.Fatalf("m=%d Replay(%v): %v", m, p, err)
			}
			for j := range live {
				if live[j] != replayed[j] {
					t.Fatalf("m=%d perm %v: output %d live %+v, replay %+v", m, p, j, live[j], replayed[j])
				}
			}
			return true
		})
	}
}

// TestReplayInPlace replays with dst aliasing src.
func TestReplayInPlace(t *testing.T) {
	n, err := New(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	p := perm.BitReversal(4)
	pl, err := n.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	words := make([]Word, n.Inputs())
	for i, d := range p {
		words[i] = Word{Addr: d, Data: uint64(i)}
	}
	if err := n.Replay(pl, words, words); err != nil {
		t.Fatalf("in-place Replay: %v", err)
	}
	if !Delivered(words) {
		t.Fatalf("in-place Replay misdelivered: %v", words)
	}
}

// TestPlanErrors covers every refusal of the plan API.
func TestPlanErrors(t *testing.T) {
	n, err := New(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	N := n.Inputs()
	if _, err := n.Compile(perm.Identity(N - 1)); !errors.Is(err, neterr.ErrBadSize) {
		t.Fatalf("Compile(short) = %v, want ErrBadSize", err)
	}
	if _, err := n.Compile(perm.Perm{0, 0, 1, 2, 3, 4, 5, 6}); !errors.Is(err, neterr.ErrNotPermutation) {
		t.Fatalf("Compile(dup) = %v, want ErrNotPermutation", err)
	}
	pl, err := n.Compile(perm.Reversal(N))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Word, N)
	src := make([]Word, N)
	for i, d := range perm.Reversal(N) {
		src[i] = Word{Addr: d}
	}
	if err := n.Replay(nil, dst, src); err == nil {
		t.Fatal("Replay(nil plan) succeeded")
	}
	if err := n.Replay(pl, dst, src[:N-1]); !errors.Is(err, neterr.ErrBadSize) {
		t.Fatalf("Replay(short src) = %v, want ErrBadSize", err)
	}
	if err := n.Replay(pl, dst[:N-1], src); !errors.Is(err, neterr.ErrBadSize) {
		t.Fatalf("Replay(short dst) = %v, want ErrBadSize", err)
	}
	// A batch for a different permutation must be refused, not misdelivered.
	other := make([]Word, N)
	for i, d := range perm.Identity(N) {
		other[i] = Word{Addr: d}
	}
	if err := n.Replay(pl, dst, other); !errors.Is(err, neterr.ErrPlanMismatch) {
		t.Fatalf("Replay(mismatched batch) = %v, want ErrPlanMismatch", err)
	}
	// A plan from a different order must be refused everywhere.
	n2, err := New(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	pl2, err := n2.Compile(perm.Identity(n2.Inputs()))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Replay(pl2, dst, src); !errors.Is(err, neterr.ErrPlanMismatch) {
		t.Fatalf("Replay(foreign plan) = %v, want ErrPlanMismatch", err)
	}
	if _, err := n.ApplyPlan(pl2, src); !errors.Is(err, neterr.ErrPlanMismatch) {
		t.Fatalf("ApplyPlan(foreign plan) = %v, want ErrPlanMismatch", err)
	}
	if _, err := n.ReplayWired(pl2, src); !errors.Is(err, neterr.ErrPlanMismatch) {
		t.Fatalf("ReplayWired(foreign plan) = %v, want ErrPlanMismatch", err)
	}
	if _, err := n.ApplyPlan(pl, src[:N-1]); !errors.Is(err, neterr.ErrBadSize) {
		t.Fatalf("ApplyPlan(short) = %v, want ErrBadSize", err)
	}
	// Accessors.
	if pl.M() != 3 || pl.Inputs() != N {
		t.Fatalf("plan reports M=%d Inputs=%d", pl.M(), pl.Inputs())
	}
	got := pl.Perm()
	if !got.Equal(perm.Reversal(N)) {
		t.Fatalf("plan.Perm() = %v", got)
	}
	got[0] = 99 // must be a copy
	if pl.p[0] == 99 {
		t.Fatal("plan.Perm() aliases the plan's permutation")
	}
}

// TestCompileAllocs pins the compile miss path's allocation count: the Plan,
// its permutation copy, its column bitsets (one backing array) and its wire
// map.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	n, err := New(7, 16)
	if err != nil {
		t.Fatal(err)
	}
	p := perm.Random(n.Inputs(), rand.New(rand.NewSource(7)))
	if _, err := n.Compile(p); err != nil { // warm the scratch pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := n.Compile(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("Compile at m=7 allocates %.1f objects, want <= 6", allocs)
	}
}
