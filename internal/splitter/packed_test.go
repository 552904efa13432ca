package splitter

import (
	"math/rand"
	"testing"

	"repro/internal/arbiter"
)

// packColumn packs a column of input bits into the pair-lane words
// arbiter.ControlsPacked takes: lane t carries bits[2t] in a and
// bits[2t+1] in b.
func packColumn(bits []uint8) (a, b []uint64) {
	pairs := len(bits) / 2
	words := (pairs + 63) / 64
	a, b = make([]uint64, words), make([]uint64, words)
	for t := 0; t < pairs; t++ {
		a[t>>6] |= uint64(bits[2*t]) << uint(t&63)
		b[t>>6] |= uint64(bits[2*t+1]) << uint(t&63)
	}
	return a, b
}

// checkPackedColumn compares ControlsPacked on a column of sp(p) boxes
// against ControlsInto box by box: equal controls on every balanced box,
// and the first pair of the first box ControlsInto rejects as the reported
// violation.
func checkPackedColumn(t *testing.T, p int, bits []uint8) {
	t.Helper()
	sp, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	a, b := packColumn(bits)
	ctl := make([]uint64, len(a))
	got := arbiter.ControlsPacked(ctl, a, b, make([]uint64, 2*len(a)), p, len(bits)/2)
	want := -1
	size := sp.Inputs()
	controls := make([]bool, sp.Switches())
	work := make([]uint8, WorkSize(p))
	for base := 0; base < len(bits); base += size {
		if err := sp.ControlsInto(controls, bits[base:base+size], work); err != nil {
			if want < 0 {
				want = base / 2
			}
			continue
		}
		for x, c := range controls {
			q := base/2 + x
			if bit := ctl[q>>6]>>uint(q&63)&1 == 1; bit != c {
				t.Fatalf("p=%d bits %v: pair %d control %v, ControlsInto says %v", p, bits, q, bit, c)
			}
		}
	}
	if got != want {
		t.Fatalf("p=%d bits %v: ControlsPacked reports violation at pair %d, ControlsInto at %d", p, bits, got, want)
	}
}

// TestControlsPackedExhaustive proves the closed-form packed arbiter equal
// to the tree walk (FlagsInto under ControlsInto) on every input of A(p)
// for p <= 4 — balanced inputs and every precondition violation: odd
// 1-counts, and sp(1) with equal inputs.
func TestControlsPackedExhaustive(t *testing.T) {
	for p := 1; p <= 4; p++ {
		n := 1 << uint(p)
		bits := make([]uint8, n)
		for v := 0; v < 1<<uint(n); v++ {
			for x := range bits {
				bits[x] = uint8(v >> uint(x) & 1)
			}
			checkPackedColumn(t, p, bits)
		}
	}
}

// TestControlsPackedRandom checks the packed arbiter on random columns of
// sp(p) boxes up to p = 10, where a box spans several words, with and
// without planted precondition violations.
func TestControlsPackedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0xa4b))
	for p := 1; p <= 10; p++ {
		for _, lines := range []int{1 << uint(p), 1 << 11} {
			if lines < 1<<uint(p) {
				continue
			}
			for trial := 0; trial < 40; trial++ {
				bits := make([]uint8, lines)
				size := 1 << uint(p)
				for base := 0; base < lines; base += size {
					box := bits[base : base+size]
					if p == 1 {
						box[0] = uint8(rng.Intn(2))
						box[1] = 1 - box[0]
						continue
					}
					ones := 0
					for x := range box {
						box[x] = uint8(rng.Intn(2))
						ones += int(box[x])
					}
					if ones%2 != 0 {
						box[rng.Intn(size)] ^= 1
					}
				}
				if trial%4 == 3 {
					// Unbalance one box: flip a bit (odd 1-count; for sp(1),
					// equal inputs).
					bits[rng.Intn(lines)] ^= 1
				}
				checkPackedColumn(t, p, bits)
			}
		}
	}
}
