package core

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perm"
)

var updateStuck = flag.Bool("update-stuck", false, "rewrite testdata/stuckat_golden.txt")

// stuckAtProbes returns the probe permutations the stuck-at golden routes at
// order m: the structured families plus seeded random draws.
func stuckAtProbes(m int) []perm.Perm {
	N := 1 << uint(m)
	ps := []perm.Perm{perm.Identity(N), perm.Reversal(N), perm.BitReversal(m), perm.PerfectShuffle(m), perm.BitComplement(m)}
	rng := rand.New(rand.NewSource(int64(0x57 + m)))
	for i := 0; i < 3; i++ {
		ps = append(ps, perm.Random(N, rng))
	}
	return ps
}

// stuckAtLines routes every probe under every single stuck-at element fault
// of an order-m network (and once fault-free) through RouteIntoOverride and
// renders one line per pass: the source index on each output, or the
// routing error verbatim.
func stuckAtLines(t *testing.T, m int) []string {
	t.Helper()
	n, err := New(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	N := n.Inputs()
	probes := stuckAtProbes(m)
	dst := make([]Word, N)
	src := make([]Word, N)
	var lines []string
	pass := func(label string, ov Override) {
		for pi, p := range probes {
			for i, d := range p {
				src[i] = Word{Addr: d, Data: uint64(i)}
			}
			var b strings.Builder
			fmt.Fprintf(&b, "m=%d %s probe=%d ", m, label, pi)
			if err := n.RouteIntoOverride(dst, src, ov); err != nil {
				b.WriteString("err=" + err.Error())
			} else {
				b.WriteString("out=")
				for j, wd := range dst {
					if j > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, "%d", wd.Data)
				}
			}
			lines = append(lines, b.String())
		}
	}
	pass("healthy", nil)
	for i := 0; i < m; i++ {
		for j := 0; j < m-i; j++ {
			for k := 0; k < N/2; k++ {
				for _, cross := range []bool{false, true} {
					pass(fmt.Sprintf("stuck=%d,%d,%d,%v", i, j, k, cross),
						func(mainStage, column, switchBase int, controls []bool) {
							if mainStage != i || column != j {
								return
							}
							if x := k - switchBase; x >= 0 && x < len(controls) {
								controls[x] = cross
							}
						})
				}
			}
		}
	}
	return lines
}

// TestStuckAtGolden pins the observable behaviour of the override path under
// every single stuck-at fault for m <= 4: the delivered arrangement of each
// probe, or the exact position-stamped routing error. The fault diagnoser's
// dictionaries embed these error strings, so any drift in them (wording,
// position stamps, the reported 1-bit count, or which splitter is reported
// first) would silently change its probe sets. Regenerate with
// `go test ./internal/core -run TestStuckAtGolden -update-stuck` only for an
// intended behaviour change.
func TestStuckAtGolden(t *testing.T) {
	var got []string
	for m := 1; m <= 4; m++ {
		got = append(got, stuckAtLines(t, m)...)
	}
	path := filepath.Join("testdata", "stuckat_golden.txt")
	if *updateStuck {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var want []string
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d passes, golden has %d", len(got), len(want))
	}
	mismatches, rejected := 0, 0
	for i := range got {
		if strings.Contains(want[i], " err=") {
			rejected++
		}
		if got[i] != want[i] {
			t.Errorf("pass %d:\n got  %s\n want %s", i, got[i], want[i])
			if mismatches++; mismatches > 5 {
				t.Fatal("too many mismatches")
			}
		}
	}
	// The golden must exercise both outcomes, or it pins nothing about
	// the error text.
	if rejected == 0 || rejected == len(want) {
		t.Fatalf("golden has %d rejected passes of %d", rejected, len(want))
	}
}
