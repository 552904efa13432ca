package core

import (
	"fmt"

	"repro/internal/perm"
)

// Settings captures every switch decision the network makes for one
// permutation: the exchange bit of global switch k (0 <= k < N/2) in nested
// stage j of main stage i. Holding the settings, the data path can be
// replayed without consulting addresses at all — the circuit-switched
// operating mode, where one self-routing pass establishes a circuit that
// subsequent data batches reuse. It is a view of the compiled Plan.
type Settings struct {
	pl *Plan
}

// M returns the order of the network the settings belong to.
func (s *Settings) M() int { return s.pl.m }

// SwitchCount returns the total number of recorded switch decisions; it
// equals the one-bit-slice switch count sum over stages, (N/2)·(1/2)m(m+1).
func (s *Settings) SwitchCount() int { return s.pl.SwitchCount() }

// ComputeSettings runs the self-routing control plane on the permutation
// and records every switch decision. The returned Settings replay the
// permutation's data path via ApplySettings.
func (n *Network) ComputeSettings(p perm.Perm) (*Settings, error) {
	if len(p) != n.Inputs() {
		return nil, fmt.Errorf("bnb: permutation length %d, want %d", len(p), n.Inputs())
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("bnb: %w", err)
	}
	pl, err := n.Compile(p)
	if err != nil {
		return nil, err
	}
	return &Settings{pl: pl}, nil
}

// ApplySettings replays recorded switch settings over arbitrary payloads:
// the words' addresses are ignored, and word i lands on the output that the
// recorded permutation assigned to input i. This is the pure data path —
// exactly what the (q-1) slaved slices of the hardware do.
func (n *Network) ApplySettings(s *Settings, words []Word) ([]Word, error) {
	if s == nil {
		return nil, fmt.Errorf("bnb: nil settings")
	}
	if s.pl.m != n.m {
		return nil, fmt.Errorf("bnb: settings are for order %d, network has order %d", s.pl.m, n.m)
	}
	if len(words) != n.Inputs() {
		return nil, fmt.Errorf("bnb: got %d words, want %d", len(words), n.Inputs())
	}
	return n.wired(s.pl, words), nil
}
