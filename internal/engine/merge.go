package engine

import "fmt"

// MergeMode selects the veritesting-style state-merging policy shared
// by the symbolic executors (DESIGN.md section 12): whether the two
// feasible arms of a conditional are rejoined at the post-dominator
// into one state with guarded (ite) cells instead of being explored as
// separate paths.
type MergeMode int

const (
	// MergeOff forks every feasible conditional (the classic KLEE
	// discipline; path count grows as 2^k over k sequential diamonds).
	MergeOff MergeMode = iota
	// MergeJoins merges at a conditional's join point when each arm
	// reaches it with exactly one live path and the number of
	// diverging state cells stays under the divergence cap. This is
	// the default for the command-line tools.
	MergeJoins
	// MergeAggressive additionally folds multi-path arms and the live
	// set carried across loop iterations, ignoring the divergence cap.
	// Only summary computation sets it, on the MicroC executor; it is
	// not a user-facing mode, and ParseMergeMode rejects it.
	MergeAggressive
)

func (m MergeMode) String() string {
	switch m {
	case MergeJoins:
		return "joins"
	case MergeAggressive:
		return "aggressive"
	}
	return "off"
}

// ParseMergeMode parses a -merge flag value. The empty string selects
// the documented default, joins.
func ParseMergeMode(s string) (MergeMode, error) {
	switch s {
	case "", "joins":
		return MergeJoins, nil
	case "off":
		return MergeOff, nil
	}
	return MergeOff, fmt.Errorf("unknown merge mode %q (want off or joins)", s)
}
