package sym

import (
	"mix/internal/engine"
	"mix/internal/lang"
	"mix/internal/types"
)

// This file implements veritesting-style join-point merging for the
// FORKING executor (DESIGN.md section 12). SEIF-DEFER already shows
// that a conditional can produce one merged result instead of two —
// the admissibility argument in the paper's Section 3.1 — but defers
// every conditional. Join-point merging keeps the forking rule and
// rejoins the two arms only after both have been executed: when each
// arm reaches the join with a type-compatible value, the pair folds
// into the SEIF-DEFER result shape (guarded CondOp value, CondMem
// memory, disjoined guard), so k sequential diamonds explore O(k)
// states instead of O(2^k) paths.

// mergeResults attempts to fold the two arms' results into one. Error
// results always pass through unmerged — they are per-path findings
// whose feasibility the mix layer checks individually. Returns false
// (fall back to plain forking, preserving fork-mode behavior exactly)
// when the arm shape does not fit the mode or the values cannot share
// a type.
func (x *Executor) mergeResults(s1 State, g1 Val, pos lang.Pos, thenRs, elseRs []Result) ([]Result, bool) {
	var pass []Result
	var thenOK, elseOK []Result
	for _, r := range thenRs {
		if r.Err != nil {
			pass = append(pass, r)
		} else {
			thenOK = append(thenOK, r)
		}
	}
	for _, r := range elseRs {
		if r.Err != nil {
			pass = append(pass, r)
		} else {
			elseOK = append(elseOK, r)
		}
	}
	switch x.MergeMode {
	case engine.MergeJoins:
		// The canonical diamond: exactly one live path per arm.
		if len(thenOK) != 1 || len(elseOK) != 1 {
			return nil, false
		}
	case engine.MergeAggressive:
		// Fold whatever reached the join, as long as both arms did.
		if len(thenOK) == 0 || len(elseOK) == 0 {
			return nil, false
		}
	default:
		return nil, false
	}
	oks := append(thenOK, elseOK...)
	for _, r := range oks[1:] {
		if !types.Equal(oks[0].Val.T, r.Val.T) && !(isFunTyped(oks[0].Val) && isFunTyped(r.Val)) {
			// Forking is what makes per-path types sound; arms of
			// different types stay separate paths.
			return nil, false
		}
	}

	var merged Result
	if len(oks) == 2 {
		// Two arms merge on the branch condition itself — the exact
		// SEIF-DEFER result shape, smaller than guard-chain folding.
		rt, re := oks[0], oks[1]
		merged = Result{
			State: State{
				Guard: Val{CondOp{g1, rt.State.Guard, re.State.Guard}, types.Bool},
				Mem:   condMem(g1, rt.State.Mem, re.State.Mem),
			},
			Val: condVal(g1, rt.Val, re.Val),
		}
	} else {
		// N-way fold (aggressive): chain each path's own guard. The
		// guard CondOp{g, g, acc} reads "g, or else acc" — the
		// disjunction of the folded paths' guards.
		last := oks[len(oks)-1]
		acc := Result{State: State{Guard: last.State.Guard, Mem: last.State.Mem}, Val: last.Val}
		for i := len(oks) - 2; i >= 0; i-- {
			gi := oks[i].State.Guard
			acc = Result{
				State: State{
					Guard: Val{CondOp{gi, gi, acc.State.Guard}, types.Bool},
					Mem:   condMem(gi, oks[i].State.Mem, acc.State.Mem),
				},
				Val: condVal(gi, oks[i].Val, acc.Val),
			}
		}
		merged = acc
	}
	// The merged continuation proceeds on the parent span at the parent
	// fork depth: the join undoes the fork.
	merged.State.depth = s1.depth
	merged.State.span = s1.span

	x.statsMu.Lock()
	x.Stats.Merges++
	x.statsMu.Unlock()
	// The sym executor merges whole states, not cells: n counts the
	// diverging components folded under a guard (value, memory), n2 the
	// components the arms agreed on.
	div, eq := int64(0), int64(0)
	if _, isCond := merged.Val.U.(CondOp); isCond {
		div++
	} else {
		eq++
	}
	if _, isCond := merged.State.Mem.(CondMem); isCond {
		div++
	} else {
		eq++
	}
	s1.span.Merge(pos.String(), div, eq)
	return append(pass, merged), true
}

// condVal builds g ? x : y, collapsing arms the paths agree on.
func condVal(g, x, y Val) Val {
	if ValEqual(x, y) {
		return x
	}
	return Val{CondOp{g, x, y}, x.T}
}
