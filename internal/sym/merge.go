package sym

import (
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

// mergeResults attempts to fold the two arms' results, out[start:mid]
// and out[mid:], into one. Error results always pass through unmerged,
// ahead of the merged result — they are per-path findings whose
// feasibility the mix layer checks individually. Returns false (fall
// back to plain forking, preserving fork-mode behavior exactly) unless
// each arm reaches the join with exactly one live path and the two
// values share a type.
func (x *Executor) mergeResults(out []Result, start, mid int, s1 State, g1 Val, pos lang.Pos) ([]Result, bool) {
	// The canonical diamond: exactly one live path per arm.
	ti, ok := onlyLive(out[start:mid])
	if !ok {
		return out, false
	}
	ei, ok := onlyLive(out[mid:])
	if !ok {
		return out, false
	}
	rt, re := out[start+ti], out[mid+ei]
	if !types.Equal(rt.Val.T, re.Val.T) && !(isFunTyped(rt.Val) && isFunTyped(re.Val)) {
		// Forking is what makes per-path types sound; arms of
		// different types stay separate paths.
		return out, false
	}
	// The two arms merge on the branch condition itself — the exact
	// SEIF-DEFER result shape. The merged continuation proceeds on the
	// parent span: the join undoes the fork.
	merged := Result{
		State: State{
			Guard: Val{CondOp{g1, rt.State.Guard, re.State.Guard}, types.Bool},
			Mem:   condMem(g1, rt.State.Mem, re.State.Mem),
			span:  s1.span,
		},
		Val: condVal(g1, rt.Val, re.Val),
	}

	x.Stats.Merges++
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
	n := start
	for _, r := range out[start:] {
		if r.Err != nil {
			out[n] = r
			n++
		}
	}
	return append(out[:n], merged), true
}

// onlyLive returns the index of the one successful result in rs, and
// false unless there is exactly one.
func onlyLive(rs []Result) (int, bool) {
	live := -1
	for i := range rs {
		if rs[i].Err == nil {
			if live >= 0 {
				return 0, false
			}
			live = i
		}
	}
	return live, live >= 0
}

// condVal builds g ? x : y, collapsing arms the paths agree on.
func condVal(g, x, y Val) Val {
	if ValEqual(x, y) {
		return x
	}
	return Val{CondOp{g, x, y}, x.T}
}
