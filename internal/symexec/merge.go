package symexec

import (
	"mix/internal/engine"
	"mix/internal/microc"
	"mix/internal/obs"
	"mix/internal/solver"
)

// This file implements veritesting-style state merging (DESIGN.md
// section 12). At the join point of a conditional whose arms both stay
// feasible, the arm states are folded back into ONE continuation state:
// cells the arms agree on keep their plain value, diverging cells
// become guarded ite values, and the path condition becomes
// base ∧ (g_then ∨ g_else) where each guard is the arm's PC suffix
// relative to the fork point. A ladder of k independent diamonds then
// explores O(k) states instead of O(2^k) paths, at the cost of larger
// solver queries — which the ite-elimination lowering in the solver and
// the divergence cap keep bounded.

// joinsDivergenceCap bounds the diverging cells a joins-mode merge may
// introduce ite values for; a merge that would exceed it falls back to
// forking. Aggressive mode ignores it.
const joinsDivergenceCap = 8

// mergeIf executes both feasible arms of a conditional, then-arm first,
// and attempts a join-point merge
// of the live outgoing flows. Returned and infeasible flows always
// pass through unmerged; if the merge is declined — wrong arm shape
// for joins mode, or too many diverging cells — the forked flows are
// returned exactly as the fork-only executor would produce them.
func (x *Executor) mergeIf(st State, s *microc.IfStmt, thenPC, elsePC *solver.PC, depth int) ([]flowOutcome, error) {
	base := st.PC
	// Same span tree shape as an unmerged fork, so traces keep
	// matching across merge modes; the merged
	// continuation proceeds on the parent span after the join.
	st.span.Fork(2)
	tst := st.Clone()
	tst.span = st.span.Child()
	tst.PC = thenPC
	thenFlows, err := x.execStmt(tst, s.Then, depth)
	if err != nil {
		return nil, err
	}
	est := st
	est.PC = elsePC
	est.span = st.span.Child()
	elseFlows := []flowOutcome{{st: est}}
	if s.Else != nil {
		elseFlows, err = x.execStmt(est, s.Else, depth)
		if err != nil {
			return nil, err
		}
	}
	st.span.Join()

	// Count each arm's live flows before copying any: most joins are
	// declined (an arm forked again, or returned), and a declined join
	// costs what a fork costs.
	thenLive, elseLive := liveFlows(thenFlows), liveFlows(elseFlows)
	mergeable := thenLive+elseLive >= 2
	if x.MergeMode == engine.MergeJoins && (thenLive != 1 || elseLive != 1) {
		// joins mode only rejoins the canonical diamond: one live path
		// per arm. Aggressive mode folds whatever reached the join.
		mergeable = false
	}
	if mergeable {
		maxDiv := joinsDivergenceCap
		if x.MergeMode == engine.MergeAggressive {
			maxDiv = 0
		}
		var passthrough []flowOutcome
		live := make([]State, 0, thenLive+elseLive)
		for _, fls := range [2][]flowOutcome{thenFlows, elseFlows} {
			for _, fl := range fls {
				if fl.returned || fl.st.PC.Dead() {
					passthrough = append(passthrough, fl)
				} else {
					live = append(live, fl.st)
				}
			}
		}
		if merged, ok := x.mergeStates(st.span, s.StmtPos().String(), base, live, maxDiv); ok {
			return append(passthrough, flowOutcome{st: merged}), nil
		}
	}
	return append(thenFlows, elseFlows...), nil
}

// liveFlows counts the flows that reach the join point: not returned,
// on a path condition not known dead.
func liveFlows(fls []flowOutcome) int {
	n := 0
	for _, fl := range fls {
		if !fl.returned && !fl.st.PC.Dead() {
			n++
		}
	}
	return n
}

// mergeStates folds sibling states — all extending base, all feasible —
// into one guarded state. maxDiv > 0 declines the merge when more than
// that many cells diverge (the query-count heuristic: every diverging
// cell becomes an ite that rides along in each downstream query that
// touches it, so the cap bounds the estimated per-query growth).
// Returns false, leaving the inputs usable as separate paths, when the
// states do not share base or the cap is exceeded.
func (x *Executor) mergeStates(span *obs.Span, site string, base *solver.PC, states []State, maxDiv int) (State, bool) {
	if len(states) < 2 {
		return State{}, false
	}
	guards := make([]solver.Formula, len(states))
	for i, s := range states {
		suf, ok := s.PC.Suffix(base)
		if !ok {
			return State{}, false
		}
		guards[i] = solver.Conj(suf...)
	}
	// Union of initialized cells across the arms, in (object ID, field)
	// order: a merge of the arms' sorted cell lists.
	var keys []cellKey
	next := make([]int, len(states))
	for {
		var least *cellKey
		for i, s := range states {
			if next[i] < len(s.Mem.cells) {
				if k := &s.Mem.cells[next[i]].cellKey; least == nil || k.compare(*least) < 0 {
					least = k
				}
			}
		}
		if least == nil {
			break
		}
		k := *least
		keys = append(keys, k)
		for i, s := range states {
			if next[i] < len(s.Mem.cells) && s.Mem.cells[next[i]].compare(k) == 0 {
				next[i]++
			}
		}
	}
	// Read every union cell in every arm — materializing, via the usual
	// lazy initialization, exactly what that arm would observe on its
	// next access — then split the cells into agreeing and diverging.
	var diverging []cellKey
	var divVals [][]Value
	collapsed := 0
	for _, k := range keys {
		vs := make([]Value, len(states))
		for i, s := range states {
			vs[i] = x.ReadCell(s, k.obj, k.field)
		}
		same := true
		for i := 1; i < len(vs); i++ {
			if !valueEq(vs[0], vs[i]) {
				same = false
				break
			}
		}
		if same {
			collapsed++
			continue
		}
		diverging = append(diverging, k)
		divVals = append(divVals, vs)
	}
	if maxDiv > 0 && len(diverging) > maxDiv {
		return State{}, false
	}
	merged := states[0].Clone()
	if len(guards) == 2 && solver.Complementary(guards[0], guards[1]) {
		// g ∨ ¬g: the join restores the fork's path condition.
		// Simplify folds this disjunction only when g is no
		// disjunction itself.
		merged.PC = base
	} else {
		merged.PC = base.And(solver.Disj(guards...))
	}
	merged.span = span
	for j, k := range diverging {
		vs := divVals[j]
		acc := vs[len(vs)-1]
		for i := len(vs) - 2; i >= 0; i-- {
			acc = mergeVal(guards[i], vs[i], acc)
		}
		merged.Mem.Write(k.obj, k.field, acc)
	}
	x.Stats.Merges++
	x.Stats.MergedCells += len(diverging)
	x.Stats.CollapsedCells += collapsed
	span.Merge(site, int64(len(diverging)), int64(collapsed))
	return merged, true
}

// mergeVal folds two arm values of one cell under guard g. Integer-like
// pairs merge at the term level (solver.Ite), which keeps downstream
// arithmetic working on the merged value; everything else merges at
// the value level (VITE), which the pointer machinery already handles.
func mergeVal(g solver.Formula, a, b Value) Value {
	if ta, okA := intOf(a); okA {
		if tb, okB := intOf(b); okB {
			return VInt{T: solver.NewIte(g, ta, tb)}
		}
	}
	return mkITE(g, a, b)
}
