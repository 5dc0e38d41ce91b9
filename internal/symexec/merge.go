package symexec

import (
	"sort"

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

// mergeCap returns the configured joins-mode divergence cap.
func (x *Executor) mergeCap() int {
	if x.MergeCap > 0 {
		return x.MergeCap
	}
	return 8
}

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

	var passthrough []flowOutcome
	var live []State
	thenLive, elseLive := 0, 0
	for i, fl := range append(thenFlows[:len(thenFlows):len(thenFlows)], elseFlows...) {
		if fl.returned || fl.st.PC.Dead() {
			passthrough = append(passthrough, fl)
			continue
		}
		live = append(live, fl.st)
		if i < len(thenFlows) {
			thenLive++
		} else {
			elseLive++
		}
	}
	mergeable := len(live) >= 2
	if x.MergeMode == engine.MergeJoins && (thenLive != 1 || elseLive != 1) {
		// joins mode only rejoins the canonical diamond: one live path
		// per arm. Aggressive mode folds whatever reached the join.
		mergeable = false
	}
	if mergeable {
		maxDiv := x.mergeCap()
		if x.MergeMode == engine.MergeAggressive {
			maxDiv = 0
		}
		if merged, ok := x.mergeStates(st.span, s.StmtPos().String(), base, live, maxDiv); ok {
			return append(passthrough, flowOutcome{st: merged}), nil
		}
	}
	return append(thenFlows, elseFlows...), nil
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
	// Union of initialized cells across the arms, in deterministic
	// (object ID, field) order.
	seen := map[cellKey]bool{}
	var keys []cellKey
	for _, s := range states {
		s.Mem.Cells(func(obj *Object, field string, _ Value) {
			k := cellKey{obj, field}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].obj.ID != keys[j].obj.ID {
			return keys[i].obj.ID < keys[j].obj.ID
		}
		return keys[i].field < keys[j].field
	})
	// Read every union cell in every arm — materializing, via the usual
	// lazy initialization, exactly what that arm would observe on its
	// next access — then split the cells into agreeing and diverging.
	var diverging []cellKey
	vals := map[cellKey][]Value{}
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
		vals[k] = vs
	}
	if maxDiv > 0 && len(diverging) > maxDiv {
		return State{}, false
	}
	merged := states[0].Clone()
	merged.PC = base.And(solver.Disj(guards...))
	merged.span = span
	for _, k := range diverging {
		vs := vals[k]
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
