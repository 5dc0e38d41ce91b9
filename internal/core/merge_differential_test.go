package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"mix/internal/engine"
	"mix/internal/langgen"
	"mix/internal/types"
)

// TestMergeModesMatchForking is the core-language differential test
// for join-point state merging (DESIGN.md section 12): checking
// randomly generated programs with Merge joins must give the same
// verdict, the same derived type, the same error text, and
// the same findings as pure forking. Reports are compared on position,
// message, and feasibility; the guard string is excluded because a
// merged path's guard is by construction the disjunction of the arm
// guards — textually different, logically the same condition (a report
// is feasible under the disjunction exactly when it is feasible under
// one of the arms). Run under -race the engine leg exercises merged
// disjunction/ite queries across the parallel solver pool.
func TestMergeModesMatchForking(t *testing.T) {
	const programs = 200
	gen := langgen.New(0xE9E9, langgen.DefaultConfig())

	accepted, rejected, merges := 0, 0, 0
	for i := 0; i < programs; i++ {
		prog := gen.Closed()
		base := New(Options{})
		wantTy, wantErr := base.CheckSymbolic(types.EmptyEnv(), prog)
		wantReports := sortedReportText(base)
		if wantErr == nil {
			accepted++
		} else {
			rejected++
		}
		c := New(Options{Merge: engine.MergeJoins})
		gotTy, gotErr := c.CheckSymbolic(types.EmptyEnv(), prog)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("program %s: verdict diverges: forking err=%v, merged err=%v",
				prog, wantErr, gotErr)
		}
		if wantErr != nil && wantErr.Error() != gotErr.Error() {
			t.Fatalf("program %s: error text diverges:\nforking: %v\nmerged:  %v",
				prog, wantErr, gotErr)
		}
		if wantErr == nil && !types.Equal(wantTy, gotTy) {
			t.Fatalf("program %s: type diverges: forking %s, merged %s",
				prog, wantTy, gotTy)
		}
		if got := sortedReportText(c); got != wantReports {
			t.Fatalf("program %s: reports diverge\nforking:\n%s\nmerged:\n%s",
				prog, wantReports, got)
		}
		merges += c.Executor().Stats.Merges
		// Merged disjunction guards and ite-defined variables must also
		// survive the engine's sliced, memoized solving path.
		eng := engine.New(engine.Options{Workers: 4})
		c = New(Options{Merge: engine.MergeJoins, Engine: eng})
		gotTy, gotErr = c.CheckSymbolic(types.EmptyEnv(), prog)
		eng.Close()
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("program %s (joins+engine): verdict diverges: forking err=%v, merged err=%v",
				prog, wantErr, gotErr)
		}
		if wantErr == nil && !types.Equal(wantTy, gotTy) {
			t.Fatalf("program %s (joins+engine): type diverges: forking %s, merged %s",
				prog, wantTy, gotTy)
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("degenerate distribution: %d accepted, %d rejected", accepted, rejected)
	}
	if merges == 0 {
		t.Fatal("no program triggered a join-point merge; property is vacuous")
	}
	t.Logf("%d accepted, %d rejected, %d joins-mode merges, all agree", accepted, rejected, merges)
}

// sortedReportText canonicalizes a checker's findings for cross-mode
// comparison: one line per distinct (position, message), feasible when
// ANY record of it was feasible, sorted. Forking revisits a statement
// once per path, so one finding can recur — infeasible under one arm's
// guard, feasible under the other — where the merged flow records it
// once under the disjunction, which is feasible exactly when some arm
// is. The OR-fold is that equivalence, applied to both sides.
func sortedReportText(c *Checker) string {
	feasible := map[string]bool{}
	for _, r := range c.Reports {
		key := fmt.Sprintf("%s: %s", r.Pos, r.Msg)
		feasible[key] = feasible[key] || r.Feasible
	}
	out := make([]string, 0, len(feasible))
	for key, f := range feasible {
		out = append(out, fmt.Sprintf("%s [feasible=%v]", key, f))
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
