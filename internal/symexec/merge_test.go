package symexec

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"mix/internal/engine"
	"mix/internal/pointer"
	"mix/internal/solver"
)

// runMerged executes entry with the given merge mode.
func runMerged(t *testing.T, src, entry string, mode engine.MergeMode) (*Executor, []Outcome) {
	t.Helper()
	prog := mustParse(src)
	x := New(prog, pointer.Analyze(prog), engine.New(engine.Options{}))
	x.MergeMode = mode
	outs, err := x.Run(entry)
	if err != nil {
		t.Fatalf("Run(%s, merge=%s): %v", entry, mode, err)
	}
	return x, outs
}

const ladder3 = `
int f(int a, int b, int c) {
  int s = 0;
  if (a > 0) { s = s + 1; } else { s = s + 2; }
  if (b > 0) { s = s + 4; } else { s = s + 8; }
  if (c > 0) { s = s + 16; } else { s = s + 32; }
  return s;
}
`

// TestJoinsCollapsesLadder is the unit-sized version of the acceptance
// benchmark: a ladder of k independent diamonds explodes to 2^k paths
// forked but stays ONE merged state with k joins.
func TestJoinsCollapsesLadder(t *testing.T) {
	xOff, offOuts := runMerged(t, ladder3, "f", engine.MergeOff)
	if len(offOuts) != 8 {
		t.Fatalf("forked paths = %d, want 2^3", len(offOuts))
	}
	if xOff.Stats.Merges != 0 {
		t.Fatalf("merge off performed %d merges", xOff.Stats.Merges)
	}
	x, outs := runMerged(t, ladder3, "f", engine.MergeJoins)
	if len(outs) != 1 {
		t.Fatalf("merged paths = %d, want 1", len(outs))
	}
	if x.Stats.Merges != 3 {
		t.Fatalf("merges = %d, want one per diamond", x.Stats.Merges)
	}
	if x.Stats.MergedCells == 0 {
		t.Fatal("the diverging cell s never became a guarded ite")
	}
	if len(x.Reports) != 0 || len(xOff.Reports) != 0 {
		t.Fatalf("clean ladder reported: merged %v, forked %v", x.Reports, xOff.Reports)
	}
}

// TestJoinsModeRequiresCanonicalDiamond: an arm that returns leaves the
// join with one live flow on that side, so joins mode passes the flows
// through unmerged when possible and still merges the canonical part.
func TestJoinsPassesReturnedFlowsThrough(t *testing.T) {
	src := `
int f(int a, int b) {
  int s = 0;
  if (a > 0) {
    if (b > 0) { return 100; }
    s = 1;
  } else {
    s = 2;
  }
  return s;
}
`
	x, outs := runMerged(t, src, "f", engine.MergeJoins)
	// The early return is one outcome; the two fall-through paths merge
	// at the outer join into one.
	if len(outs) != 2 {
		t.Fatalf("paths = %d, want returned + merged", len(outs))
	}
	if x.Stats.Merges != 1 {
		t.Fatalf("merges = %d, want only the outer join", x.Stats.Merges)
	}
}

// divergingCells returns f(a): one diamond whose arms assign n cells
// different values, so its join has n diverging cells.
func divergingCells(n int) string {
	var decls, then, els, sum strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&decls, "  int s%d = 0;\n", i)
		fmt.Fprintf(&then, " s%d = 1;", i)
		fmt.Fprintf(&els, " s%d = 2;", i)
		fmt.Fprintf(&sum, " + s%d", i)
	}
	return fmt.Sprintf("int f(int a) {\n%s  if (a > 0) {%s } else {%s }\n  return 0%s;\n}\n",
		decls.String(), then.String(), els.String(), sum.String())
}

// TestMergeCapDeclines pins the divergence-cap heuristic: more
// diverging cells than the joins-mode cap of 8 and the join falls back
// to forking; within the cap it merges.
func TestMergeCapDeclines(t *testing.T) {
	x, outs := runMerged(t, divergingCells(9), "f", engine.MergeJoins)
	if len(outs) != 2 || x.Stats.Merges != 0 {
		t.Fatalf("joins with 9 diverging cells: paths=%d merges=%d, want forked", len(outs), x.Stats.Merges)
	}
	x, outs = runMerged(t, divergingCells(2), "f", engine.MergeJoins)
	if len(outs) != 1 || x.Stats.Merges != 1 || x.Stats.MergedCells != 2 {
		t.Fatalf("joins with 2 diverging cells: paths=%d merges=%d cells=%d, want one merge of both cells",
			len(outs), x.Stats.Merges, x.Stats.MergedCells)
	}
	// Aggressive mode ignores the cap entirely.
	x, outs = runMerged(t, divergingCells(9), "f", engine.MergeAggressive)
	if len(outs) != 1 || x.Stats.Merges != 1 {
		t.Fatalf("aggressive with 9 diverging cells: paths=%d merges=%d, want merged", len(outs), x.Stats.Merges)
	}
}

// TestMergeCollapsesAgreeingCells: cells the arms agree on keep their
// plain value instead of growing a degenerate ite.
func TestMergeCollapsesAgreeingCells(t *testing.T) {
	src := `
int f(int a) {
  int s = 0;
  int u = 0;
  if (a > 0) { s = 5; u = 1; } else { s = 5; u = 2; }
  return s + u;
}
`
	x, outs := runMerged(t, src, "f", engine.MergeJoins)
	if len(outs) != 1 || x.Stats.Merges != 1 {
		t.Fatalf("paths=%d merges=%d, want one merged state", len(outs), x.Stats.Merges)
	}
	if x.Stats.MergedCells != 1 {
		t.Fatalf("merged cells = %d, want only u (s agrees)", x.Stats.MergedCells)
	}
	if x.Stats.CollapsedCells == 0 {
		t.Fatal("the agreeing cell s was not counted as collapsed")
	}
}

// TestMergedReportsMatchForked: findings on a guarded null deref must
// come out the same whether the preceding diamond forked or merged.
func TestMergedReportsMatchForked(t *testing.T) {
	src := `
void g(int *p, int a) {
  int s = 0;
  if (a > 0) { s = 1; } else { s = 2; }
  *p = s;
}
`
	want := sortedReports(t, src, engine.MergeOff)
	for _, mode := range []engine.MergeMode{engine.MergeJoins, engine.MergeAggressive} {
		if got := sortedReports(t, src, mode); got != want {
			t.Fatalf("merge=%s reports diverge\nforked:\n%s\nmerged:\n%s", mode, want, got)
		}
	}
	if want == "" {
		t.Fatal("the unguarded deref produced no report; property is vacuous")
	}
}

func sortedReports(t *testing.T, src string, mode engine.MergeMode) string {
	t.Helper()
	x, _ := runMerged(t, src, "g", mode)
	lines := make([]string, len(x.Reports))
	for i, r := range x.Reports {
		lines[i] = r.String()
	}
	sort.Strings(lines)
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n"
		}
		out += l
	}
	return out
}

// TestMergeStatesDirect drives mergeStates — the fold behind both the
// join-point merge and the aggressive loop-frontier fold — on
// hand-built sibling states: the merged PC must be base ∧ (g1 ∨ g2),
// a diverging cell must become a guarded ite selecting the right arm,
// and states not descending from base must decline.
func TestMergeStatesDirect(t *testing.T) {
	prog := mustParse(`int f(void) { return 0; }`)
	x := New(prog, pointer.Analyze(prog), engine.New(engine.Options{}))
	obj := &Object{ID: 1, Name: "v"}

	n := solver.IntVar{Name: "n"}
	g1 := solver.Formula(solver.Lt{X: solver.IntConst{Val: 0}, Y: n})
	g2 := solver.Formula(solver.Le{X: n, Y: solver.IntConst{Val: 0}})
	base := solver.PCTrue.And(solver.Le{X: solver.IntConst{Val: -10}, Y: n})

	mkState := func(g solver.Formula, val int64) State {
		st := State{PC: base.And(g), Mem: NewMemory()}
		st.Mem.Write(obj, "", VInt{T: solver.IntConst{Val: val}})
		return st
	}
	s1, s2 := mkState(g1, 1), mkState(g2, 2)
	merged, ok := x.mergeStates(nil, "t:0", base, []State{s1, s2}, 0)
	if !ok {
		t.Fatal("sibling states extending base must merge")
	}
	// The merged flow is exactly the union of the arms: reachable under
	// either guard, and the cell reads 1 under g1, 2 under g2 — never
	// the cross combinations.
	v := x.ReadCell(merged, obj, "")
	iv, isInt := v.(VInt)
	if !isInt {
		t.Fatalf("merged cell = %#v, want a term-level ite", v)
	}
	pc := merged.PC
	mustFeasible := func(f solver.Formula, want bool) {
		t.Helper()
		if got := x.feasible(merged, pc, f); got != want {
			t.Fatalf("feasible(merged PC ∧ %s) = %v, want %v", f, got, want)
		}
	}
	mustFeasible(solver.And{X: g1, Y: solver.Eq{X: iv.T, Y: solver.IntConst{Val: 1}}}, true)
	mustFeasible(solver.And{X: g2, Y: solver.Eq{X: iv.T, Y: solver.IntConst{Val: 2}}}, true)
	mustFeasible(solver.And{X: g1, Y: solver.Eq{X: iv.T, Y: solver.IntConst{Val: 2}}}, false)
	mustFeasible(solver.And{X: g2, Y: solver.Eq{X: iv.T, Y: solver.IntConst{Val: 1}}}, false)
	// The base constraint is still in force.
	mustFeasible(solver.Lt{X: n, Y: solver.IntConst{Val: -10}}, false)

	// A state that does not descend from base declines the merge.
	alien := State{PC: solver.PCTrue.And(g1), Mem: NewMemory()}
	if _, ok := x.mergeStates(nil, "t:0", base, []State{s1, alien}, 0); ok {
		t.Fatal("merging a state that does not extend base must decline")
	}
}
