package mixy

// Chaos tests for state merging (DESIGN.md section 12): an injected
// fault at a merge point must degrade a merged analysis exactly as it
// degrades a forking one. The armed plan panics inside the first
// solver query — the feasibility check of the first conditional, which
// is precisely where the executor decides to fork or merge — so the
// fault lands on the merge machinery in merged modes and on the fork
// machinery with merging off. Merging changes how many states flow
// through a join, not the degradation ladder: the block stops, its
// frontier pessimizes to null, and the imprecision warnings come out
// the same.

import (
	"sort"
	"strings"
	"testing"

	"mix/internal/corpus"
	"mix/internal/engine"
	"mix/internal/fault"
)

// runMergeChaos runs the synthetic vsftpd corpus under the given merge
// mode with the first solver query panicking — a deterministic fault
// at the first conditional's fork-or-merge decision.
func runMergeChaos(t *testing.T, mode engine.MergeMode) *Analysis {
	t.Helper()
	inj := fault.NewInjector(1).
		Plan(fault.PreSolve, fault.Plan{Count: 1, Panic: true, Class: fault.Timeout})
	eng := engine.New(engine.Options{FaultInjector: inj})
	defer eng.Close()
	a, err := Run(mustParse(corpus.SyntheticVsftpd(8, 2)), Options{Engine: eng, Merge: mode})
	if err != nil {
		t.Fatalf("merge=%s: a merge-point fault must degrade the analysis, not reject it: %v", mode, err)
	}
	return a
}

// TestMergeChaosDegradesIdentically runs the same armed plan forked,
// joins-merged, and aggressively merged: all three must degrade as a
// recovered worker panic, carry the imprecision notice, and report
// identical warning sets. Sorted comparison, because a merged flow
// visits statements once where forking visits them per path, which can
// reorder emission without changing the set.
func TestMergeChaosDegradesIdentically(t *testing.T) {
	want, wantMode := "", engine.MergeOff
	for _, mode := range []engine.MergeMode{engine.MergeOff, engine.MergeJoins, engine.MergeAggressive} {
		a := runMergeChaos(t, mode)
		d := a.Degraded()
		if d == nil {
			t.Fatalf("merge=%s: the armed pre-solve panic must leave the analysis degraded", mode)
		}
		if got := fault.ClassOf(d); got != fault.WorkerPanic {
			t.Fatalf("merge=%s: fault class = %v, want a recovered worker panic", mode, got)
		}
		var notice bool
		for _, w := range a.Warnings {
			if w.Source == "mixy" && strings.Contains(w.Msg, "analysis degraded") {
				notice = true
			}
		}
		if !notice {
			t.Fatalf("merge=%s: a degraded run must carry an explicit imprecision warning:\n%s",
				mode, strings.Join(warningStrings(a), "\n"))
		}
		ws := warningStrings(a)
		sort.Strings(ws)
		got := strings.Join(ws, "\n")
		if mode == engine.MergeOff {
			want, wantMode = got, mode
			continue
		}
		if got != want {
			t.Fatalf("degraded warnings diverge across merge modes\n--- merge=%s\n%s\n--- merge=%s\n%s",
				wantMode, want, mode, got)
		}
	}
}

// TestMergeChaosOverApproximates checks the soundness half: a merged
// run hit by a mid-exploration fault must warn at least as much as a
// clean merged run — degradation at a merge point pessimizes, it never
// drops findings.
func TestMergeChaosOverApproximates(t *testing.T) {
	for _, mode := range []engine.MergeMode{engine.MergeJoins, engine.MergeAggressive} {
		clean, err := Run(mustParse(corpus.SyntheticVsftpd(8, 2)), Options{Merge: mode})
		if err != nil {
			t.Fatal(err)
		}
		inj := fault.NewInjector(1).
			Plan(fault.PreSolve, fault.Plan{After: 5, Count: 1, Panic: true, Class: fault.Timeout})
		eng := engine.New(engine.Options{FaultInjector: inj})
		a, err := Run(mustParse(corpus.SyntheticVsftpd(8, 2)), Options{Engine: eng, Merge: mode})
		eng.Close()
		if err != nil {
			t.Fatalf("merge=%s: a mid-run fault must degrade, not reject: %v", mode, err)
		}
		if a.Degraded() == nil {
			t.Fatalf("merge=%s: the armed plan must leave the analysis degraded", mode)
		}
		if len(a.Warnings) < len(clean.Warnings) {
			t.Fatalf("merge=%s: degraded run reports %d warnings, clean run %d — degradation dropped findings",
				mode, len(a.Warnings), len(clean.Warnings))
		}
	}
}

// TestMergeChaosDeterministic pins the degraded merged run: identical
// warnings run over run, like the forked chaos suite.
func TestMergeChaosDeterministic(t *testing.T) {
	w1 := strings.Join(warningStrings(runMergeChaos(t, engine.MergeJoins)), "\n")
	w2 := strings.Join(warningStrings(runMergeChaos(t, engine.MergeJoins)), "\n")
	if w1 != w2 {
		t.Fatalf("degraded merged warning set diverged across runs:\n--- run1\n%s\n--- run2\n%s", w1, w2)
	}
}
