package cgen

import (
	"sort"
	"strings"
	"testing"

	"mix/internal/engine"
	"mix/internal/mixy"
)

// TestMergeModesMatchForking is the differential property test for
// veritesting-style state merging (DESIGN.md section 12): for randomly
// generated MicroC programs, analyses run with -merge joins and -merge
// aggressive must report exactly the warnings the pure-forking analysis
// reports. Merging collapses the two arms of a conditional into one
// guarded state, so a merged flow visits statements once where forking
// visits them once per path; the warning SET must be unchanged even
// though the emission order can differ, hence the sorted comparison.
// Any guard mixed up during a join, a cell merged against the wrong
// arm, or an ite the solver mishandles shows up as a missing or extra
// warning. Run under -race this also exercises merging against the
// engine's parallel solver pool.
func TestMergeModesMatchForking(t *testing.T) {
	const programs = 120
	cfg := DefaultConfig()
	cfg.SymbolicEntry = true
	gen := New(0xD1FF, cfg)

	modes := []struct {
		name string
		opts mixy.Options
	}{
		{"joins", mixy.Options{StrictInit: true, Merge: engine.MergeJoins}},
		{"aggressive", mixy.Options{StrictInit: true, Merge: engine.MergeAggressive}},
	}

	diverse, merges := 0, 0
	for i := 0; i < programs; i++ {
		src := gen.Program()
		base, err := mixy.Run(mustParse(src), mixy.Options{StrictInit: true})
		if err != nil {
			t.Fatalf("program %d: forking run failed: %v\n%s", i, err, src)
		}
		want := sortedWarningText(base)
		if len(base.Warnings) > 0 {
			diverse++
		}
		for _, m := range modes {
			a, err := mixy.Run(mustParse(src), m.opts)
			if err != nil {
				t.Fatalf("program %d (%s): merged run failed: %v\n%s", i, m.name, err, src)
			}
			if got := sortedWarningText(a); got != want {
				t.Fatalf("program %d (%s): warnings diverge\nforking:\n%s\nmerged:\n%s\nprogram:\n%s",
					i, m.name, want, got, src)
			}
			if m.name == "joins" {
				merges += a.Exec.Stats.Merges
			}
		}
		// Merging must also agree when solver queries route through the
		// engine's memoizing pool — merged PCs carry disjunctions and
		// ite-defined variables the sequential path never builds, so the
		// memo/cex-cache keys see genuinely new shapes here.
		eng := engine.New(engine.Options{})
		a, err := mixy.Run(mustParse(src), mixy.Options{
			StrictInit: true, Merge: engine.MergeJoins, Engine: eng,
		})
		eng.Close()
		if err != nil {
			t.Fatalf("program %d (joins+engine): run failed: %v\n%s", i, err, src)
		}
		if got := sortedWarningText(a); got != want {
			t.Fatalf("program %d (joins+engine): warnings diverge\nforking:\n%s\nmerged:\n%s\nprogram:\n%s",
				i, got, want, src)
		}
	}
	if diverse < 10 {
		t.Fatalf("only %d of %d programs produced warnings; property too weak", diverse, programs)
	}
	if merges == 0 {
		t.Fatal("no program triggered a join-point merge; property is vacuous")
	}
	t.Logf("%d programs, %d with warnings, %d joins-mode merges", programs, diverse, merges)
}

func sortedWarningText(a *mixy.Analysis) string {
	out := make([]string, len(a.Warnings))
	for i, w := range a.Warnings {
		out[i] = w.String()
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}
