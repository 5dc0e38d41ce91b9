package cgen

import (
	"testing"

	"mix/internal/engine"
	"mix/internal/mixy"
	"mix/internal/summary"
)

// TestSummariesMatchInline is the differential property test for
// compositional function summaries (DESIGN.md section 14): for
// randomly generated MicroC programs whose null-pointer flows are
// gated on calls to int-only helpers, analyses that answer those
// calls from summaries must report exactly the warnings the inlining
// analysis reports — with merging off (per-arm instantiation forks
// like a call would), with joins-mode merging (single ite-folded
// instantiation), and with the summaries loaded back from a disk store
// instead of freshly computed. A guard instantiated with the wrong
// actual, an arm lost to merging, or a codec round-trip that altered a
// term all show up as a missing or extra warning. Every run, the
// scratch summarizations included, answers its queries through an
// engine's pool; run under -race this also exercises the shared store
// against it.
func TestSummariesMatchInline(t *testing.T) {
	const programs = 120
	cfg := DefaultConfig()
	cfg.SymbolicEntry = true
	cfg.IntHelpers = 2
	gen := New(0xD1FF, cfg)

	dir := t.TempDir()
	diverse := 0
	var instantiated, diskHits int64
	for i := 0; i < programs; i++ {
		src := gen.Program()
		base, err := mixy.Run(mustParse(src), mixy.Options{StrictInit: true})
		if err != nil {
			t.Fatalf("program %d: inline run failed: %v\n%s", i, err, src)
		}
		want := sortedWarningText(base)
		if len(base.Warnings) > 0 {
			diverse++
		}

		baseJoins, err := mixy.Run(mustParse(src), mixy.Options{StrictInit: true, Merge: engine.MergeJoins})
		if err != nil {
			t.Fatalf("program %d: inline joins run failed: %v\n%s", i, err, src)
		}
		wantJoins := sortedWarningText(baseJoins)

		// Each leg precomputes on its own parse: summaries are keyed by
		// *FuncDef identity, so the table and the run must share one AST.
		legs := []struct {
			name  string
			store *summary.Store
			merge engine.MergeMode
			want  string
		}{
			{"summaries-off", summary.NewStore(""), engine.MergeOff, want},
			{"summaries-joins", summary.NewStore(""), engine.MergeJoins, wantJoins},
			{"summaries-disk-cold", summary.NewStore(dir), engine.MergeJoins, wantJoins},
			{"summaries-disk-warm", summary.NewStore(dir), engine.MergeJoins, wantJoins},
		}
		for _, leg := range legs {
			prog := mustParse(src)
			ps := leg.store.Precompute(prog, 0)
			a, err := mixy.Run(prog, mixy.Options{StrictInit: true, Merge: leg.merge, Summaries: ps})
			if err != nil {
				t.Fatalf("program %d (%s): run failed: %v\n%s", i, leg.name, err, src)
			}
			if got := sortedWarningText(a); got != leg.want {
				t.Fatalf("program %d (%s): warnings diverge\ninline:\n%s\nsummaries:\n%s\nprogram:\n%s",
					i, leg.name, leg.want, got, src)
			}
			instantiated += ps.Instantiated()
			if leg.name == "summaries-disk-warm" {
				diskHits += int64(ps.DiskHits)
			}
		}

	}
	if diverse < 10 {
		t.Fatalf("only %d of %d programs produced warnings; property too weak", diverse, programs)
	}
	if instantiated == 0 {
		t.Fatal("no call site instantiated a summary; property is vacuous")
	}
	if diskHits == 0 {
		t.Fatal("warm legs never hit the disk store; persistence untested")
	}
	t.Logf("%d programs, %d with warnings, %d instantiations, %d disk hits", programs, diverse, instantiated, diskHits)
}
