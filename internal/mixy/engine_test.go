package mixy

import (
	"sort"
	"strings"
	"testing"

	"mix/internal/corpus"
	"mix/internal/engine"
)

func warningStrings(a *Analysis) []string {
	out := make([]string, len(a.Warnings))
	for i, w := range a.Warnings {
		out[i] = w.String()
	}
	return out
}

// TestEngineMatchesNoEngine: a run given the caller's engine and a run
// given none, which builds a private one, must analyze alike — same
// warnings, same fixpoint trajectory — and the pool must actually
// deduplicate solver work.
func TestEngineMatchesNoEngine(t *testing.T) {
	src := corpus.SyntheticVsftpd(12, 2)

	base, err := Run(mustParse(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{})
	defer eng.Close()
	a, err := Run(mustParse(src), Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(warningStrings(a), "\n"), strings.Join(warningStrings(base), "\n"); got != want {
		t.Fatalf("warnings differ\nbase:\n%s\nengine:\n%s", want, got)
	}
	if a.Stats.FixpointIters != base.Stats.FixpointIters ||
		a.Stats.BlocksAnalyzed != base.Stats.BlocksAnalyzed {
		t.Fatalf("fixpoint trajectory differs: %+v vs %+v", a.Stats, base.Stats)
	}
	s := eng.Snapshot()
	// The fixpoint re-proves formulas; each repeat must be absorbed
	// before DPLL — by the interval fast path, the counterexample
	// cache, or the memo table.
	if s.QuickDecided+s.MemoHits+s.CexHits == 0 {
		t.Fatalf("no query deduplication at all (stats %+v)", s)
	}
	// Every query is accounted for: decided by the fast path or
	// routed through the per-component memo.
	if s.QuickDecided+s.MemoHits+s.MemoMisses < s.SolverQueries {
		t.Fatalf("pipeline accounting off: %+v", s)
	}
}

// TestCachedContextsSortedAndStable: the block cache is a map; its
// exported view must be sorted and identical across repeated runs so
// fixpoint diagnostics are reproducible.
func TestCachedContextsSortedAndStable(t *testing.T) {
	src := corpus.SyntheticVsftpd(8, 2)
	var first []string
	for run := 0; run < 3; run++ {
		a, err := Run(mustParse(src), Options{})
		if err != nil {
			t.Fatal(err)
		}
		keys := a.CachedContexts()
		if len(keys) == 0 {
			t.Fatal("expected cached block contexts")
		}
		if !sort.StringsAreSorted(keys) {
			t.Fatalf("CachedContexts not sorted: %v", keys)
		}
		if run == 0 {
			first = keys
			continue
		}
		if strings.Join(keys, "\n") != strings.Join(first, "\n") {
			t.Fatalf("run %d cache keys differ:\n%v\nvs\n%v", run, keys, first)
		}
	}
}

// TestFixpointItersReproducible: iteration counts must not depend on
// map iteration order anywhere in the driver.
func TestFixpointItersReproducible(t *testing.T) {
	src := corpus.SyntheticVsftpd(12, 3)
	var iters, blocks int
	for run := 0; run < 3; run++ {
		a, err := Run(mustParse(src), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			iters, blocks = a.Stats.FixpointIters, a.Stats.BlocksAnalyzed
			continue
		}
		if a.Stats.FixpointIters != iters || a.Stats.BlocksAnalyzed != blocks {
			t.Fatalf("run %d: iters=%d blocks=%d, first run iters=%d blocks=%d",
				run, a.Stats.FixpointIters, a.Stats.BlocksAnalyzed, iters, blocks)
		}
	}
}
