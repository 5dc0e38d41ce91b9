package cgen

import (
	"strings"
	"testing"

	"mix/internal/engine"
	"mix/internal/mixy"
)

// TestPipelineMatchesDirectSolver is the differential property test for
// the persistent-state executor and the incremental solver pipeline:
// for randomly generated programs, the engine-backed analysis —
// incremental path conditions, interval fast paths, independence
// slicing, counterexample cache and memo table — must produce
// byte-identical warnings to the plain analysis, which solves each
// monolithic pc.Formula() directly. Any unsound rewrite, slicing bug
// or stale cache hit shows up as a diff.
func TestPipelineMatchesDirectSolver(t *testing.T) {
	const programs = 120
	cfg := DefaultConfig()
	cfg.SymbolicEntry = true
	gen := New(0xD1FF, cfg)

	diverse := 0
	for i := 0; i < programs; i++ {
		src := gen.Program()
		base, err := mixy.Run(mustParse(src), mixy.Options{StrictInit: true})
		if err != nil {
			t.Fatalf("program %d: direct run failed: %v\n%s", i, err, src)
		}
		want := warningText(base)
		if len(base.Warnings) > 0 {
			diverse++
		}
		eng := engine.New(engine.Options{})
		a, err := mixy.Run(mustParse(src), mixy.Options{StrictInit: true, Engine: eng})
		eng.Close()
		if err != nil {
			t.Fatalf("program %d: engine run failed: %v\n%s", i, err, src)
		}
		if got := warningText(a); got != want {
			t.Fatalf("program %d: warnings diverge\ndirect:\n%s\npipeline:\n%s\nprogram:\n%s",
				i, want, got, src)
		}
	}
	if diverse < 10 {
		t.Fatalf("only %d of %d programs produced warnings; property too weak", diverse, programs)
	}
}

func warningText(a *mixy.Analysis) string {
	out := make([]string, len(a.Warnings))
	for i, w := range a.Warnings {
		out[i] = w.String()
	}
	return strings.Join(out, "\n")
}
