package cgen

import (
	"testing"

	"mix/internal/engine"
	"mix/internal/mixy"
	"mix/internal/solver"
)

// countingReference wraps solver.NewReference and counts the solvers
// it builds, so a leg whose seam silently falls back to solver.New
// cannot pass.
func countingReference(n *int) func() *solver.Solver {
	return func() *solver.Solver {
		*n++
		return solver.NewReference()
	}
}

// TestSearchCoresMatchOnGeneratedC: MIXY warnings over generated C
// programs must be byte-identical under the CDCL core with its
// incremental assumption stacks and under the chronological DPLL
// reference (solver.NewReference), both with a direct per-run solver
// and through the engine's pooled solvers. Any learned clause that
// survives where it shouldn't, or any assumption that leaks across a
// pop, shows up here as a warning diff.
func TestSearchCoresMatchOnGeneratedC(t *testing.T) {
	const programs = 60
	cfg := DefaultConfig()
	cfg.SymbolicEntry = true
	gen := New(0xCDC2, cfg)

	diverse := 0
	var direct, pooled int
	for i := 0; i < programs; i++ {
		src := gen.Program()
		base, err := mixy.Run(mustParse(src), mixy.Options{StrictInit: true})
		if err != nil {
			t.Fatalf("program %d: default run failed: %v\n%s", i, err, src)
		}
		want := warningText(base)
		if len(base.Warnings) > 0 {
			diverse++
		}
		ref, err := mixy.Run(mustParse(src), mixy.Options{
			StrictInit: true,
			NewSolver:  countingReference(&direct),
		})
		if err != nil {
			t.Fatalf("program %d (dpll direct): %v\n%s", i, err, src)
		}
		if got := warningText(ref); got != want {
			t.Fatalf("program %d (dpll direct): warnings diverge\ncdcl:\n%s\ndpll:\n%s\nprogram:\n%s",
				i, want, got, src)
		}

		eng := engine.New(engine.Options{NewSolver: countingReference(&pooled)})
		ref, err = mixy.Run(mustParse(src), mixy.Options{StrictInit: true, Engine: eng})
		eng.Close()
		if err != nil {
			t.Fatalf("program %d (dpll engine): %v\n%s", i, err, src)
		}
		if got := warningText(ref); got != want {
			t.Fatalf("program %d (dpll engine): warnings diverge\ncdcl:\n%s\ndpll:\n%s\nprogram:\n%s",
				i, want, got, src)
		}
	}
	if diverse < 5 {
		t.Fatalf("only %d of %d programs produced warnings; property too weak", diverse, programs)
	}
	if direct == 0 || pooled == 0 {
		t.Fatalf("the reference seam never ran: %d direct, %d pooled solvers built",
			direct, pooled)
	}
}
