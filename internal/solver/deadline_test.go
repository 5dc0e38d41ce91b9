package solver

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mix/internal/fault"
)

// TestTheoryCheckObservesDeadline pins that a deadline cuts a single
// expensive theory check short. Sixteen disequalities x_i ≠ 0 beside
// the infeasible cycle a < b < c < a make every consistency check
// case-split 2^16 ways, and the search loop's own poll (every 32
// decisions or conflicts) never comes round; the check itself must
// observe the context and fail with the loop's classified timeout.
func TestTheoryCheckObservesDeadline(t *testing.T) {
	var fs []Formula
	for i := 0; i < 16; i++ {
		fs = append(fs, NewNot(Eq{X: IntVar{Name: fmt.Sprintf("x%d", i)}, Y: IntConst{Val: 0}}))
	}
	a, b, c := IntVar{Name: "a"}, IntVar{Name: "b"}, IntVar{Name: "c"}
	fs = append(fs, Lt{X: a, Y: b}, Lt{X: b, Y: c}, Lt{X: c, Y: a})
	for _, core := range []struct {
		name string
		mk   func() *Solver
	}{{"cdcl", New}, {"dpll", NewReference}} {
		t.Run(core.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			s := core.mk()
			s.Ctx = ctx
			start := time.Now()
			sat, err := s.Sat(Conj(fs...))
			elapsed := time.Since(start)
			f := fault.Of(err)
			if f == nil || f.Class != fault.Timeout || f.Op != "solver.search" {
				t.Fatalf("Sat = %v, %v after %v; want a timeout fault at solver.search", sat, err, elapsed)
			}
			if elapsed > 500*time.Millisecond {
				t.Fatalf("Sat returned %v after a 50ms deadline; want within 500ms", elapsed)
			}
		})
	}
}
