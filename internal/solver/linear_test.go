package solver

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// randomSystem draws a conjunction over 2–4 variables with small
// integer coefficients: up to two equalities, up to four strict or
// non-strict inequalities and up to four disequalities.
func randomSystem(r *rand.Rand) (eqs []*lin, ineqs []ineq, diseqs []*lin) {
	nv := 2 + r.Intn(3)
	row := func() *lin {
		l := linConst(int64(r.Intn(7) - 3))
		for v := 0; v < nv; v++ {
			if c := int64(r.Intn(5) - 2); c != 0 {
				l.coefs[fmt.Sprintf("v:x%d", v)] = big.NewRat(c, 1)
			}
		}
		return l
	}
	for i := r.Intn(3); i > 0; i-- {
		eqs = append(eqs, row())
	}
	for i := r.Intn(5); i > 0; i-- {
		ineqs = append(ineqs, ineq{row(), r.Intn(2) == 0})
	}
	for i := r.Intn(5); i > 0; i-- {
		diseqs = append(diseqs, row())
	}
	return eqs, ineqs, diseqs
}

// TestTheoryConjWitness checks the one elimination both ways on seeded
// random systems: deciding alone and building a witness give the same
// answer, every witness satisfies every constraint it came from, and a
// witness-building call under a canceled context returns the context's
// error.
func TestTheoryConjWitness(t *testing.T) {
	const n = 1000
	r := rand.New(rand.NewSource(1))
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	sat := 0
	for i := 0; i < n; i++ {
		eqs, ineqs, diseqs := randomSystem(r)
		decided, _, err := theoryConj(context.Background(), eqs, ineqs, diseqs, false)
		if err != nil {
			t.Fatal(err)
		}
		got, m, err := theoryConj(context.Background(), eqs, ineqs, diseqs, true)
		if err != nil {
			t.Fatal(err)
		}
		if got != decided {
			t.Fatalf("system %d: deciding says %v, building a witness says %v", i, decided, got)
		}
		if _, _, err := theoryConj(canceled, eqs, ineqs, diseqs, true); !errors.Is(err, context.Canceled) {
			t.Fatalf("system %d: witness under a canceled context: err = %v, want context.Canceled", i, err)
		}
		if !got {
			continue
		}
		sat++
		if m == nil {
			t.Fatalf("system %d: sat without a witness", i)
		}
		for _, e := range eqs {
			if v := evalLinExcept(e, "", m); v.Sign() != 0 {
				t.Fatalf("system %d: witness %v gives %s = %s, want 0", i, m, e.canon(), v.RatString())
			}
		}
		for _, in := range ineqs {
			if s := evalLinExcept(in.l, "", m).Sign(); s > 0 || (s == 0 && in.strict) {
				t.Fatalf("system %d: witness %v violates %s (strict %v)", i, m, in.l.canon(), in.strict)
			}
		}
		for _, d := range diseqs {
			if evalLinExcept(d, "", m).Sign() == 0 {
				t.Fatalf("system %d: witness %v gives %s = 0, want nonzero", i, m, d.canon())
			}
		}
	}
	// Both verdicts must be common, or the draw tests little.
	if sat < n/10 || sat > n-n/10 {
		t.Fatalf("%d of %d systems sat; want both verdicts common", sat, n)
	}
}
