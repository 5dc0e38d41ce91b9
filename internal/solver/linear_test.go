package solver

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"time"
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

// TestTheoryConjRepeatedRows: a row that repeats another changes
// neither verdict nor witness, however often it repeats, and
// Fourier–Motzkin keeps one copy of it. The fixed system is one the
// CDCL trail builds on inline shared-2x3 (corpus.SharedHelpers(2, 3)
// from entry, merging at joins): five of its inequalities come twice,
// as different atoms, and its five disequalities split it into 32
// eliminations. With the copies combined, its check takes about 40 s;
// kept once, milliseconds. The 10 s context stops a check that keeps
// the copies.
func TestTheoryConjRepeatedRows(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		eqs, ineqs, diseqs := randomSystem(r)
		rep := append([]ineq(nil), ineqs...)
		for _, in := range ineqs {
			for n := r.Intn(3); n > 0; n-- {
				rep = append(rep, ineq{in.l.clone(), in.strict})
			}
		}
		want, wm, err := theoryConj(context.Background(), eqs, ineqs, diseqs, true)
		if err != nil {
			t.Fatal(err)
		}
		got, gm, err := theoryConj(context.Background(), eqs, rep, diseqs, true)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || len(gm) != len(wm) {
			t.Fatalf("system %d: repeats change the answer: %v %v, want %v %v", i, got, gm, want, wm)
		}
		for v, x := range wm {
			if y, ok := gm[v]; !ok || x.Cmp(y) != 0 {
				t.Fatalf("system %d: repeats change the witness at %s: %v, want %v", i, v, gm, wm)
			}
		}
	}

	// Dedup keeps exactly the first occurrences, in order.
	for _, n := range []int{32, 128} {
		var rows, want []ineq
		for len(rows) < n {
			in := ineq{linConst(int64(r.Intn(n / 4))), r.Intn(2) == 0}
			in.l.coefs["v:x"] = big.NewRat(int64(1+r.Intn(2)), 1)
			rows = append(rows, in)
		}
		for _, in := range rows {
			dup := false
			for _, w := range want {
				dup = dup || (w.strict == in.strict && w.l.canon() == in.l.canon())
			}
			if !dup {
				want = append(want, in)
			}
		}
		got := dedupIneqs(append([]ineq(nil), rows...))
		if len(got) != len(want) {
			t.Fatalf("%d rows: dedup kept %d, want %d", len(rows), len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%d rows: kept row %d is %s, want the first occurrence %s", len(rows), i, got[i].l.canon(), want[i].l.canon())
			}
		}
	}

	row := func(k int64, coefs map[string]int64) *lin {
		l := linConst(k)
		for v, c := range coefs {
			l.coefs["v:"+v] = big.NewRat(c, 1)
		}
		return l
	}
	xy := row(0, map[string]int64{"x": -1, "y": 1})
	iy := row(0, map[string]int64{"i0": -1, "y": 1})
	big6 := row(0, map[string]int64{"i0": -1, "i1": 1, "i5": -1, "i6": -1, "x": 1, "y": -1})
	ix := row(0, map[string]int64{"i0": 1, "i1": -1, "x": -1})
	ineqs := []ineq{
		{xy, false}, {xy.clone(), false},
		{iy, true}, {iy.clone(), true},
		{big6, true}, {big6.clone(), true},
		{row(0, map[string]int64{"i0": 1, "i1": -1, "i5": 1, "i6": 1, "i7": -1, "y": 1}), true},
		{ix, true},
		{row(0, map[string]int64{"i5": 1, "x": -1}), false},
		{ix.clone(), true},
		{row(0, map[string]int64{"i5": -1, "x": 1}), true},
	}
	eqs := []*lin{
		row(2, map[string]int64{"i0": 1, "x": -1}),
		row(-1, map[string]int64{"i7": 1, "x": -1}),
		row(2, map[string]int64{"i0": 1, "i1": -1, "i5": -1}),
	}
	diseqs := []*lin{
		row(-1, map[string]int64{"i0": 1, "x": -1}),
		row(1, map[string]int64{"i1": 1, "y": -1}),
		row(2, map[string]int64{"i7": 1, "x": -1}),
		row(-4, map[string]int64{"i6": 1, "x": -1}),
		row(-3, map[string]int64{"i0": 1, "i1": -1, "i5": -1}),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sat, _, err := theoryConj(ctx, eqs, ineqs, diseqs, false)
	if err != nil || sat {
		t.Fatalf("shared-2x3's system = %v, %v; want unsat well inside 10 s", sat, err)
	}
}
