package solver

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// hardMix builds busy(n) ∧ contra: a satisfiable or-chain prefix over
// 3(n+1) fresh booleans followed by an unsatisfiable 2-CNF core over
// two more variables that appear last in decision order. Chronological
// DPLL enumerates busy assignments and re-refutes the core once per
// leaf — exponential in n — while CDCL's first conflict learns a unit
// clause over the core, backjumps to level 0, and refutes immediately.
// This is the hard-formula family behind the X12 benchmark table.
func hardMix(n int) Formula {
	v := func(p string, i int) Formula {
		return BoolVar{Name: p + string(rune('a'+i%26)) + string(rune('0'+i/26))}
	}
	busy := Disj(v("y", 0), v("z", 0), v("w", 0))
	for i := 1; i <= n; i++ {
		link := Disj(NewNot(v("w", i-1)), v("y", i), v("z", i), v("w", i))
		busy = NewAnd(busy, link)
	}
	a, b := BoolVar{Name: "zza"}, BoolVar{Name: "zzb"}
	contra := Conj(
		NewOr(a, b),
		NewOr(a, NewNot(b)),
		NewOr(NewNot(a), b),
		NewOr(NewNot(a), NewNot(b)),
	)
	return NewAnd(busy, contra)
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons into n holes, every
// pigeon placed, no hole shared. Unsatisfiable with only exponential
// resolution refutations, so even CDCL must grind through many
// conflicts — the family that exercises clause learning volume,
// activity-based forgetting, and the Luby restart schedule.
func pigeonhole(n int) Formula {
	p := func(i, j int) Formula {
		return BoolVar{Name: fmt.Sprintf("p%d_%d", i, j)}
	}
	f := Formula(BoolConst{Val: true})
	for i := 0; i <= n; i++ {
		holes := make([]Formula, n)
		for j := 0; j < n; j++ {
			holes[j] = p(i, j)
		}
		f = NewAnd(f, Disj(holes...))
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= n; i++ {
			for k := i + 1; k <= n; k++ {
				f = NewAnd(f, NewOr(NewNot(p(i, j)), NewNot(p(k, j))))
			}
		}
	}
	return f
}

// TestDifferentialAlgorithms: on a seeded stream of random formulas,
// CDCL and the DPLL reference must return the same verdict, and that
// verdict must agree with the brute-force small-domain reference
// whenever brute finds a model (solver "unsat" must never contradict
// an existing model; solver "sat" must never contradict brute-unsat,
// since the theory is integer-complete only over the full domain but
// propositionally exact).
func TestDifferentialAlgorithms(t *testing.T) {
	r := rand.New(rand.NewSource(2010)) // PLDI 2010
	for i := 0; i < 600; i++ {
		f := genFormula(r, 3)
		cdcl, err := New().Sat(f)
		if err != nil {
			t.Fatalf("#%d %s under cdcl: %v", i, f, err)
		}
		dpll, err := NewReference().Sat(f)
		if err != nil {
			t.Fatalf("#%d %s under dpll: %v", i, f, err)
		}
		if cdcl != dpll {
			t.Fatalf("#%d %s: cdcl=%v dpll=%v", i, f, cdcl, dpll)
		}
		if bruteSat(f) && !cdcl {
			t.Fatalf("#%d %s: brute found a model but solver says unsat", i, f)
		}
	}
}

// TestCDCLModelsSatisfyFormula: every model CDCL extracts must
// actually satisfy the formula under Model.Eval — the same check the
// engine's counterexample cache performs before trusting one.
func TestCDCLModelsSatisfyFormula(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 400; i++ {
		f := genFormula(r, 3)
		sat, m, err := New().SatModel(f)
		if err != nil || !sat {
			continue
		}
		ok, err := m.Eval(f)
		if err != nil {
			t.Fatalf("#%d %s: model eval failed: %v", i, f, err)
		}
		if !ok {
			t.Fatalf("#%d %s: extracted model %v does not satisfy the formula", i, f, m)
		}
	}
}

// TestCDCLDeterministic: repeated solves of the same query on fresh
// solvers must agree bit-for-bit — same verdict, same model, same
// decision count. VSIDS ties break on variable index, never on map
// order or randomness, so there is nothing run-dependent to vary.
func TestCDCLDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 120; i++ {
		f := genFormula(r, 4)
		type run struct {
			sat       bool
			model     string
			decisions int
		}
		var first run
		for rep := 0; rep < 3; rep++ {
			s := New()
			sat, m, err := s.SatModel(f)
			if err != nil {
				t.Fatalf("#%d %s: %v", i, f, err)
			}
			cur := run{sat: sat, decisions: s.Stats.Decisions}
			if m != nil {
				cur.model = fmt.Sprintf("%v/%v", m.Ints, m.Bools)
			}
			if rep == 0 {
				first = cur
			} else if cur != first {
				t.Fatalf("#%d %s: run %d diverged: %+v vs %+v", i, f, rep, cur, first)
			}
		}
	}
}

// TestHardFamilySeparation is the reason CDCL exists: on hardMix the
// learned unit clause over the contradiction core lets CDCL refute in
// a handful of decisions, while chronological DPLL re-refutes the core
// once per busy-prefix assignment. The gap must be at least 10× at
// n=6 (it is exponential in n).
func TestHardFamilySeparation(t *testing.T) {
	f := hardMix(6)

	cd := New()
	sat, err := cd.Sat(f)
	if err != nil || sat {
		t.Fatalf("cdcl on hardMix: sat=%v err=%v, want unsat", sat, err)
	}
	dp := NewReference()
	sat, err = dp.Sat(f)
	if err != nil || sat {
		t.Fatalf("dpll on hardMix: sat=%v err=%v, want unsat", sat, err)
	}
	if cd.Stats.Conflicts == 0 || cd.Stats.LearnedClauses == 0 {
		t.Fatalf("cdcl refuted without learning? %+v", cd.Stats)
	}
	if dp.Stats.Decisions < 10*cd.Stats.Decisions {
		t.Fatalf("no separation: dpll=%d decisions, cdcl=%d",
			dp.Stats.Decisions, cd.Stats.Decisions)
	}
}

// TestReduceDBForgets: with a tiny learned-clause cap, a conflict-heavy
// run must trigger activity-based forgetting without changing the
// verdict.
func TestReduceDBForgets(t *testing.T) {
	s := New()
	s.MaxLearned = 8
	s.MaxDecisions = 1 << 22
	sat, err := s.Sat(pigeonhole(5))
	if err != nil || sat {
		t.Fatalf("sat=%v err=%v, want unsat (stats %+v)", sat, err, s.Stats)
	}
	if s.Stats.LearnedClauses == 0 {
		t.Fatalf("expected learning on pigeonhole: %+v", s.Stats)
	}
	// Forgetting only fires when the live learned set exceeds the cap;
	// a pigeonhole refutation learns far more than 8 clauses.
	if s.Stats.ForgottenClauses == 0 {
		t.Fatalf("cap of 8 never triggered forgetting: %+v", s.Stats)
	}
}

// TestAssumptionPushPopPinning: verdicts under a Push must match the
// conjunction solved fresh, and a Pop must restore exactly the
// pre-push verdicts even after the incremental core has accumulated
// learned clauses — learned clauses derive from the permanent database
// only, so no pop can unsoundly constrain a later query.
func TestAssumptionPushPopPinning(t *testing.T) {
	r := rand.New(rand.NewSource(1317))
	s := New() // one long-lived incremental solver
	for i := 0; i < 150; i++ {
		f1 := genFormula(r, 2)
		f2 := genFormula(r, 2)

		base, err := s.Sat(f2)
		if err != nil {
			t.Fatalf("#%d base: %v", i, err)
		}
		wantBase, err := New().Sat(f2)
		if err != nil {
			t.Fatalf("#%d fresh base: %v", i, err)
		}
		if base != wantBase {
			t.Fatalf("#%d incremental base verdict %v, fresh %v (f2=%s)", i, base, wantBase, f2)
		}

		s.Push(f1)
		under, err := s.Sat(f2)
		if err != nil {
			t.Fatalf("#%d under push: %v", i, err)
		}
		want, err := New().Sat(NewAnd(f1, f2))
		if err != nil {
			t.Fatalf("#%d fresh conj: %v", i, err)
		}
		if under != want {
			t.Fatalf("#%d pushed verdict %v, fresh conjunction %v (f1=%s f2=%s)",
				i, under, want, f1, f2)
		}
		s.Pop()

		after, err := s.Sat(f2)
		if err != nil {
			t.Fatalf("#%d after pop: %v", i, err)
		}
		if after != base {
			t.Fatalf("#%d pop did not restore the verdict: before=%v after=%v (f1=%s f2=%s)",
				i, base, after, f1, f2)
		}
	}
}

// TestSatAssumingMatchesConjunction: SatAssuming over a slice of
// conjuncts is the assumption-stack fast path the engine pool uses;
// it must agree with solving the conjunction outright, across both a
// shared incremental solver and fresh ones.
func TestSatAssumingMatchesConjunction(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	s := New()
	for i := 0; i < 200; i++ {
		fs := []Formula{genFormula(r, 2), genFormula(r, 2), genFormula(r, 2)}
		got, err := s.SatAssuming(fs...)
		if err != nil {
			t.Fatalf("#%d: %v", i, err)
		}
		want, err := New().Sat(Conj(fs...))
		if err != nil {
			t.Fatalf("#%d fresh: %v", i, err)
		}
		if got != want {
			t.Fatalf("#%d SatAssuming=%v, conjunction=%v (%s)", i, got, want, Conj(fs...))
		}
	}
}

// TestSatAssumingModelValid: models extracted under assumptions must
// satisfy every assumption and the query alike.
func TestSatAssumingModelValid(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for i := 0; i < 200; i++ {
		fs := []Formula{genFormula(r, 2), genFormula(r, 2)}
		s := New()
		sat, m, err := s.SatAssumingModel(fs...)
		if err != nil || !sat {
			continue
		}
		for _, f := range fs {
			ok, err := m.Eval(f)
			if err != nil {
				t.Fatalf("#%d eval: %v", i, err)
			}
			if !ok {
				t.Fatalf("#%d model %v violates assumption %s", i, m, f)
			}
		}
	}
}

// TestIncrementalReuseKeepsClauses: re-solving a refuted query on the
// same solver must reuse the incremental database — the second run may
// not need more decisions than the first, and the permanent clause
// count must not grow (the root is cached by formula string).
func TestIncrementalReuseKeepsClauses(t *testing.T) {
	s := New()
	f := hardMix(6)
	if sat, err := s.Sat(f); err != nil || sat {
		t.Fatalf("first solve: sat=%v err=%v", sat, err)
	}
	first := s.Stats.Decisions
	if sat, err := s.Sat(f); err != nil || sat {
		t.Fatalf("second solve: sat=%v err=%v", sat, err)
	}
	second := s.Stats.Decisions - first
	if second > first {
		t.Fatalf("warm re-solve needed more decisions (%d) than cold (%d)", second, first)
	}
}

// TestResetDropsIncrementalState: Reset must return the solver to a
// blank slate — same verdicts, fresh statistics baseline semantics —
// so pooled solvers can follow cache flushes.
func TestResetDropsIncrementalState(t *testing.T) {
	s := New()
	f := hardMix(4)
	if sat, err := s.Sat(f); err != nil || sat {
		t.Fatalf("pre-reset: sat=%v err=%v", sat, err)
	}
	s.Push(BoolVar{"p"})
	s.Reset()
	if n := s.Assumptions(); n != 0 {
		t.Fatalf("reset left %d assumptions", n)
	}
	if sat, err := s.Sat(f); err != nil || sat {
		t.Fatalf("post-reset: sat=%v err=%v", sat, err)
	}
	if sat, err := s.Sat(BoolVar{"p"}); err != nil || !sat {
		t.Fatalf("post-reset trivial query: sat=%v err=%v", sat, err)
	}
}

// TestRestartsFire: a long conflict-heavy refutation must cross the
// Luby restart schedule at least once, and restarting must not change
// the verdict.
func TestRestartsFire(t *testing.T) {
	s := New()
	s.MaxDecisions = 1 << 22
	sat, err := s.Sat(pigeonhole(5))
	if err != nil || sat {
		t.Fatalf("sat=%v err=%v, want unsat (stats %+v)", sat, err, s.Stats)
	}
	if s.Stats.Conflicts < 100 {
		t.Fatalf("pigeonhole(5) should conflict >100 times, got %+v", s.Stats)
	}
	if s.Stats.Restarts == 0 {
		t.Fatalf("crossed the restart threshold without restarting: %+v", s.Stats)
	}
}

// TestTheoryConflictsIncremental: theory reasoning must hold across
// the assumption stack — integer constraints pushed as assumptions
// must participate in conflicts with the query's own atoms.
func TestTheoryConflictsIncremental(t *testing.T) {
	s := New()
	s.Push(Lt{x(), c(0)})
	sat, err := s.Sat(Gt(x(), c(0)))
	if err != nil {
		t.Fatal(err)
	}
	if sat {
		t.Fatal("x<0 ∧ x>0 must be unsat")
	}
	s.Pop()
	sat, err = s.Sat(Gt(x(), c(0)))
	if err != nil || !sat {
		t.Fatalf("after pop x>0 must be sat: sat=%v err=%v", sat, err)
	}
}

// TestCDCLNilAndUnknownInputs: the CDCL front end must reject the
// same malformed inputs as the DPLL path, with the same messages.
func TestCDCLNilAndUnknownInputs(t *testing.T) {
	s := New()
	if _, err := s.Sat(nil); err == nil {
		t.Fatal("nil formula must error, not panic")
	}
	if _, err := s.Sat(Eq{nil, c(1)}); err == nil {
		t.Fatal("nil term must error, not panic")
	}
}

// TestCDCLMaxAtomsGate: the atom budget applies to the union of root
// closures with the same error shape as DPLL.
func TestCDCLMaxAtomsGate(t *testing.T) {
	s := New()
	s.MaxAtoms = 2
	f := Conj(BoolVar{"a"}, BoolVar{"b"}, BoolVar{"c"})
	_, err := s.Sat(f)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("err=%v, want ErrLimit", err)
	}
}
