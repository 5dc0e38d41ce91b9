package solver

// This file is the incremental front door of the solver: the
// SatAssuming entry points that decide a query as a set of conjuncts
// instead of one flat conjunction, and the dispatch to the CDCL core
// (or, on a solver built by NewReference, to the chronological DPLL
// search the tests compare it against).
//
// Keeping the conjuncts separate is what makes the CDCL core
// incremental: each conjunct encodes to one root literal, memoized for
// the solver's lifetime, and a query asserts its roots as assumption
// levels over the persistent learned-clause database. A forked path
// condition that shares its prefix with the previous query therefore
// pays only for its new conjunct. An assumption holds for its own
// query only: it never constrains a later one.

// Reset drops every retained encoding and learned clause. Pool owners
// call it when their cache generation turns over; bounds, context, and
// stats are untouched.
func (s *Solver) Reset() {
	s.d = nil
}

// SatAssuming reports whether the conjunction of fs is satisfiable.
func (s *Solver) SatAssuming(fs ...Formula) (bool, error) {
	ok, _, err := s.satAssuming(false, fs)
	return ok, err
}

// SatAssumingModel is SatAssuming plus a witness when satisfiable (the
// model may be nil even on sat; extraction is best-effort).
func (s *Solver) SatAssumingModel(fs ...Formula) (bool, *Model, error) {
	return s.satAssuming(true, fs)
}

// satAssuming is the single dispatch point for every query.
func (s *Solver) satAssuming(wantModel bool, fs []Formula) (bool, *Model, error) {
	if err := s.ctxErr("solver.sat"); err != nil {
		return false, nil, err
	}
	s.Stats.SatQueries++
	if s.reference {
		return s.satDPLL(Conj(fs...), wantModel)
	}
	return s.satCDCL(fs, wantModel)
}

// satCDCL answers through the persistent CDCL core, creating it on
// first use.
func (s *Solver) satCDCL(fs []Formula, wantModel bool) (bool, *Model, error) {
	if s.d == nil {
		s.d = newCDCL(s)
	}
	return s.d.solve(fs, wantModel)
}
