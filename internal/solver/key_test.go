package solver

import "testing"

// TestFormulaKeyIteCanonicalization pins the key property that
// merged-state queries rely on: the two polarity spellings of one ite —
// built by hand, bypassing NewIte's normalization — get one key, and
// distinct ites do not.
func TestFormulaKeyIteCanonicalization(t *testing.T) {
	g := BoolVar{Name: "g"}
	a, b := IntVar{Name: "a"}, IntVar{Name: "b"}
	key := func(x Term) string { return FormulaKey(Eq{X: x, Y: IntConst{Val: 0}}) }

	pos := key(Ite{G: g, X: a, Y: b})
	if neg := key(Ite{G: Not{X: g}, X: b, Y: a}); neg != pos {
		t.Fatalf("ite(g, a, b) keys as %q but ite(!g, b, a) as %q; merged runs would halve their memo hit rate", pos, neg)
	}
	if dbl := key(Ite{G: Not{X: Not{X: g}}, X: a, Y: b}); dbl != pos {
		t.Fatalf("ite(!!g, a, b) keys as %q, want %q", dbl, pos)
	}
	if swapped := key(Ite{G: g, X: b, Y: a}); swapped == pos {
		t.Fatal("ite(g, a, b) and ite(g, b, a) are different functions but share a key")
	}
	if other := key(Ite{G: BoolVar{Name: "h"}, X: a, Y: b}); other == pos {
		t.Fatal("ites under different guards share a key")
	}
	// An ite-bearing atom keys differently from its ite-free shadow.
	if FormulaKey(Eq{X: Ite{G: g, X: a, Y: b}, Y: a}) == FormulaKey(Eq{X: a, Y: a}) {
		t.Fatal("ite-bearing and plain atoms share a key")
	}
}
