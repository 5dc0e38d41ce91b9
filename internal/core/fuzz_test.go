package core

import (
	"slices"
	"strings"
	"testing"

	"mix/internal/sym"
	"mix/internal/types"
)

// fuzzLiteralNames name the literals of fuzzGuards, in byte order: three
// booleans and the three signs of one integer x.
var fuzzLiteralNames = []string{"a", "b", "c", "neg", "zero", "pos"}

// Guard-list steps besides a literal (see FuzzExhaustiveness).
const (
	fuzzEndGuard  = 6 // append the guard and start the next from true
	fuzzEmitGuard = 7 // append the guard and keep extending it
)

// fuzzLiterals returns the literals fuzzGuards conjoins: a, b, c and
// x<0, x=0, 0<x.
func fuzzLiterals() []sym.Val {
	fresh := sym.NewFresh()
	a := fresh.Var(types.Bool, "a")
	b := fresh.Var(types.Bool, "b")
	c := fresh.Var(types.Bool, "c")
	x := fresh.Var(types.Int, "x")
	return []sym.Val{a, b, c,
		{U: sym.LtOp{X: x, Y: sym.IntVal(0)}, T: types.Bool},
		{U: sym.EqOp{X: x, Y: sym.IntVal(0)}, T: types.Bool},
		{U: sym.LtOp{X: sym.IntVal(0), Y: x}, T: types.Bool},
	}
}

// fuzzGuards decodes data into a guard list over lits. Each byte is one
// step: its low three bits pick a literal to conjoin onto the current
// guard with MkAnd (0–5) or end the guard (fuzzEndGuard,
// fuzzEmitGuard), and the next two bits apply MkNot to the literal that
// many times, so a double negation folds back. A guard still open at
// the end is appended.
func fuzzGuards(lits []sym.Val, data []byte) []sym.Val {
	var guards []sym.Val
	g, open := sym.TrueVal, false
	for _, b := range data {
		switch op := int(b & 7); op {
		case fuzzEndGuard, fuzzEmitGuard:
			guards = append(guards, g)
			if op == fuzzEndGuard {
				g = sym.TrueVal
			}
			open = false
		default:
			l := lits[op]
			for n := b >> 3 & 3; n > 0; n-- {
				l = sym.MkNot(l)
			}
			g, open = sym.MkAnd(g, l), true
		}
	}
	if open {
		guards = append(guards, g)
	}
	return guards
}

// encodeFuzzGuards is fuzzGuards' inverse on a readable form: each
// guard a space-separated list of literal names, a "~" before a name
// for each MkNot, and "" the guard true.
func encodeFuzzGuards(tb testing.TB, guards []string) []byte {
	var data []byte
	for _, guard := range guards {
		for _, tok := range strings.Fields(guard) {
			name := strings.TrimLeft(tok, "~")
			idx := slices.Index(fuzzLiteralNames, name)
			if idx < 0 {
				tb.Fatalf("unknown literal %q in %q", name, guards)
			}
			data = append(data, byte(idx)|byte(len(tok)-len(name))<<3)
		}
		data = append(data, fuzzEndGuard)
	}
	return data
}

// fuzzSeedLists are TestFactoredExhaustivenessMatchesFlatOnHandBuiltGuards'
// cases in encodeFuzzGuards' form, in the same order.
var fuzzSeedLists = [][]string{
	{},
	{""},
	{"a", ""},
	{"a", "~a"},
	{"a"},
	{"a b", "a c", "~a b", "~a ~b"},
	{"a b", "a b", "a ~b", "~a", "~a"},
	{"a", "a b", "~a"},
	{"a b", "~a", "a"},
	{"a b c", "a b", "a ~b", "~a"},
	{"a", "a b"},
	{"a b", "~a c", "a ~b", "~a ~c"},
	{"a b", "~a c", "a ~b"},
	{"a b", "a ~b", "~a b"},
	{"neg", "~neg zero", "~neg ~zero"},
	{"neg", "zero", "pos"},
	{"neg", "pos"},
	{"neg pos", "~neg"},
	{"a neg", "a ~neg b", "a ~neg ~b", "~a c zero", "~a c ~zero", "~a ~c"},
}

// FuzzExhaustiveness holds Disjunction's one decision of its own — a
// trie node is complete when two of its children are complementary and
// complete — to the flat oracle, on guard lists no fork tree produces:
// strict prefixes, duplicates, double negations, complementary pairs at
// any position and shared prefixes that are not adjacent. The fuzz
// bytes decode to a guard list (fuzzGuards), and the factored and flat
// disjunctions must agree on whether it is exhaustive. The seeds are
// the hand-built cases, in both orders.
//
//	go test -run '^$' -fuzz FuzzExhaustiveness -fuzztime 10s ./internal/core/
func FuzzExhaustiveness(f *testing.F) {
	for _, guards := range fuzzSeedLists {
		f.Add(encodeFuzzGuards(f, guards))
		reversed := slices.Clone(guards)
		slices.Reverse(reversed)
		f.Add(encodeFuzzGuards(f, reversed))
	}
	lits := fuzzLiterals()
	f.Fuzz(func(t *testing.T, data []byte) {
		// Sixty-four steps build every shape listed above; longer
		// lists only slow the flat oracle down.
		guards := fuzzGuards(lits, data[:min(len(data), 64)])
		sameExhaustiveness(t, "fuzz", guards)
	})
}
