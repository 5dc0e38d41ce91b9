// Signs: the paper's "Local Refinements of Data" example (Section 2).
//
// A symbolic block splits an unknown integer three ways, x = 0 | x = 1
// | otherwise; each arm is a typed block analyzed under the
// refinement. TSYMBLOCK requires the three path conditions to be
// exhaustive, and the forking executor covers them by construction,
// so the accepted split costs no solver query. Two more blocks show a
// refinement proving a nested branch dead and arms that disagree on
// type.
//
// Run with: go run ./examples/signs
package main

import (
	"fmt"

	"mix"
)

func main() {
	env := map[string]string{"x": "int"}

	// Exhaustive split: each arm is typed under its refinement.
	exhaustive := `{s
	  if x = 0 then {t 100 t}
	  else (if x = 1 then {t 101 t}
	  else {t 102 t})
	s}`
	res := mix.Check(exhaustive, mix.Config{Env: env})
	fmt.Println("exhaustive three-way split:")
	if res.Err != nil {
		fmt.Println("  rejected:", res.Err)
	} else {
		fmt.Printf("  accepted : %s (%d paths, %d solver queries)\n",
			res.Type, res.Paths, res.SolverQueries)
	}

	// The refinement is real: inside the x = 0 arm the symbolic state
	// knows x, so code dividing by cases can exploit it. Here the arm
	// guarded by x = 0 uses x where an ill-typed use would occur for
	// other values — the guard makes the bad path infeasible.
	refined := `{s if x = 0 then (if x = 1 then {t 1 + true t} else {t 7 t}) else {t 8 t} s}`
	res = mix.Check(refined, mix.Config{Env: env})
	fmt.Println("\nrefinement proves nested branch dead (x=0 && x=1 unsat):")
	if res.Err != nil {
		fmt.Println("  rejected:", res.Err)
	} else {
		fmt.Printf("  accepted : %s\n", res.Type)
		for _, r := range res.Reports {
			fmt.Println("  report  :", r)
		}
	}

	// Branch arms of different types are caught by the mix rule even
	// when each arm alone is fine.
	disagree := `{s if x = 0 then {t 1 t} else {t true t} s}`
	res = mix.Check(disagree, mix.Config{Env: env})
	fmt.Println("\narms of different types:")
	fmt.Println("  rejected:", res.Err)
}
