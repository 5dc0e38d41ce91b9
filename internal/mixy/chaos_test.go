// Chaos tests for MIXY's fixed-point loop: a fault at the
// fixpoint-iteration poll must stop the run on its first iteration,
// pessimize the frontier instead of certifying stale qualifiers, and
// do so identically run over run.
package mixy

import (
	"strings"
	"testing"

	"mix/internal/corpus"
	"mix/internal/engine"
	"mix/internal/fault"
)

func runFixpointChaos(t *testing.T) *Analysis {
	t.Helper()
	inj := fault.NewInjector(1).
		Plan(fault.FixpointIter, fault.Plan{Class: fault.Timeout})
	eng := engine.New(engine.Options{FaultInjector: inj})
	defer eng.Close()
	a, err := Run(mustParse(corpus.SyntheticVsftpd(8, 2)), Options{Engine: eng})
	if err != nil {
		t.Fatalf("a fixpoint fault must degrade the analysis, not reject it: %v", err)
	}
	return a
}

func TestFixpointInjectionDegradesSoundly(t *testing.T) {
	a := runFixpointChaos(t)
	d := a.Degraded()
	if d == nil {
		t.Fatal("an armed fixpoint-iter plan must leave the analysis degraded")
	}
	if got := fault.ClassOf(d); got != fault.Timeout {
		t.Fatalf("fault class = %v, want the injected timeout", got)
	}
	if a.Stats.FixpointIters != 1 {
		t.Fatalf("the first iteration's poll must stop the loop, ran %d", a.Stats.FixpointIters)
	}
	if a.Stats.Faults.Of(fault.Timeout) == 0 {
		t.Fatalf("the fault must be counted: %+v", a.Stats.Faults)
	}
	var notice bool
	for _, w := range a.Warnings {
		if w.Source == "mixy" && strings.Contains(w.Msg, "analysis degraded") {
			notice = true
		}
	}
	if !notice {
		t.Fatalf("a degraded run must carry an explicit imprecision warning:\n%s",
			strings.Join(warningStrings(a), "\n"))
	}
	// Degradation is an over-approximation, never a free pass: the
	// pessimized frontier must warn at least as much as a clean run.
	clean, err := Run(mustParse(corpus.SyntheticVsftpd(8, 2)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Warnings) < len(clean.Warnings) {
		t.Fatalf("degraded run reports %d warnings, clean run %d — degradation dropped findings",
			len(a.Warnings), len(clean.Warnings))
	}
}

func TestFixpointChaosDeterministic(t *testing.T) {
	w1 := strings.Join(warningStrings(runFixpointChaos(t)), "\n")
	w2 := strings.Join(warningStrings(runFixpointChaos(t)), "\n")
	if w1 != w2 {
		t.Fatalf("degraded warning set diverged across runs:\n--- run1\n%s\n--- run2\n%s", w1, w2)
	}
}
