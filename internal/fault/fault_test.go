package fault

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestClassOfWalksWrapChain(t *testing.T) {
	base := New(PathBudget, "engine.fork", "max-paths=16", errors.New("boom"))
	wrapped := fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", base))
	if got := ClassOf(wrapped); got != PathBudget {
		t.Fatalf("ClassOf(wrapped) = %v, want path-budget", got)
	}
	if Of(wrapped) != base {
		t.Fatal("Of must find the fault through the wrap chain")
	}
	if !Degradable(wrapped) {
		t.Fatal("classified faults are degradable")
	}
}

func TestClassOfContextSentinels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := ClassOf(ctx.Err()); got != Canceled {
		t.Fatalf("canceled ctx classifies as %v, want canceled", got)
	}
	if got := ClassOf(context.DeadlineExceeded); got != Timeout {
		t.Fatalf("deadline classifies as %v, want timeout", got)
	}
	if got := ClassOf(errors.New("plain")); got != None {
		t.Fatalf("plain error classifies as %v, want none", got)
	}
	if ClassOf(nil) != None || Degradable(nil) {
		t.Fatal("nil error must be None and not degradable")
	}
}

type classified struct{ msg string }

func (c classified) Error() string     { return c.msg }
func (c classified) FaultClass() Class { return SolverLimit }

func TestClassifierInterface(t *testing.T) {
	err := fmt.Errorf("pool: %w", classified{"too many atoms"})
	if got := ClassOf(err); got != SolverLimit {
		t.Fatalf("ClassOf(classifier) = %v, want solver-limit", got)
	}
	if Of(err) != nil {
		t.Fatal("Of must be nil for Classifier-only errors (no explicit *Fault)")
	}
}

func TestFromContextAndPanic(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	f := FromContext("engine", "deadline=50ms", ctx.Err())
	if f.Class != Timeout {
		t.Fatalf("expired deadline → %v, want timeout", f.Class)
	}
	if !errors.Is(f, context.DeadlineExceeded) {
		t.Fatal("fault must preserve the context sentinel through Unwrap")
	}
	if !strings.Contains(f.Error(), "timeout") || !strings.Contains(f.Error(), "deadline=50ms") {
		t.Fatalf("diagnostic must name class and budget: %q", f.Error())
	}

	p := FromPanic("engine.task", "index out of range")
	if p.Class != WorkerPanic || !strings.Contains(p.Error(), "worker-panic") {
		t.Fatalf("panic fault = %v", p)
	}
	inner := New(SolverLimit, "inject.pre-fork", "injected", nil)
	p2 := FromPanic("engine.task", inner)
	if !errors.Is(p2, inner) {
		t.Fatal("panicking with an error must keep it in the chain")
	}
}

func TestCountersConcurrent(t *testing.T) {
	var k Counters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				k.Record(Timeout)
				k.Record(WorkerPanic)
				k.Record(None) // ignored
			}
		}()
	}
	wg.Wait()
	if k.Get(Timeout) != 800 || k.Get(WorkerPanic) != 800 {
		t.Fatalf("counts = %v", k.Snapshot())
	}
	s := k.Snapshot()
	if s.Total() != 1600 || s.Of(Timeout) != 800 {
		t.Fatalf("snapshot = %v", s)
	}
	if !strings.Contains(s.String(), "timeout=800") {
		t.Fatalf("String() = %q", s.String())
	}
	var nilK *Counters
	nilK.Record(Timeout) // must not crash
	if nilK.Get(Timeout) != 0 || nilK.Total() != 0 {
		t.Fatal("nil counters must read zero")
	}
}

func TestSnapshotAddAndTruncations(t *testing.T) {
	var a, b Snapshot
	a[PathBudget] = 2
	b[StepBudget] = 3
	b[Timeout] = 1
	a.Add(b)
	if a.Truncations() != 5 || a.Total() != 6 {
		t.Fatalf("after Add: %v", a)
	}
	var zero Snapshot
	if zero.String() != "" {
		t.Fatalf("empty snapshot String() = %q", zero.String())
	}
}

func TestInjectorPlanDeterminism(t *testing.T) {
	for run := 0; run < 2; run++ {
		in := NewInjector(42).Plan(PreSolve, Plan{After: 3, Count: 2, Class: SolverLimit})
		var got []bool
		for i := 0; i < 6; i++ {
			got = append(got, in.At(PreSolve) != nil)
		}
		want := []bool{false, false, true, true, false, false}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: visit %d injected=%v, want %v", run, i, got[i], want[i])
			}
		}
		if in.Counters().Get(SolverLimit) != 2 {
			t.Fatalf("injected counter = %d, want 2", in.Counters().Get(SolverLimit))
		}
	}
}

func TestInjectorClassAndBudgetNamed(t *testing.T) {
	in := NewInjector(1).Plan(MidSearch, Plan{Class: Timeout})
	err := in.At(MidSearch)
	if err == nil {
		t.Fatal("armed point must inject on first visit")
	}
	if ClassOf(err) != Timeout {
		t.Fatalf("class = %v", ClassOf(err))
	}
	if !strings.Contains(err.Error(), "mid-search") || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("injected fault must name its point and budget: %q", err.Error())
	}
}

func TestInjectorPanicPlan(t *testing.T) {
	in := NewInjector(7).Plan(PreFork, Plan{After: 1, Count: 1, Panic: true})
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic plan must panic")
			}
			f := FromPanic("test", r)
			if f.Class != WorkerPanic {
				t.Fatalf("recovered class = %v", f.Class)
			}
		}()
		_ = in.At(PreFork)
	}()
	if err := in.At(PreFork); err != nil {
		t.Fatal("Count=1 must stop injecting after one shot")
	}
	if in.Counters().Get(WorkerPanic) != 1 {
		t.Fatalf("panic counter = %d", in.Counters().Get(WorkerPanic))
	}
}

func TestInjectorChanceSeeded(t *testing.T) {
	fire := func() int {
		in := NewInjector(99).Chance(PreSolve, 0.5, SolverLimit)
		n := 0
		for i := 0; i < 100; i++ {
			if in.At(PreSolve) != nil {
				n++
			}
		}
		return n
	}
	a, b := fire(), fire()
	if a != b {
		t.Fatalf("same seed must reproduce the same injection sequence: %d vs %d", a, b)
	}
	if a == 0 || a == 100 {
		t.Fatalf("p=0.5 over 100 visits fired %d times", a)
	}
}

func TestNilInjectorInert(t *testing.T) {
	var in *Injector
	if in.At(PreFork) != nil || in.Counters() != nil {
		t.Fatal("nil injector must be inert")
	}
}

// TestTransient pins the retryability split: wall-clock and scheduling
// faults are transient; budget and solver-resource exhaustion are
// deterministic, so retrying the identical request cannot help.
func TestTransient(t *testing.T) {
	want := map[Class]bool{
		Timeout:      true,
		Canceled:     true,
		WorkerPanic:  true,
		PathBudget:   false,
		StepBudget:   false,
		SolverLimit:  false,
		CacheCorrupt: false,
		None:         false,
	}
	for c, w := range want {
		if got := c.Transient(); got != w {
			t.Errorf("%v.Transient() = %v, want %v", c, got, w)
		}
	}
	for _, c := range Classes() {
		if _, ok := want[c]; !ok {
			t.Errorf("class %v missing from the transiency table; decide and add it", c)
		}
	}
}
