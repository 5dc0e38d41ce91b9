package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestFork2NilEngineSequential(t *testing.T) {
	var order []string
	l, r, err := Fork2(nil,
		func() (string, error) { order = append(order, "L"); return "left", nil },
		func() (string, error) { order = append(order, "R"); return "right", nil })
	if err != nil || l != "left" || r != "right" {
		t.Fatalf("Fork2(nil) = %q, %q, %v", l, r, err)
	}
	if fmt.Sprint(order) != "[L R]" {
		t.Fatalf("nil engine must run left before right, got %v", order)
	}
}

func TestFork2BranchOrderDeterministic(t *testing.T) {
	// Regardless of which goroutine finishes first, the left result is
	// returned in the left slot.
	e := New(Options{Workers: 4})
	for i := 0; i < 200; i++ {
		l, r, err := Fork2(e,
			func() (int, error) { return 1, nil },
			func() (int, error) { return 2, nil })
		if err != nil || l != 1 || r != 2 {
			t.Fatalf("iteration %d: got %d, %d, %v", i, l, r, err)
		}
	}
	if s := e.Snapshot(); s.Steals == 0 {
		t.Fatalf("expected some steals across 200 forks, got %+v", s)
	}
}

func TestFork2LeftErrorWins(t *testing.T) {
	lErr := errors.New("left failed")
	rErr := errors.New("right failed")
	for i := 0; i < 100; i++ {
		e := New(Options{Workers: 4})
		_, _, err := Fork2(e,
			func() (int, error) { return 0, lErr },
			func() (int, error) { return 0, rErr })
		if err != lErr {
			t.Fatalf("want left error to win deterministically, got %v", err)
		}
	}
}

func TestFork2ErrorCancelsEngine(t *testing.T) {
	e := New(Options{Workers: 2})
	boom := errors.New("boom")
	_, _, err := Fork2(e,
		func() (int, error) { return 0, boom },
		func() (int, error) { return 0, nil })
	if err != boom {
		t.Fatalf("first fork: %v", err)
	}
	// Later forks observe the recorded failure and unwind immediately.
	ran := false
	_, _, err = Fork2(e,
		func() (int, error) { ran = true; return 0, nil },
		func() (int, error) { ran = true; return 0, nil })
	if err != boom || ran {
		t.Fatalf("cancelled engine must bail before running branches (err=%v ran=%v)", err, ran)
	}
	if err := e.Charge(); err != boom {
		t.Fatalf("Charge after failure = %v, want recorded error", err)
	}
}

func TestFork2SaturatedPoolRunsInline(t *testing.T) {
	// Workers == 1 leaves no slots to steal; both branches must still
	// run, on the calling goroutine, in order.
	e := New(Options{Workers: 1})
	l, r, err := Fork2(e,
		func() (int, error) { return 1, nil },
		func() (int, error) { return 2, nil })
	if err != nil || l != 1 || r != 2 {
		t.Fatalf("got %d, %d, %v", l, r, err)
	}
	if s := e.Snapshot(); s.Steals != 0 {
		t.Fatalf("workers=1 must not steal, got %+v", s)
	}
}

func TestChargePathBudget(t *testing.T) {
	e := New(Options{Workers: 1, MaxPaths: 3})
	// Each binary fork adds one path beyond the initial one: two forks
	// reach 3 paths, the third must be refused.
	if err := e.Charge(); err != nil {
		t.Fatalf("fork 1: %v", err)
	}
	if err := e.Charge(); err != nil {
		t.Fatalf("fork 2: %v", err)
	}
	err := e.Charge()
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("fork 3 = %v, want ErrBudget", err)
	}
	if s := e.Snapshot(); !s.Exhausted || s.Forks != 2 {
		t.Fatalf("snapshot after budget hit: %+v", s)
	}
}

func TestChargeNilEngineUnlimited(t *testing.T) {
	var e *Engine
	for i := 0; i < 1000; i++ {
		if err := e.Charge(); err != nil {
			t.Fatalf("nil engine charged: %v", err)
		}
	}
	e.AddPaths(5) // must not panic
	if s := e.Snapshot(); s != (Stats{}) {
		t.Fatalf("nil snapshot = %+v", s)
	}
}

func TestMapOrderingAndCompletion(t *testing.T) {
	e := New(Options{Workers: 4})
	const n = 100
	var out [n]int32
	err := e.Map(n, func(i int) error {
		atomic.StoreInt32(&out[i], int32(i)+1)
		return nil
	})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	for i, v := range out {
		if v != int32(i)+1 {
			t.Fatalf("index %d not executed (got %d)", i, v)
		}
	}
}

func TestMapLowestIndexErrorWins(t *testing.T) {
	e := New(Options{Workers: 4})
	errAt := func(i int) error { return fmt.Errorf("task %d failed", i) }
	for rep := 0; rep < 50; rep++ {
		err := e.Map(20, func(i int) error {
			if i == 3 || i == 17 {
				return errAt(i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 3 failed" {
			t.Fatalf("want lowest-index error, got %v", err)
		}
	}
}

func TestMapNilEngineSequential(t *testing.T) {
	var e *Engine
	var order []int
	err := e.Map(5, func(i int) error { order = append(order, i); return nil })
	if err != nil || fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("nil Map: %v %v", order, err)
	}
}

func TestSnapshotAggregates(t *testing.T) {
	e := New(Options{Workers: 3})
	e.AddPaths(7)
	if err := e.Charge(); err != nil {
		t.Fatal(err)
	}
	s := e.Snapshot()
	if s.Workers != 3 || s.Paths != 7 || s.Forks != 1 || s.Exhausted {
		t.Fatalf("snapshot = %+v", s)
	}
}
