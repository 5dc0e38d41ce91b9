package engine

import (
	"errors"
	"fmt"
	"testing"

	"mix/internal/fault"
)

func TestFork2NilEngineSequential(t *testing.T) {
	var order []string
	err := Fork2(
		func() error { order = append(order, "L"); return nil },
		func() error { order = append(order, "R"); return nil })
	if err != nil {
		t.Fatalf("Fork2 = %v", err)
	}
	if fmt.Sprint(order) != "[L R]" {
		t.Fatalf("Fork2 must run left before right, got %v", order)
	}
}

// TestFork2BranchOrderDeterministic: nested forks explore depth-first
// in branch order, so a tree of forks visits and delivers its leaves
// left to right on every run.
func TestFork2BranchOrderDeterministic(t *testing.T) {
	var visited, leaves []int
	var tree func(lo, hi int) error
	tree = func(lo, hi int) error {
		if hi-lo == 1 {
			visited = append(visited, lo)
			leaves = append(leaves, lo)
			return nil
		}
		mid := (lo + hi) / 2
		return Fork2(
			func() error { return tree(lo, mid) },
			func() error { return tree(mid, hi) })
	}
	err := tree(0, 16)
	want := "[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15]"
	if err != nil || fmt.Sprint(leaves) != want || fmt.Sprint(visited) != want {
		t.Fatalf("leaves %v, visited %v, err %v; want both %s", leaves, visited, err, want)
	}
}

func TestFork2LeftErrorWins(t *testing.T) {
	lErr := errors.New("left failed")
	rErr := errors.New("right failed")
	ranRight := false
	err := Fork2(
		func() error { return lErr },
		func() error { ranRight = true; return rErr })
	if err != lErr || ranRight {
		t.Fatalf("want the left error without running right, got %v (right ran: %v)", err, ranRight)
	}
}

// TestFork2PanicKeepsSibling: each branch has its own panic boundary;
// a panic in right is a worker-panic fault and what left delivered
// survives.
func TestFork2PanicKeepsSibling(t *testing.T) {
	l := 0
	err := Fork2(
		func() error { l = 1; return nil },
		func() error { panic("boom") })
	if l != 1 || fault.ClassOf(err) != fault.WorkerPanic {
		t.Fatalf("Fork2 left %d, %v; want left's 1 and a worker-panic fault", l, err)
	}
}

func TestChargePathBudget(t *testing.T) {
	e := New(Options{MaxPaths: 3})
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

// TestChargeWithoutBudgetUnlimited: an engine built with no MaxPaths
// (the private engine of a caller that passes none) refuses no fork.
func TestChargeWithoutBudgetUnlimited(t *testing.T) {
	e := New(Options{})
	for i := 0; i < 1000; i++ {
		if err := e.Charge(); err != nil {
			t.Fatalf("fork %d charged: %v", i, err)
		}
	}
	e.AddPaths(5)
	if s := e.Snapshot(); s.Forks != 1000 || s.Paths != 5 || s.Exhausted {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestMapOrderingAndCompletion(t *testing.T) {
	e := New(Options{})
	var order []int
	if err := e.Map(100, func(i int) error { order = append(order, i); return nil }); err != nil {
		t.Fatalf("Map: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("call %d ran index %d; want index order", i, v)
		}
	}
	if len(order) != 100 {
		t.Fatalf("ran %d of 100 indices", len(order))
	}
}

// TestMapLowestIndexErrorWins: Map stops at the first failing index,
// so the lowest-index error is returned and later indices never run.
func TestMapLowestIndexErrorWins(t *testing.T) {
	e := New(Options{})
	ran := 0
	err := e.Map(20, func(i int) error {
		ran++
		if i == 3 || i == 17 {
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "task 3 failed" || ran != 4 {
		t.Fatalf("want the lowest-index error after 4 calls, got %v after %d", err, ran)
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
	e := New(Options{})
	e.AddPaths(7)
	if err := e.Charge(); err != nil {
		t.Fatal(err)
	}
	s := e.Snapshot()
	if s.Paths != 7 || s.Forks != 1 || s.Exhausted {
		t.Fatalf("snapshot = %+v", s)
	}
}
