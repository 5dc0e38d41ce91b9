// Package fault is the failure taxonomy and degradation vocabulary of
// the analysis stack. Every abort anywhere in the system — a wall-clock
// deadline, a path or step budget, a solver resource bound, a recovered
// worker panic, a cooperative cancellation — is classified into one of
// a small set of Classes, and every layer applies the same degradation
// rule: a killed path or an "unknown" solver answer becomes an explicit
// imprecision (the typed side's over-approximation, "top"), never a
// silently dropped answer and never a crash.
//
// The package is a leaf: it depends only on the standard library, so
// the solver, the engine, both executors, and MIXY can all share one
// vocabulary without import cycles. Components attach a class to their
// own error types either by returning a *Fault or by implementing
// Classifier.
//
// It also hosts the deterministic fault-injection harness (Injector)
// used by the chaos tests: seeded, with a fixed set of injection points
// threaded through the stack, so every failure mode can be forced
// reproducibly under -race.
package fault

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// Class classifies an abort. The zero value None means "not a
// classified fault" — a genuine error that must not be degraded.
type Class uint8

const (
	// None marks unclassified (hard) errors.
	None Class = iota
	// Timeout is a wall-clock deadline expiry (run deadline or
	// per-query solver timeout).
	Timeout
	// Canceled is a cooperative cancellation (context canceled).
	Canceled
	// PathBudget is an exhausted path budget.
	PathBudget
	// StepBudget is an exhausted evaluation-step budget.
	StepBudget
	// SolverLimit is a solver resource bound (atoms, decisions).
	SolverLimit
	// WorkerPanic is a panic recovered at a task boundary.
	WorkerPanic
	// CacheCorrupt is a persistent-cache entry that failed its
	// integrity or version check; the entry is discarded and the work
	// recomputed (degraded-to-recompute, never a wrong answer).
	CacheCorrupt

	// NumClasses is the number of classes, for counter arrays.
	NumClasses = int(CacheCorrupt) + 1
)

var classNames = [NumClasses]string{
	"none", "timeout", "canceled", "path-budget", "step-budget",
	"solver-limit", "worker-panic", "cache-corrupt",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("fault.Class(%d)", int(c))
}

// Classes lists every real class (excluding None), for tests that
// sweep the taxonomy.
func Classes() []Class {
	return []Class{Timeout, Canceled, PathBudget, StepBudget, SolverLimit, WorkerPanic, CacheCorrupt}
}

// Transient reports whether a degradation of this class is tied to the
// circumstances of one request rather than to the program under
// analysis: retrying the identical request with a longer deadline (or
// after load subsides) can genuinely succeed. Deadline expiries,
// cancellations, and recovered panics are transient; budget and solver
// resource exhaustion are deterministic for a fixed configuration, so
// a retry without a config change would only rediscover them. The
// serving layer surfaces this as the response's "retryable" hint.
func (c Class) Transient() bool {
	switch c {
	case Timeout, Canceled, WorkerPanic:
		return true
	}
	return false
}

// Classifier lets error types outside this package declare their class
// without importing fault from both sides (e.g. solver.ErrResource
// reports SolverLimit).
type Classifier interface{ FaultClass() Class }

// Fault is a classified degradation event. It is an error; Unwrap
// preserves the cause chain so sentinel checks (errors.Is against
// context.DeadlineExceeded, solver.ErrLimit, engine.ErrBudget, ...)
// keep working through it.
type Fault struct {
	// Class is the taxonomy bucket.
	Class Class
	// Op names the component and operation that tripped, e.g.
	// "engine.fork" or "solver.search".
	Op string
	// Budget names the budget that tripped, e.g. "deadline=50ms" or
	// "max-paths=64". Empty when no budget applies (panics).
	Budget string
	// Err is the underlying cause, if any.
	Err error
}

func (f *Fault) Error() string {
	s := "fault: " + f.Class.String()
	if f.Op != "" {
		s += " at " + f.Op
	}
	if f.Budget != "" {
		s += " (" + f.Budget + ")"
	}
	if f.Err != nil {
		s += ": " + f.Err.Error()
	}
	return s
}

func (f *Fault) Unwrap() error { return f.Err }

// FaultClass implements Classifier (so a Fault wrapped by another
// error still classifies through errors.As).
func (f *Fault) FaultClass() Class { return f.Class }

// New builds a classified fault.
func New(c Class, op, budget string, err error) *Fault {
	return &Fault{Class: c, Op: op, Budget: budget, Err: err}
}

// FromContext classifies a context error: deadline expiry is Timeout,
// anything else Canceled. err must be non-nil (ctx.Err() after Done).
func FromContext(op, budget string, err error) *Fault {
	c := Canceled
	if errors.Is(err, context.DeadlineExceeded) {
		c = Timeout
	}
	return &Fault{Class: c, Op: op, Budget: budget, Err: err}
}

// FromPanic converts a recovered panic value into a WorkerPanic fault.
// If the panic value is itself an error it becomes the cause (so an
// injected fault panicking through a worker keeps its identity).
func FromPanic(op string, v any) *Fault {
	err, ok := v.(error)
	if !ok {
		err = fmt.Errorf("panic: %v", v)
	}
	return &Fault{Class: WorkerPanic, Op: op, Err: err}
}

// ClassOf reports the class of an error, walking the wrap chain: a
// *Fault or Classifier anywhere in the chain decides; bare context
// sentinels classify as Timeout/Canceled; everything else is None.
func ClassOf(err error) Class {
	if err == nil {
		return None
	}
	var f *Fault
	if errors.As(err, &f) {
		return f.Class
	}
	var cl Classifier
	if errors.As(err, &cl) {
		return cl.FaultClass()
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return Timeout
	}
	if errors.Is(err, context.Canceled) {
		return Canceled
	}
	return None
}

// Of returns the *Fault in err's chain, or nil. It distinguishes
// explicitly constructed faults (injected or classified aborts) from
// errors that merely classify via Classifier — the solver pool uses
// this to memoize deterministic resource verdicts but never injected
// or cancellation ones.
func Of(err error) *Fault {
	var f *Fault
	if errors.As(err, &f) {
		return f
	}
	return nil
}

// Degradable reports whether an error may be absorbed into an
// imprecise-but-sound result instead of propagating as a failure.
func Degradable(err error) bool { return ClassOf(err) != None }

// Snapshot is a point-in-time copy of per-class fault counts.
type Snapshot [NumClasses]int64

// Of returns the count for one class.
func (s Snapshot) Of(c Class) int64 { return s[c] }

// Total sums all classified faults (None excluded).
func (s Snapshot) Total() int64 {
	var t int64
	for c := 1; c < NumClasses; c++ {
		t += s[c]
	}
	return t
}

// Truncations sums the classes that cut paths short (path and step
// budgets) — the "paths truncated" figure of -stats.
func (s Snapshot) Truncations() int64 { return s[PathBudget] + s[StepBudget] }

// Add folds another snapshot into this one.
func (s *Snapshot) Add(o Snapshot) {
	for i := range s {
		s[i] += o[i]
	}
}

// String lists the nonzero classes, e.g. "timeout=2 worker-panic=1";
// empty when no faults were recorded.
func (s Snapshot) String() string {
	out := ""
	for c := 1; c < NumClasses; c++ {
		if s[c] == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", Class(c), s[c])
	}
	return out
}

// Counters counts classified faults. The zero value is ready; all
// methods are safe for concurrent use and safe on a nil receiver (a
// nil *Counters records nothing).
type Counters struct {
	counts [NumClasses]atomic.Int64
}

// Record counts one fault of class c (None is ignored).
func (k *Counters) Record(c Class) {
	if k == nil || c == None {
		return
	}
	k.counts[c].Add(1)
}

// RecordErr classifies err and records it; reports the class.
func (k *Counters) RecordErr(err error) Class {
	c := ClassOf(err)
	k.Record(c)
	return c
}

// Get returns the count for one class.
func (k *Counters) Get(c Class) int64 {
	if k == nil {
		return 0
	}
	return k.counts[c].Load()
}

// Snapshot copies the current counts.
func (k *Counters) Snapshot() Snapshot {
	var s Snapshot
	if k == nil {
		return s
	}
	for i := range s {
		s[i] = k.counts[i].Load()
	}
	return s
}

// Total sums all classified faults so far.
func (k *Counters) Total() int64 { return k.Snapshot().Total() }
