// Package engine is the path-exploration runtime shared by both
// symbolic executors (internal/sym and internal/symexec) and by
// MIXY's fixed-point driver.
//
// Each check runs on the goroutine that called it. Fork2 runs a
// conditional's then-branch and then its else-branch, and Map is an
// ordered loop; both put a panic boundary around each task, so a
// panicking branch degrades instead of tearing down the process.
// Exploration is therefore depth-first in program order, and fresh
// symbolic ids, results and reports come out in the same order on
// every run.
//
// The engine also owns the run's budgets (path budget, deadline,
// per-query solver timeout), its classified-fault counters, and a
// memoizing solver frontend (SolverPool): path feasibility queries
// dominate symbolic-execution wall-clock time (the paper's Section 4.6
// timings), and distinct paths re-prove identical formulas. The pool
// keys each independent component by its conjuncts'
// solver.FormulaKeys and memoizes Sat answers in a sharded LRU table
// that a Cache can share across concurrent runs. Every layer that asks
// the solver a question (core, sym, symexec, mixy, signs, summary)
// asks it through an engine's pool; a layer whose caller passes no
// engine builds a private one with engine.New(Options{}).
package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mix/internal/fault"
	"mix/internal/obs"
	"mix/internal/solver"
)

// ErrBudget is the sentinel wrapped by errors returned when
// exploration exceeds the engine's path budget. Callers
// detect it with errors.Is and turn it into a graceful
// "budget exhausted" report instead of runaway exploration.
var ErrBudget = errors.New("engine: exploration budget exhausted")

// Options configures an Engine.
type Options struct {
	// Workers is ignored: every check runs on the goroutine that
	// called it.
	//
	// Deprecated: exploration is sequential; leave Workers unset.
	Workers int
	// MaxPaths bounds the total number of paths the engine will agree
	// to fork into existence (0 = unlimited). Charging the budget past
	// the bound returns an error wrapping ErrBudget.
	MaxPaths int64
	// Cache, when non-nil, is a shared cross-run solver cache (see
	// Cache): this run reads and extends it instead of building a
	// private one of the default size, so back-to-back runs skip
	// re-proving formulas an earlier run already decided. The Cache
	// outlives the engine: Close only hands the run's solver back to it.
	Cache *Cache
	// NewSolver is a test seam: it builds the run's solver instance in
	// place of solver.New, so a test can run the pool on
	// solver.NewReference or on tightened resource bounds. It must not
	// be combined with a shared Cache: the memo stores resource-limit
	// unknowns, which hold only for fixed bounds.
	NewSolver func() *solver.Solver
	// Context, when non-nil, governs the whole run: cancellation and
	// deadline expiry are observed cooperatively at fork charges and
	// inside the solver's decision loop, classified as
	// fault.Canceled/fault.Timeout.
	Context context.Context
	// Deadline, when > 0, caps the run's wall-clock time by deriving a
	// deadline context from Context (or Background).
	Deadline time.Duration
	// SolverTimeout, when > 0, additionally caps each individual solver
	// query, so one pathological formula cannot eat the whole deadline.
	SolverTimeout time.Duration
	// FaultInjector, when non-nil, arms the deterministic
	// fault-injection points (chaos tests only).
	FaultInjector *fault.Injector
	// Tracer, when non-nil, records structured fork/join/solve/degrade
	// events for the run (-trace). Nil keeps every instrumented site a
	// single pointer test.
	Tracer *obs.Tracer
	// Metrics, when non-nil, is the run-scoped metrics registry
	// (-metrics / -stats): the solver pipeline registers its stage
	// histograms here, and PublishMetrics mirrors the engine's
	// aggregate counters into it.
	Metrics *obs.Registry
}

// Stats is an aggregated snapshot of engine work.
type Stats struct {
	Paths         int64 // completed paths recorded by executors
	Forks         int64 // conditional forks charged to the engine
	MemoHits      int64
	MemoMisses    int64
	SolverQueries int64 // queries through the pool
	SolverUnknown int64 // queries answered "unknown" (resource bounds)
	SolverTime    time.Duration
	Exhausted     bool           // the path budget was hit
	Faults        fault.Snapshot // classified degradation events absorbed this run

	QuickDecided   int64 // queries/components decided by the interval fast path
	Slices         int64 // independence components that reached memo/search
	SliceConjuncts int64 // total conjuncts across those components
	MaxSlice       int64 // largest component, in conjuncts
	CexHits        int64 // components satisfied by a cached model
}

// Engine carries one check's budgets, fault counters and memoizing
// solver frontend. Construct with New; an Engine belongs to the
// goroutine running its check.
type Engine struct {
	maxPaths int64

	ctx      context.Context
	cancel   context.CancelFunc
	deadline string // budget label for timeout diagnostics, e.g. "deadline=50ms"
	injector *fault.Injector
	faults   fault.Counters
	tracer   *obs.Tracer
	metrics  *obs.Registry

	pool *SolverPool

	paths     int64
	forks     int64
	exhausted bool
}

// New builds an engine from o.
func New(o Options) *Engine {
	e := &Engine{
		maxPaths: o.MaxPaths,
		injector: o.FaultInjector,
		tracer:   o.Tracer,
		metrics:  o.Metrics,
		ctx:      o.Context,
	}
	if e.ctx == nil {
		e.ctx = context.Background()
	}
	if o.Deadline > 0 {
		e.ctx, e.cancel = context.WithTimeout(e.ctx, o.Deadline)
		e.deadline = fmt.Sprintf("deadline=%v", o.Deadline)
	}
	e.pool = newSolverPool(e, o)
	return e
}

// Close releases the engine's deadline timer, if any, and returns the
// run's solver to its Cache.
func (e *Engine) Close() {
	if e.cancel != nil {
		e.cancel()
	}
	e.pool.release()
}

// Context returns the run's context.
func (e *Engine) Context() context.Context { return e.ctx }

// Injector exposes the armed fault-injection points (nil in
// production). Executors visit their own points through it so one
// injector drives the whole stack.
func (e *Engine) Injector() *fault.Injector { return e.injector }

// Faults is the run-wide classified-fault counter. Every layer that
// absorbs an abort into an imprecise result records it here exactly
// once, so -stats can report timeouts / panics recovered / paths
// truncated.
func (e *Engine) Faults() *fault.Counters { return &e.faults }

// Interrupted reports a classified timeout/cancellation fault if the
// run's context is done, nil otherwise. Executors poll it at their
// step boundaries; op names the polling site for diagnostics.
func (e *Engine) Interrupted(op string) error {
	select {
	case <-e.ctx.Done():
		return fault.FromContext(op, e.deadline, e.ctx.Err())
	default:
		return nil
	}
}

// Tracer exposes the run's event tracer (nil when tracing is off; a
// nil tracer and its nil spans are inert).
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// PublishMetrics mirrors the engine's aggregate counters — exploration,
// solver pipeline, fault taxonomy — into the run's metrics registry
// under their canonical dotted names (DESIGN.md section 11). The live
// counters stay plain fields on the hot path; the registry gets a
// point-in-time copy, so calling this again refreshes the published
// values. No-op without a registry.
func (e *Engine) PublishMetrics() {
	m := e.metrics
	if m == nil {
		return
	}
	s := e.Snapshot()
	m.Gauge("engine.paths").Set(s.Paths)
	m.Gauge("engine.forks").Set(s.Forks)
	var ex int64
	if s.Exhausted {
		ex = 1
	}
	m.Gauge("engine.exhausted").Set(ex)
	m.Gauge("solver.memo.hits").Set(s.MemoHits)
	m.Gauge("solver.memo.misses").Set(s.MemoMisses)
	m.Gauge("solver.queries").Set(s.SolverQueries)
	m.Gauge("solver.unknown").Set(s.SolverUnknown)
	m.Gauge("solver.time_ns").Set(int64(s.SolverTime))
	m.Gauge("solver.quick").Set(s.QuickDecided)
	m.Gauge("solver.slices").Set(s.Slices)
	m.Gauge("solver.slice_conjuncts").Set(s.SliceConjuncts)
	m.Gauge("solver.max_slice").Set(s.MaxSlice)
	m.Gauge("solver.cex_hits").Set(s.CexHits)
	for _, c := range fault.Classes() {
		m.Gauge("fault." + c.String()).Set(s.Faults.Of(c))
	}
}

// Sat decides satisfiability through the memoizing pool.
func (e *Engine) Sat(f solver.Formula) (bool, error) { return e.pool.Sat(f) }

// SatPC decides satisfiability of pc ∧ extras through the sliced,
// memoizing pipeline; the shared PC tail makes repeat queries along a
// path incremental.
func (e *Engine) SatPC(pc *solver.PC, extras ...solver.Formula) (bool, error) {
	return e.pool.SatPC(pc, extras...)
}

// FeasiblePCSpan reports whether pc ∧ extras is satisfiable, recording
// the query's verdict and pipeline stages on sp (nil span → metrics
// only). Solver resource exhaustion — and any other solver failure —
// reads as "unknown → keep the path", so budget-limited solving
// conservatively keeps paths and their reports instead of silently
// dropping them.
func (e *Engine) FeasiblePCSpan(sp *obs.Span, pc *solver.PC, extras ...solver.Formula) bool {
	sat, err := e.pool.SatPCSpan(sp, pc, extras...)
	if err != nil {
		return true
	}
	return sat
}

// AddPaths records n completed paths in the aggregate stats.
func (e *Engine) AddPaths(n int) { e.paths += int64(n) }

// Charge accounts for one prospective fork. It returns a classified
// timeout/cancellation fault if the run's context is done, or a
// classified path-budget fault (still wrapping ErrBudget) if the fork
// would exceed the path budget, so executors apply one uniform rule:
// degradable → truncate with imprecision, else abort.
func (e *Engine) Charge() error {
	if err := e.Interrupted("engine.fork"); err != nil {
		return err
	}
	if err := e.injector.At(fault.PreFork); err != nil {
		return err
	}
	// Each binary fork adds one path beyond the initial one.
	if e.maxPaths > 0 && e.forks+2 > e.maxPaths {
		e.exhausted = true
		return fault.New(fault.PathBudget, "engine.fork",
			fmt.Sprintf("max-paths=%d", e.maxPaths),
			fmt.Errorf("path budget %d reached: %w", e.maxPaths, ErrBudget))
	}
	e.forks++
	return nil
}

// protect runs one task with a panic boundary: a panic becomes a
// classified worker-panic fault instead of tearing down the process,
// so the task's sibling keeps its results.
func protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fault.FromPanic("engine.task", r)
		}
	}()
	return fn()
}

// Fork2 runs left and then right — the two branches of a conditional
// fork — on the calling goroutine. The branches deliver their results
// themselves (the symbolic executor appends them to its accumulator in
// branch order). Each branch has its own panic boundary: a panic is
// recovered as a worker-panic fault, and what left delivered survives
// a panic in right. An error from left is returned without running
// right, so the left error always wins.
func Fork2(left, right func() error) error {
	if err := protect(left); err != nil {
		return err
	}
	return protect(right)
}

// Map runs fn(0), ..., fn(n-1) in index order and returns the first
// error, skipping the remaining indices; a panicking call is recovered
// as a worker-panic fault for its index.
func (e *Engine) Map(n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := protect(func() error { return fn(i) }); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot returns the aggregated statistics so far.
func (e *Engine) Snapshot() Stats {
	s := Stats{
		Paths:     e.paths,
		Forks:     e.forks,
		Exhausted: e.exhausted,
		Faults:    e.faults.Snapshot(),
	}
	e.pool.addTo(&s)
	return s
}
