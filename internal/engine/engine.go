// Package engine is the parallel path-exploration runtime shared by
// both symbolic executors (internal/sym and internal/symexec) and by
// MIXY's fixed-point driver.
//
// It has two halves:
//
//   - A work-stealing fork-join scheduler for path exploration. Every
//     conditional fork offers its left (then) branch to a bounded pool
//     of worker slots; if a slot is free the branch runs as an
//     independent task (a "steal") while the forking path continues
//     into the right branch, otherwise both branches run inline on the
//     forking goroutine. Slot acquisition never blocks, so any task
//     can always make progress by itself and the scheme cannot
//     deadlock, while live parallelism stays bounded by the worker
//     count. Joins are ordered — then-results are appended before
//     else-results regardless of completion order — so the canonical
//     (sequential depth-first) result and report order is reproduced
//     exactly.
//
//   - A concurrency-safe memoizing solver frontend (SolverPool): path
//     feasibility queries dominate symbolic-execution wall-clock time
//     (the paper's Section 4.6 timings), and distinct paths re-prove
//     identical formulas. The pool hash-conses formulas into compact
//     keys, memoizes Sat answers in a sharded LRU table, and hands
//     each concurrent query a private *solver.Solver instance, since
//     Solver.Stats mutation makes a shared instance racy.
//
// A nil *Engine everywhere means "sequential, unmemoized" — exactly
// the pre-engine behavior.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mix/internal/fault"
	"mix/internal/obs"
	"mix/internal/solver"
)

// ErrBudget is the sentinel wrapped by errors returned when
// exploration exceeds the engine's path or fork-depth budget. Callers
// detect it with errors.Is and turn it into a graceful
// "budget exhausted" report instead of runaway exploration.
var ErrBudget = errors.New("engine: exploration budget exhausted")

// Options configures an Engine.
type Options struct {
	// Workers is the bound on concurrently running path tasks;
	// <= 0 means GOMAXPROCS. Workers == 1 gives sequential exploration
	// with the memoizing solver pool still active.
	Workers int
	// MaxPaths bounds the total number of paths the engine will agree
	// to fork into existence (0 = unlimited). Charging the budget past
	// the bound returns an error wrapping ErrBudget.
	MaxPaths int64
	// MaxForkDepth bounds the fork depth of any single path
	// (0 = unlimited).
	MaxForkDepth int
	// MemoSize bounds the number of memoized solver answers
	// (0 = default).
	MemoSize int
	// NoMemo disables the Sat/Valid memo table (per-worker solver
	// instances and stats aggregation remain). NoMemo wins over Cache.
	NoMemo bool
	// Cache, when non-nil, is a shared cross-run solver cache (see
	// Cache): this run reads and extends it instead of building a
	// private one, so back-to-back runs skip re-proving formulas an
	// earlier run already decided. The Cache outlives the engine —
	// Close does not touch it. MemoSize is ignored when set (the
	// cache was sized at NewCache).
	Cache *Cache
	// NewSolver is a test seam: it builds the per-worker solver
	// instances in place of solver.New, so a test can run the pool on
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
	Workers       int
	Paths         int64 // completed paths recorded by executors
	Forks         int64 // conditional forks charged to the engine
	Steals        int64 // forks whose left branch ran on another worker
	MemoHits      int64
	MemoMisses    int64
	SolverQueries int64 // queries through the pool
	SolverUnknown int64 // queries answered "unknown" (resource bounds)
	SolverTime    time.Duration
	Exhausted     bool           // a path or depth budget was hit
	Faults        fault.Snapshot // classified degradation events absorbed this run

	QuickDecided   int64 // queries/components decided by the interval fast path
	Slices         int64 // independence components that reached memo/search
	SliceConjuncts int64 // total conjuncts across those components
	MaxSlice       int64 // largest component, in conjuncts
	CexHits        int64 // components satisfied by a cached model
}

// Engine schedules forked symbolic states across a bounded worker pool
// and fronts the solver with a shared memo table. Construct with New;
// an Engine is safe for concurrent use.
type Engine struct {
	workers  int
	maxPaths int64
	maxDepth int

	// ctx holds the run's context.Context boxed in ctxBox (atomic.Value
	// needs one concrete type); atomic so tests can swap a fresh context
	// into a live engine (SetContext) without racing the workers that
	// poll it.
	ctx      atomic.Value
	cancel   context.CancelFunc
	deadline string // budget label for timeout diagnostics, e.g. "deadline=50ms"
	injector *fault.Injector
	faults   fault.Counters
	tracer   *obs.Tracer
	metrics  *obs.Registry

	// slots holds the worker tokens available for stolen branches; the
	// forking goroutine itself is the remaining worker, so capacity is
	// workers-1.
	slots chan struct{}

	pool *SolverPool

	paths     atomic.Int64
	forks     atomic.Int64
	steals    atomic.Int64
	exhausted atomic.Bool

	failMu sync.Mutex
	failed error
}

// New builds an engine from o.
func New(o Options) *Engine {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		workers:  w,
		maxPaths: o.MaxPaths,
		maxDepth: o.MaxForkDepth,
		injector: o.FaultInjector,
		tracer:   o.Tracer,
		metrics:  o.Metrics,
		slots:    make(chan struct{}, w-1),
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Deadline > 0 {
		ctx, e.cancel = context.WithTimeout(ctx, o.Deadline)
		e.deadline = fmt.Sprintf("deadline=%v", o.Deadline)
	}
	e.ctx.Store(ctxBox{ctx})
	e.pool = newSolverPool(e, o)
	return e
}

// ctxBox gives every stored context the same concrete type, which
// atomic.Value requires across stores.
type ctxBox struct{ ctx context.Context }

// Close releases the engine's deadline timer, if any. Safe on nil.
func (e *Engine) Close() {
	if e != nil && e.cancel != nil {
		e.cancel()
	}
}

// Context returns the run's context (Background for a nil engine).
func (e *Engine) Context() context.Context {
	if e == nil {
		return context.Background()
	}
	return e.ctx.Load().(ctxBox).ctx
}

// SetContext swaps the run's context. Tests use this to verify that a
// cancellation verdict was not memoized: cancel, query, swap in a live
// context, query again through the same pool.
func (e *Engine) SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.ctx.Store(ctxBox{ctx})
}

// Injector exposes the armed fault-injection points (nil in
// production). Executors visit their own points through it so one
// injector drives the whole stack.
func (e *Engine) Injector() *fault.Injector {
	if e == nil {
		return nil
	}
	return e.injector
}

// Faults is the run-wide classified-fault counter. Every layer that
// absorbs an abort into an imprecise result records it here exactly
// once, so -stats can report timeouts / panics recovered / paths
// truncated. Nil for a nil engine (a nil *fault.Counters is inert).
func (e *Engine) Faults() *fault.Counters {
	if e == nil {
		return nil
	}
	return &e.faults
}

// Interrupted reports a classified timeout/cancellation fault if the
// run's context is done, nil otherwise. Executors poll it at their
// step boundaries; op names the polling site for diagnostics. Nil-safe.
func (e *Engine) Interrupted(op string) error { return e.ctxErr(op) }

// ctxErr reports a classified fault if the run's context is done.
func (e *Engine) ctxErr(op string) error {
	if e == nil {
		return nil
	}
	ctx := e.Context()
	select {
	case <-ctx.Done():
		return fault.FromContext(op, e.deadline, ctx.Err())
	default:
		return nil
	}
}

// Tracer exposes the run's event tracer (nil when tracing is off or
// the engine is nil; a nil tracer and its nil spans are inert).
func (e *Engine) Tracer() *obs.Tracer {
	if e == nil {
		return nil
	}
	return e.tracer
}

// Metrics exposes the run-scoped metrics registry (nil when metrics
// are off or the engine is nil; a nil registry hands out inert
// handles).
func (e *Engine) Metrics() *obs.Registry {
	if e == nil {
		return nil
	}
	return e.metrics
}

// PublishMetrics mirrors the engine's aggregate counters — scheduler,
// solver pipeline, fault taxonomy — into the run's metrics registry
// under their canonical dotted names (DESIGN.md section 11). The live
// instruments stay lock-free atomics on the hot path; the registry
// gets a point-in-time copy, so calling this again refreshes the
// published values. No-op without a registry.
func (e *Engine) PublishMetrics() {
	if e == nil || e.metrics == nil {
		return
	}
	m := e.metrics
	s := e.Snapshot()
	m.Gauge("engine.workers").Set(int64(s.Workers))
	m.Gauge("engine.paths").Set(s.Paths)
	m.Gauge("engine.forks").Set(s.Forks)
	m.Gauge("engine.steals").Set(s.Steals)
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

// Workers reports the worker bound.
func (e *Engine) Workers() int { return e.workers }

// Pool exposes the memoizing solver frontend.
func (e *Engine) Pool() *SolverPool { return e.pool }

// Sat decides satisfiability through the memoizing pool.
func (e *Engine) Sat(f solver.Formula) (bool, error) { return e.pool.Sat(f) }

// Valid decides validity through the memoizing pool.
func (e *Engine) Valid(f solver.Formula) (bool, error) { return e.pool.Valid(f) }

// SatPC decides satisfiability of pc ∧ extras through the sliced,
// memoizing pipeline; the shared PC tail makes repeat queries along a
// path incremental.
func (e *Engine) SatPC(pc *solver.PC, extras ...solver.Formula) (bool, error) {
	return e.pool.SatPC(pc, extras...)
}

// Feasible reports whether f is satisfiable, treating solver resource
// exhaustion — and any other solver failure — as "unknown → keep the
// path", so budget-limited solving conservatively keeps paths and
// their reports instead of silently dropping them.
func (e *Engine) Feasible(f solver.Formula) bool {
	sat, err := e.pool.Sat(f)
	if err != nil {
		return true
	}
	return sat
}

// FeasiblePC is Feasible over an incremental path condition plus extra
// guards (same unknown → keep-path policy).
func (e *Engine) FeasiblePC(pc *solver.PC, extras ...solver.Formula) bool {
	sat, err := e.pool.SatPC(pc, extras...)
	if err != nil {
		return true
	}
	return sat
}

// FeasiblePCSpan is FeasiblePC with the query's verdict and pipeline
// stages recorded on sp (nil span → metrics only).
func (e *Engine) FeasiblePCSpan(sp *obs.Span, pc *solver.PC, extras ...solver.Formula) bool {
	sat, err := e.pool.SatPCSpan(sp, pc, extras...)
	if err != nil {
		return true
	}
	return sat
}

// AddPaths records n completed paths in the aggregate stats.
func (e *Engine) AddPaths(n int) {
	if e == nil {
		return
	}
	e.paths.Add(int64(n))
}

// Charge accounts for one prospective fork at the given depth. It
// returns the first fatal error if the run is cancelled, a classified
// timeout/cancellation fault if the run's context is done, or a
// classified path-budget fault (still wrapping ErrBudget) if the fork
// would exceed the path or depth budget. Every non-nil return is
// fault-classified except a prior hard failure, so executors apply one
// uniform rule: degradable → truncate with imprecision, else abort. A
// nil engine has no budgets.
func (e *Engine) Charge(depth int) error {
	if e == nil {
		return nil
	}
	if err := e.bail(); err != nil {
		return err
	}
	if err := e.ctxErr("engine.fork"); err != nil {
		return err
	}
	if err := e.injector.At(fault.PreFork); err != nil {
		return err
	}
	if e.maxDepth > 0 && depth >= e.maxDepth {
		e.exhausted.Store(true)
		return fault.New(fault.PathBudget, "engine.fork",
			fmt.Sprintf("max-fork-depth=%d", e.maxDepth),
			fmt.Errorf("fork depth %d reached: %w", depth, ErrBudget))
	}
	n := e.forks.Add(1)
	// Each binary fork adds one path beyond the initial one.
	if e.maxPaths > 0 && n+1 > e.maxPaths {
		e.forks.Add(-1)
		e.exhausted.Store(true)
		return fault.New(fault.PathBudget, "engine.fork",
			fmt.Sprintf("max-paths=%d", e.maxPaths),
			fmt.Errorf("path budget %d reached: %w", e.maxPaths, ErrBudget))
	}
	return nil
}

// fail records the first fatal error; later tasks observe it via bail
// and unwind instead of continuing to explore. Classified faults are
// not fatal — they degrade locally and must not make unrelated sibling
// paths abandon their (sound, partial) results — so they are never
// recorded here.
func (e *Engine) fail(err error) {
	if fault.Degradable(err) {
		return
	}
	e.failMu.Lock()
	if e.failed == nil {
		e.failed = err
	}
	e.failMu.Unlock()
}

// bail returns the recorded first fatal error, if any.
func (e *Engine) bail() error {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failed
}

// protect runs one task with a panic boundary: a panic becomes a
// classified worker-panic fault instead of tearing down the process,
// so sibling paths drain and their partial results still merge.
func protect[T any](fn func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fault.FromPanic("engine.task", r)
		}
	}()
	return fn()
}

// Fork2 runs left and right — the two branches of a conditional fork —
// and returns both results in branch order. If a worker slot is free,
// left is handed to it (a steal) while the caller runs right;
// otherwise both run inline. Error handling is deterministic: left's
// error wins over right's, as it would sequentially. A hard first
// error also cancels the engine, making sibling tasks unwind early;
// classified faults (budget, timeout, recovered panic) do not — they
// degrade locally at the caller. Panics inside either branch are
// recovered as worker-panic faults. A nil engine runs left then right
// on the calling goroutine, with the same panic boundary.
//
// (A package-level generic function rather than a method, since Go
// methods cannot introduce type parameters.)
func Fork2[T any](e *Engine, left, right func() (T, error)) (lv, rv T, err error) {
	if e == nil {
		if lv, err = protect(left); err != nil {
			return
		}
		rv, err = protect(right)
		return
	}
	if err = e.bail(); err != nil {
		return
	}
	select {
	case e.slots <- struct{}{}:
		e.steals.Add(1)
		var lerr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer func() { <-e.slots }()
			lv, lerr = protect(left)
		}()
		var rerr error
		rv, rerr = protect(right)
		<-done
		if lerr != nil {
			err = lerr
		} else {
			err = rerr
		}
	default:
		if lv, err = protect(left); err == nil {
			rv, err = protect(right)
		}
	}
	if err != nil {
		e.fail(err)
	}
	return
}

// protectIdx is protect for Map's indexed tasks.
func protectIdx(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fault.FromPanic("engine.task", r)
		}
	}()
	return fn(i)
}

// Map runs fn(0), ..., fn(n-1) across the worker pool and returns the
// error of the lowest failing index (matching what a sequential loop
// would surface); a panicking task is recovered as a worker-panic
// fault for its index. All calls complete before Map returns; result
// ordering is the caller's, via the index.
func (e *Engine) Map(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if e == nil || e.workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := protectIdx(fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		errIdx   = n
		firstErr error
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := protectIdx(fn, i); err != nil {
				mu.Lock()
				if i < errIdx {
					errIdx, firstErr = i, err
				}
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
spawn:
	for helpers := 0; helpers < e.workers-1 && helpers < n-1; helpers++ {
		select {
		case e.slots <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-e.slots }()
				work()
			}()
		default:
			break spawn
		}
	}
	work()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}

// Snapshot returns the aggregated statistics so far.
func (e *Engine) Snapshot() Stats {
	if e == nil {
		return Stats{}
	}
	s := Stats{
		Workers:   e.workers,
		Paths:     e.paths.Load(),
		Forks:     e.forks.Load(),
		Steals:    e.steals.Load(),
		Exhausted: e.exhausted.Load(),
		Faults:    e.faults.Snapshot(),
	}
	e.pool.addTo(&s)
	return s
}
