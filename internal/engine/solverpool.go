package engine

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"mix/internal/fault"
	"mix/internal/obs"
	"mix/internal/solver"
)

// memoShards is the shard count of the memo table; a small power of
// two keeps per-shard mutexes cheap without contention at the worker
// counts the scheduler runs.
const memoShards = 16

// defaultMemoSize bounds the memo table when Options.MemoSize is 0.
const defaultMemoSize = 1 << 14

// cexCacheSize bounds the counterexample (model) cache.
const cexCacheSize = 64

// SolverPool is the engine's concurrency-safe solver frontend. Every
// query runs the incremental pipeline
//
//	simplify → interval fast path → independence slicing →
//	per-component memo → counterexample cache → CDCL search
//
// Path conditions arrive as *solver.PC cons lists, so the pipeline
// sees pre-simplified conjuncts with cached support tokens and
// interval state, and only ever pays per-conjunct costs once per PC
// node, not once per query.
// Trivial conjunctions (boolean literals and single-variable interval
// guards — the overwhelming majority of branch feasibility checks) are
// decided from the interval state cached on the path condition's
// newest node plus the query's own guard, and never touch the memo
// table, the hash-cons table, or the search core. The remainder is
// sliced into independent components: the long shared prefix of a
// path condition memo-hits component-by-component and only the
// component entangled with the new guard is ever solved fresh, usually
// straight from a cached model.
//
// The cached half of the pipeline (intern table, memo, model ring) now
// lives in a Cache, which may be private to this pool (the default) or
// shared across runs via Options.Cache — the serving daemon's warm
// path. Construct via New; the zero value is not ready.
type SolverPool struct {
	// eng points back at the owning engine for the run context and the
	// fault injector; nil only in direct-pool unit tests.
	eng     *Engine
	timeout time.Duration // per-query solver timeout (0 = none)
	solvers *sync.Pool
	// cache holds the memo/hash-cons/model state; nil when memoization
	// is disabled (Options.NoMemo).
	cache  *Cache
	shared bool // cache arrived via Options.Cache (lifetime not ours)

	// queryHist/dpllHist are per-query and per-fresh-solve duration
	// histograms in the run's metrics registry; nil (inert) when the
	// run has no registry, so the disabled path costs one nil test.
	queryHist *obs.Histogram
	dpllHist  *obs.Histogram

	queries   atomic.Int64
	quick     atomic.Int64
	slices    atomic.Int64
	sliceConj atomic.Int64
	maxSlice  atomic.Int64
	cexHits   atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	unknown   atomic.Int64
	nanos     atomic.Int64
}

type memoShard struct {
	mu   sync.Mutex
	ents map[uint64]*list.Element
	lru  *list.List // front = most recently used *memoEntry
}

type memoEntry struct {
	key uint64
	sat bool
	err error
}

func newSolverPool(e *Engine, o Options) *SolverPool {
	p := &SolverPool{
		eng:       e,
		timeout:   o.SolverTimeout,
		queryHist: o.Metrics.Histogram("solver.query.ns"),
		dpllHist:  o.Metrics.Histogram("solver.dpll.ns"),
	}
	switch {
	case o.NoMemo:
		// No cached state at all: per-worker solver instances and
		// stats aggregation remain.
	case o.Cache != nil:
		p.cache, p.shared = o.Cache, true
	default:
		p.cache = NewCache(CacheOptions{MemoSize: o.MemoSize})
	}
	// The cache owns the warm per-worker solver instances, unless a
	// test substitutes its own through Options.NewSolver.
	if p.cache != nil && o.NewSolver == nil {
		p.solvers = &p.cache.solvers
	} else {
		factory := o.NewSolver
		if factory == nil {
			factory = solver.New
		}
		p.solvers = &sync.Pool{New: func() any { return factory() }}
	}
	return p
}

// Cache exposes the pool's cache (nil when memoization is disabled).
func (p *SolverPool) Cache() *Cache { return p.cache }

// Sat decides satisfiability of f through the sliced pipeline.
func (p *SolverPool) Sat(f solver.Formula) (bool, error) {
	return p.SatPC(nil, f)
}

// Valid decides validity of f. It is implemented as Sat of the
// negation so that the executors' direct Sat(¬f) queries and Valid(f)
// share one memo entry.
func (p *SolverPool) Valid(f solver.Formula) (bool, error) {
	sat, err := p.Sat(solver.NewNot(f))
	if err != nil {
		return false, err
	}
	return !sat, nil
}

// SatPC decides satisfiability of pc ∧ extras. "Unknown" answers
// (solver resource exhaustion, wrapping solver.ErrLimit) are memoized
// per component: they are deterministic for fixed solver bounds, and
// re-running them would only rediscover the same exhaustion. Faults —
// timeouts, cancellations, injected errors — are transient, so they
// continue to the remaining components (a definite UNSAT from any
// component still refutes the whole conjunction, which keeps verdicts
// deterministic across worker counts) but are never memoized. Hard
// errors are returned immediately, unmemoized.
func (p *SolverPool) SatPC(pc *solver.PC, extras ...solver.Formula) (bool, error) {
	return p.SatPCSpan(nil, pc, extras...)
}

// verdictOf renders a pipeline outcome as the trace verdict
// vocabulary: sat / unsat / unknown (resource bound) / error.
func verdictOf(sat bool, err error) string {
	switch {
	case err == nil && sat:
		return "sat"
	case err == nil:
		return "unsat"
	case errors.Is(err, solver.ErrLimit):
		return "unknown"
	default:
		return "error"
	}
}

// SatPCSpan is SatPC with observability attached to sp: the query's
// final verdict is recorded as a solve event (both trace modes — the
// verdict is deterministic across worker counts), pipeline stages as
// timing-mode stage/memo-hit/cex-hit events, and the per-query
// duration in the solver.query.ns histogram. A nil span records
// metrics only; a nil span and nil registry cost two nil tests.
func (p *SolverPool) SatPCSpan(sp *obs.Span, pc *solver.PC, extras ...solver.Formula) (bool, error) {
	var t0 time.Time
	if p.queryHist != nil {
		t0 = time.Now()
	}
	var tr *obs.Tracer
	var ts int64
	if sp != nil && p.eng != nil {
		tr = p.eng.Tracer()
		ts = tr.Now()
	}
	sat, err := p.satPC(sp, pc, extras)
	if p.queryHist != nil {
		p.queryHist.Observe(int64(time.Since(t0)))
	}
	if sp != nil {
		sp.Solve(verdictOf(sat, err), tr.Now()-ts)
	}
	return sat, err
}

// satPC is the undecorated pipeline body behind SatPC/SatPCSpan.
func (p *SolverPool) satPC(sp *obs.Span, pc *solver.PC, extras []solver.Formula) (bool, error) {
	p.queries.Add(1)
	// The pre-solve injection point fires per query, before the quick
	// paths: a planned fault must reach callers whose queries would
	// otherwise be interval- or memo-decided.
	if p.eng != nil {
		if err := p.eng.Injector().At(fault.PreSolve); err != nil {
			return false, err
		}
	}
	if pc.Dead() {
		p.quick.Add(1)
		sp.Stage("quick", "unsat", 0)
		return false, nil
	}
	xs, ok := splitExtras(extras)
	if !ok {
		p.quick.Add(1)
		sp.Stage("quick", "unsat", 0)
		return false, nil
	}
	// The interval fast path starts from the state cached on pc's
	// newest node and folds in only the extras: its cost is the new
	// guard's, not the path's. The conjunct slice is built only for
	// the few queries it cannot decide.
	if sat, decided := pc.Quick(xs); decided {
		p.quick.Add(1)
		sp.Stage("quick", verdictOf(sat, nil), 0)
		return sat, nil
	}
	cs := sliceConjuncts(pc, xs)
	fs := make([]solver.Formula, len(cs))
	for i := range cs {
		fs[i] = cs[i].f
	}
	// Capture one cache generation for the whole query: every interned
	// id, memo key, lookup and store below is internally consistent
	// against this snapshot even if the cache is flushed mid-query.
	g := p.cache.gen()
	var firstErr error
	for _, comp := range components(cs) {
		sat, err := p.decideComponent(sp, g, cs, fs, comp)
		if err != nil && !errors.Is(err, solver.ErrLimit) && !fault.Degradable(err) {
			return false, err
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !sat {
			p.cache.maybeEvict()
			return false, nil
		}
	}
	p.cache.maybeEvict()
	if firstErr != nil {
		return false, firstErr
	}
	return true, nil
}

// decideComponent resolves one independence component against the g
// cache generation: interval fast path, then the memo table, then the
// counterexample cache, then a fresh (small) solve by the search core
// (CDCL by default). g is nil when memoization is disabled.
func (p *SolverPool) decideComponent(sp *obs.Span, g *cacheGen, cs []conjunct, fs []solver.Formula, comp []int) (bool, error) {
	sub := make([]solver.Formula, len(comp))
	tokens := 0
	for i, idx := range comp {
		sub[i] = fs[idx]
		tokens += len(cs[idx].support)
	}
	// The whole-query fast path failed, but an individual component —
	// typically everything except the one holding an App term — may
	// still be interval-decidable.
	if len(comp) < len(cs) {
		if sat, decided := solver.QuickConj(sub); decided {
			p.quick.Add(1)
			sp.Stage("quick", verdictOf(sat, nil), 0)
			return sat, nil
		}
	}
	p.slices.Add(1)
	p.sliceConj.Add(int64(len(comp)))
	for {
		max := p.maxSlice.Load()
		if int64(len(comp)) <= max || p.maxSlice.CompareAndSwap(max, int64(len(comp))) {
			break
		}
	}

	var key uint64
	var sh *memoShard
	if g != nil {
		ids := make([]uint64, len(comp))
		for i, idx := range comp {
			ids[i] = conjunctID(g, &cs[idx])
		}
		key = g.cons.conjID(ids)
		sh = &g.memo[key%memoShards]
		sh.mu.Lock()
		if el, ok := sh.ents[key]; ok {
			sh.lru.MoveToFront(el)
			ent := el.Value.(*memoEntry)
			sh.mu.Unlock()
			p.hits.Add(1)
			p.cache.hits.Add(1)
			sp.MemoHit()
			if ent.err != nil {
				p.unknown.Add(1)
			}
			return ent.sat, ent.err
		}
		sh.mu.Unlock()
		p.misses.Add(1)
		p.cache.misses.Add(1)
	}

	conj := solver.Conj(sub...)
	// Small components only (see slice.go): below the gate a fresh
	// solve always terminates inside its budget, so a cache hit cannot
	// change any verdict — only skip work.
	small := len(comp) <= cexMaxConjuncts && tokens <= cexMaxTokens
	if small && g != nil {
		if m := g.cex.lookup(conj); m != nil {
			p.cexHits.Add(1)
			p.cache.cexHits.Add(1)
			sp.CexHit()
			p.memoStore(sh, key, true, nil)
			return true, nil
		}
	}
	// Persistent tier (diskcache.go): definite verdicts saved by an
	// earlier process, keyed by the conjunction's canonical key, which
	// is built only when the cache has a disk tier. A hit is promoted
	// into this generation's memo so repeats stay in memory.
	var diskKey string
	if g != nil && p.cache.disk != nil {
		diskKey = solver.FormulaKey(conj)
		if sat, ok := p.cache.diskLookup(diskKey); ok {
			sp.Stage("disk", verdictOf(sat, nil), 0)
			p.memoStore(sh, key, sat, nil)
			return sat, nil
		}
	}

	var tr *obs.Tracer
	var ts int64
	if sp != nil && p.eng != nil {
		tr = p.eng.Tracer()
		ts = tr.Now()
	}
	sat, model, err := p.solve(sub, small && g != nil)
	if sp != nil {
		sp.Stage("search", verdictOf(sat, err), tr.Now()-ts)
	}
	// Memoize definite answers and plain resource exhaustion — both are
	// deterministic for fixed bounds. Never memoize faults (timeouts,
	// cancellations, injections): they depend on wall clock or the
	// injection schedule, and caching one would turn a transient abort
	// into a permanent wrong verdict.
	if err == nil || (errors.Is(err, solver.ErrLimit) && fault.Of(err) == nil) {
		p.memoStore(sh, key, sat, err)
	}
	if err == nil && sat && g != nil {
		g.cex.add(model) // add ignores nil models (extraction is best-effort)
	}
	if err == nil && diskKey != "" {
		// Persist only definite verdicts: "unknown" depends on solver
		// bounds, which the disk file may outlive.
		p.cache.diskAdd(diskKey, sat, model)
	}
	return sat, err
}

// conjunctID returns the hash-cons id of a conjunct in generation g,
// via the per-PC-node cache when the conjunct came from a path
// condition.
func conjunctID(g *cacheGen, c *conjunct) uint64 {
	if c.node == 0 {
		return g.cons.formulaID(c.f)
	}
	g.pcMu.RLock()
	id, ok := g.pcIDs[c.node]
	g.pcMu.RUnlock()
	if ok {
		return id
	}
	id = g.cons.formulaID(c.f)
	g.pcMu.Lock()
	g.pcIDs[c.node] = id
	g.pcMu.Unlock()
	return id
}

// memoStore inserts a verdict; sh is nil when memoization is off.
func (p *SolverPool) memoStore(sh *memoShard, key uint64, sat bool, err error) {
	if sh == nil {
		return
	}
	sh.mu.Lock()
	if _, ok := sh.ents[key]; !ok {
		sh.ents[key] = sh.lru.PushFront(&memoEntry{key: key, sat: sat, err: err})
		if sh.lru.Len() > p.cache.shardCap {
			old := sh.lru.Back()
			sh.lru.Remove(old)
			delete(sh.ents, old.Value.(*memoEntry).key)
		}
	}
	sh.mu.Unlock()
}

// solve runs one query on a pooled per-worker solver instance, wired
// to the run context (plus the per-query timeout, if configured) and
// the fault injector for the duration of the query. The component's
// conjuncts are handed over as separate assumption formulas, not one
// flat conjunction: a warm CDCL instance has already encoded the
// shared prefix of the path condition, so the query pays only for its
// new conjunct.
func (p *SolverPool) solve(sub []solver.Formula, wantModel bool) (bool, *solver.Model, error) {
	s := p.solvers.Get().(*solver.Solver)
	// A pooled instance retains learned clauses and encodings across
	// queries (that is the point), but never across cache generations:
	// a flush marks "start over", and the solver follows it.
	if p.cache != nil {
		if epoch := uint64(p.cache.flushes.Load()); s.Gen != epoch {
			s.Reset()
			s.Gen = epoch
		}
	}
	var cancel context.CancelFunc
	if p.eng != nil {
		ctx := p.eng.Context()
		if p.timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, p.timeout)
		}
		s.Ctx, s.Injector = ctx, p.eng.Injector()
	}
	t0 := time.Now()
	var (
		sat   bool
		model *solver.Model
		err   error
	)
	if wantModel {
		sat, model, err = s.SatAssumingModel(sub...)
	} else {
		sat, err = s.SatAssuming(sub...)
	}
	d := time.Since(t0)
	p.nanos.Add(int64(d))
	p.dpllHist.Observe(int64(d))
	// Reset before Put: a pooled instance must never carry a stale
	// context or injector into its next borrower.
	s.Ctx, s.Injector = nil, nil
	if cancel != nil {
		cancel()
	}
	p.solvers.Put(s)
	if err != nil && errors.Is(err, solver.ErrLimit) {
		p.unknown.Add(1)
	}
	return sat, model, err
}

// addTo folds the pool's counters into an engine Stats snapshot.
func (p *SolverPool) addTo(s *Stats) {
	s.MemoHits = p.hits.Load()
	s.MemoMisses = p.misses.Load()
	s.SolverQueries = p.queries.Load()
	s.SolverUnknown = p.unknown.Load()
	s.SolverTime = time.Duration(p.nanos.Load())
	s.QuickDecided = p.quick.Load()
	s.Slices = p.slices.Load()
	s.SliceConjuncts = p.sliceConj.Load()
	s.MaxSlice = p.maxSlice.Load()
	s.CexHits = p.cexHits.Load()
}
