package engine

import (
	"container/list"
	"context"
	"errors"
	"sort"
	"strconv"
	"sync"
	"time"

	"mix/internal/fault"
	"mix/internal/obs"
	"mix/internal/solver"
)

// memoShards is the shard count of the memo table; a small power of
// two keeps per-shard mutexes cheap without contention between the
// concurrent runs that share one Cache.
const memoShards = 16

// defaultMemoSize bounds the memo table when CacheOptions.MemoSize is 0.
const defaultMemoSize = 1 << 14

// cexCacheSize bounds the counterexample (model) cache.
const cexCacheSize = 64

// SolverPool is the engine's solver frontend. Every query runs the
// incremental pipeline
//
//	simplify → interval fast path → independence slicing →
//	per-component memo → counterexample cache → CDCL search
//
// Path conditions arrive as *solver.PC cons lists, so the pipeline
// sees pre-simplified conjuncts with cached support tokens and
// interval state, and pays simplification, support and interval costs
// once per PC node, not once per query. Only the few components that
// reach the memo pay for their key (memoKey).
// Trivial conjunctions (boolean literals and single-variable interval
// guards — the overwhelming majority of branch feasibility checks) are
// decided from the interval state cached on the path condition's
// newest node plus the query's own guard, and never touch the memo
// table or the search core. The remainder is
// sliced into independent components: the long shared prefix of a
// path condition memo-hits component-by-component and only the
// component entangled with the new guard is ever solved fresh, usually
// straight from a cached model.
//
// The cached half of the pipeline (memo, model ring) lives in a Cache,
// which is private to this pool (the default) or shared across runs
// via Options.Cache — the serving daemon's warm path. Like its engine,
// a pool belongs to one goroutine. Construct via New; the zero value
// is not ready.
type SolverPool struct {
	// eng points back at the owning engine for the run context and the
	// fault injector; nil only in direct-pool unit tests.
	eng     *Engine
	timeout time.Duration // per-query solver timeout (0 = none)
	// solver is the run's one CDCL instance, taken at its first search
	// (from the Cache's pool, or built once by newSolver) and kept
	// until release, so its learned clauses and encodings stay warm for
	// the whole run whatever the garbage collector does.
	solver    *solver.Solver
	newSolver func() *solver.Solver
	// cache holds the memo and model state.
	cache *Cache

	// queryHist/dpllHist are per-query and per-fresh-solve duration
	// histograms in the run's metrics registry; nil (inert) when the
	// run has no registry, so the disabled path costs one nil test.
	queryHist *obs.Histogram
	dpllHist  *obs.Histogram

	queries   int64
	quick     int64
	slices    int64
	sliceConj int64
	maxSlice  int64
	cexHits   int64
	hits      int64
	misses    int64
	unknown   int64
	nanos     int64
}

type memoShard struct {
	mu   sync.Mutex
	ents map[string]*list.Element
	lru  *list.List // front = most recently used *memoEntry
}

type memoEntry struct {
	key string
	sat bool
	err error
}

func newSolverPool(e *Engine, o Options) *SolverPool {
	p := &SolverPool{
		eng:       e,
		timeout:   o.SolverTimeout,
		queryHist: o.Metrics.Histogram("solver.query.ns"),
		dpllHist:  o.Metrics.Histogram("solver.dpll.ns"),
		cache:     o.Cache,
		newSolver: o.NewSolver,
	}
	if p.cache == nil {
		p.cache = NewCache(CacheOptions{})
	}
	return p
}

// acquire returns the run's solver, taking it on first use.
func (p *SolverPool) acquire() *solver.Solver {
	if p.solver == nil {
		if p.newSolver != nil {
			p.solver = p.newSolver()
		} else {
			p.solver = p.cache.solvers.Get().(*solver.Solver)
		}
	}
	return p.solver
}

// release hands the run's solver back to the Cache for the next run.
// A solver built by Options.NewSolver is dropped instead: its bounds
// are the test's own.
func (p *SolverPool) release() {
	if p.solver != nil && p.newSolver == nil {
		p.cache.solvers.Put(p.solver)
	}
	p.solver = nil
}

// Cache exposes the pool's cache.
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
// component still refutes the whole conjunction, whatever order the
// components are decided in) but are never memoized. Hard
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
// verdict is deterministic from run to run), pipeline stages as
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
	p.queries++
	// The pre-solve injection point fires per query, before the quick
	// paths: a planned fault must reach callers whose queries would
	// otherwise be interval- or memo-decided.
	if p.eng != nil {
		if err := p.eng.Injector().At(fault.PreSolve); err != nil {
			return false, err
		}
	}
	if pc.Dead() {
		p.quick++
		sp.Stage("quick", "unsat", 0)
		return false, nil
	}
	xs, ok := splitExtras(extras)
	if !ok {
		p.quick++
		sp.Stage("quick", "unsat", 0)
		return false, nil
	}
	// The interval fast path starts from the state cached on pc's
	// newest node and folds in only the extras: its cost is the new
	// guard's, not the path's. The conjunct slice is built only for
	// the few queries it cannot decide.
	if sat, decided := pc.Quick(xs); decided {
		p.quick++
		sp.Stage("quick", verdictOf(sat, nil), 0)
		return sat, nil
	}
	cs := sliceConjuncts(pc, xs)
	fs := make([]solver.Formula, len(cs))
	for i := range cs {
		fs[i] = cs[i].f
	}
	// Capture one cache generation for the whole query: every lookup
	// and store below goes to this snapshot even if the cache is
	// flushed mid-query.
	g := p.cache.cur.Load()
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
			return false, nil
		}
	}
	if firstErr != nil {
		return false, firstErr
	}
	return true, nil
}

// decideComponent resolves one independence component against the g
// cache generation: interval fast path, then the memo table, then the
// counterexample cache, then the disk tier, then a fresh solve by the
// CDCL core.
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
			p.quick++
			sp.Stage("quick", verdictOf(sat, nil), 0)
			return sat, nil
		}
	}
	p.slices++
	p.sliceConj += int64(len(comp))
	p.maxSlice = max(p.maxSlice, int64(len(comp)))

	key := memoKey(sub)
	sh := g.shard(key)
	sh.mu.Lock()
	if el, ok := sh.ents[key]; ok {
		sh.lru.MoveToFront(el)
		ent := el.Value.(*memoEntry)
		sh.mu.Unlock()
		p.hits++
		p.cache.hits.Add(1)
		sp.MemoHit()
		if ent.err != nil {
			p.unknown++
		}
		return ent.sat, ent.err
	}
	sh.mu.Unlock()
	p.misses++
	p.cache.misses.Add(1)

	// Small components only (see slice.go): below the gate a fresh
	// solve always terminates inside its budget, so a cache hit cannot
	// change any verdict — only skip work.
	small := len(comp) <= cexMaxConjuncts && tokens <= cexMaxTokens
	if small {
		if m := g.cex.lookup(solver.Conj(sub...)); m != nil {
			p.cexHits++
			p.cache.cexHits.Add(1)
			sp.CexHit()
			p.memoStore(sh, key, true, nil)
			return true, nil
		}
	}
	// Persistent tier (diskcache.go): definite verdicts saved by an
	// earlier process under the same key. A hit is promoted into this
	// generation's memo so repeats stay in memory.
	if sat, ok := p.cache.diskLookup(key); ok {
		sp.Stage("disk", verdictOf(sat, nil), 0)
		p.memoStore(sh, key, sat, nil)
		return sat, nil
	}

	var tr *obs.Tracer
	var ts int64
	if sp != nil && p.eng != nil {
		tr = p.eng.Tracer()
		ts = tr.Now()
	}
	sat, model, err := p.solve(sub, small)
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
	if err == nil && sat {
		g.cex.add(model) // add ignores nil models (extraction is best-effort)
	}
	if err == nil {
		// Persist only definite verdicts: "unknown" depends on solver
		// bounds, which the disk file may outlive.
		p.cache.diskAdd(key, sat, model)
	}
	return sat, err
}

// memoKey is a component's memo and disk key: its conjuncts'
// solver.FormulaKeys, sorted, deduplicated and length-prefixed. Every
// path that accumulates the same conjuncts, in any order and with any
// repeats, shares one entry, and the length prefixes keep the encoding
// injective: no conjunct's key can forge a boundary.
func memoKey(fs []solver.Formula) string {
	keys := make([]string, len(fs))
	for i, f := range fs {
		keys[i] = solver.FormulaKey(f)
	}
	sort.Strings(keys)
	var b []byte
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			continue
		}
		b = strconv.AppendInt(b, int64(len(k)), 10)
		b = append(b, ':')
		b = append(b, k...)
	}
	return string(b)
}

// memoStore inserts a verdict, dropping the shard's least recently
// used entry when the shard is full.
func (p *SolverPool) memoStore(sh *memoShard, key string, sat bool, err error) {
	sh.mu.Lock()
	if _, ok := sh.ents[key]; !ok {
		sh.ents[key] = sh.lru.PushFront(&memoEntry{key: key, sat: sat, err: err})
		if sh.lru.Len() > p.cache.shardCap {
			old := sh.lru.Back()
			sh.lru.Remove(old)
			delete(sh.ents, old.Value.(*memoEntry).key)
			p.cache.evictions.Add(1)
		}
	}
	sh.mu.Unlock()
}

// solve runs one query on the run's solver, wired to the run context
// (plus the per-query timeout, if configured) and the fault injector
// for the duration of the query. The component's conjuncts are handed
// over as separate assumption formulas, not one flat conjunction: a
// warm CDCL instance has already encoded the shared prefix of the path
// condition, so the query pays only for its new conjunct.
func (p *SolverPool) solve(sub []solver.Formula, wantModel bool) (bool, *solver.Model, error) {
	s := p.acquire()
	// The solver retains learned clauses and encodings across queries
	// and runs (that is the point), but never across cache generations:
	// a flush marks "start over", and the solver follows it.
	if epoch := uint64(p.cache.flushes.Load()); s.Gen != epoch {
		s.Reset()
		s.Gen = epoch
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
	p.nanos += int64(d)
	p.dpllHist.Observe(int64(d))
	// The solver outlives this query, and later the run: it must never
	// carry a stale context or injector into its next one.
	s.Ctx, s.Injector = nil, nil
	if cancel != nil {
		cancel()
	}
	if err != nil && errors.Is(err, solver.ErrLimit) {
		p.unknown++
	}
	return sat, model, err
}

// addTo folds the pool's counters into an engine Stats snapshot.
func (p *SolverPool) addTo(s *Stats) {
	s.MemoHits = p.hits
	s.MemoMisses = p.misses
	s.SolverQueries = p.queries
	s.SolverUnknown = p.unknown
	s.SolverTime = time.Duration(p.nanos)
	s.QuickDecided = p.quick
	s.Slices = p.slices
	s.SliceConjuncts = p.sliceConj
	s.MaxSlice = p.maxSlice
	s.CexHits = p.cexHits
}
