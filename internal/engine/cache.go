package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"mix/internal/solver"
)

// defaultConsLimit bounds the hash-cons intern table of a Cache before
// a generation flush reclaims it (CacheOptions.ConsLimit = 0). The
// intern table is the only grow-only structure in the pipeline — the
// memo shards are LRU-bounded and the counterexample ring is fixed —
// so its size is the trigger for whole-cache eviction.
const defaultConsLimit = 1 << 18

// CacheOptions configures a cross-run Cache.
type CacheOptions struct {
	// MemoSize bounds the number of memoized solver verdicts
	// (0 = default, 16384), spread across the memo shards as an LRU
	// per shard.
	MemoSize int
	// ConsLimit bounds the hash-cons intern table (and, transitively,
	// the per-PC-node id cache): when a query pushes the table past
	// the limit the whole generation — intern table, memo, model
	// cache, PC ids — is dropped and rebuilt warm from subsequent
	// traffic. 0 = default (262144 nodes).
	ConsLimit int
	// Dir, when non-empty, backs the cache with a persistent tier
	// (diskcache.go): definite verdicts and counterexample models are
	// loaded from dir at construction and written back on Persist.
	// The disk tier survives Flush — flushing drops the in-memory
	// generation, not the cross-run store.
	Dir string
}

// Cache is the warm, cross-run half of the solver pipeline: the
// hash-cons intern table, the sharded memo of Sat verdicts, the
// counterexample (model) ring, the per-PC-node conjunct-id cache, and
// the pool of per-worker solver instances. A Cache outlives any single
// Engine: construct one with NewCache, pass it to every run via
// Options.Cache (or mix.Config.Cache / mix.CConfig.Cache), and
// back-to-back runs skip re-proving every formula an earlier run
// already decided. cmd/mixd shares one Cache across all requests —
// cache warmth is the daemon's whole reason to exist.
//
// Sharing is sound because a hit can only skip work, never change a
// verdict: definite sat/unsat answers and deterministic resource
// exhaustion are the only memoized outcomes (timeouts, cancellations
// and injected faults never enter the table — solverpool.go), and the
// counterexample ring is consulted only below the smallness gate where
// a fresh solve always terminates identically. TestCacheWarmColdIdentical
// pins byte-identical results warm vs cold.
//
// Eviction is generational: the intern table assigns dense ids that
// memo keys are built from, so entries cannot be evicted one by one —
// instead, when the table passes ConsLimit (or Flush is called) the
// current generation is atomically swapped for an empty one.
// In-flight queries keep the generation they started on (ids, memo
// keys and stores stay internally consistent against one snapshot) and
// it is garbage-collected when they drain. All methods are safe for
// concurrent use, including Flush under load.
type Cache struct {
	memoSize  int
	shardCap  int
	consLimit int
	solvers   sync.Pool
	cur       atomic.Pointer[cacheGen]
	disk      *diskStore // nil without CacheOptions.Dir

	// Lifetime counters, across every engine and generation that ever
	// used this cache — the daemon's warm-vs-cold observability.
	hits        atomic.Int64
	misses      atomic.Int64
	cexHits     atomic.Int64
	flushes     atomic.Int64
	evictions   atomic.Int64
	diskHits    atomic.Int64
	diskCorrupt atomic.Int64
}

// cacheGen is one immutable-identity generation of the cache's data
// structures. Queries capture a *cacheGen once and do all interning,
// lookups and stores against it, so a concurrent flush can never mix
// id namespaces.
type cacheGen struct {
	cons consTable
	memo []memoShard
	cex  *cexCache

	// pcIDs caches the hash-cons id of each PC node's conjunct, keyed
	// by solver.PC.ID (nodes are immutable), which keeps no path
	// condition alive. Bounded by the generation's lifetime: a flush
	// drops it with the intern table it indexes into.
	pcMu  sync.RWMutex
	pcIDs map[uint64]uint64
}

// NewCache builds an empty cache from o.
func NewCache(o CacheOptions) *Cache {
	size := o.MemoSize
	if size <= 0 {
		size = defaultMemoSize
	}
	limit := o.ConsLimit
	if limit <= 0 {
		limit = defaultConsLimit
	}
	c := &Cache{
		memoSize:  size,
		shardCap:  (size + memoShards - 1) / memoShards,
		consLimit: limit,
		solvers:   sync.Pool{New: func() any { return solver.New() }},
	}
	if o.Dir != "" {
		disk, err := openDiskStore(o.Dir)
		if err != nil {
			// Corrupt or stale file: count the fault and start cold;
			// the next Persist overwrites the bad file.
			c.diskCorrupt.Add(1)
		}
		c.disk = disk
	}
	c.cur.Store(c.newGen())
	return c
}

func (c *Cache) newGen() *cacheGen {
	g := &cacheGen{
		cons:  newConsTable(),
		memo:  make([]memoShard, memoShards),
		cex:   newCexCache(cexCacheSize),
		pcIDs: map[uint64]uint64{},
	}
	for i := range g.memo {
		g.memo[i] = memoShard{ents: map[uint64]*list.Element{}, lru: list.New()}
	}
	if c.disk != nil {
		// Seed the fresh generation's counterexample ring with the
		// persisted models; each is still re-checked against its query
		// before being trusted (cexCache.lookup evaluates the model).
		for _, m := range c.disk.snapshotModels() {
			g.cex.add(m)
		}
	}
	return g
}

// gen returns the current generation (nil receiver → nil, meaning
// memoization is off).
func (c *Cache) gen() *cacheGen {
	if c == nil {
		return nil
	}
	return c.cur.Load()
}

// Flush atomically replaces every cached structure with an empty
// generation: the next query starts cold. In-flight queries finish
// against the old generation. Safe under concurrent load; the
// daemon's /flush endpoint calls this.
func (c *Cache) Flush() {
	if c == nil {
		return
	}
	c.cur.Store(c.newGen())
	c.flushes.Add(1)
}

// maybeEvict flushes the cache when the current generation's intern
// table has outgrown the limit. Called once per query on the slow
// path, so the size probe (one mutex acquisition) is amortized against
// a search or memo lookup.
func (c *Cache) maybeEvict() {
	if c == nil {
		return
	}
	g := c.cur.Load()
	if g.cons.size() <= c.consLimit {
		return
	}
	// CAS-free double-check under a fresh load: losing a race just
	// means someone else already swapped the generation.
	if c.cur.CompareAndSwap(g, c.newGen()) {
		c.evictions.Add(1)
		c.flushes.Add(1)
	}
}

// CacheStats is a point-in-time reading of a Cache: sizes of the
// current generation plus lifetime hit/flush counters.
type CacheStats struct {
	// MemoEntries / ConsEntries / PCEntries size the current
	// generation: memoized verdicts, interned formula/term nodes, and
	// cached PC-node ids.
	MemoEntries int
	ConsEntries int
	PCEntries   int
	// MemoHits / MemoMisses / CexHits accumulate across the cache's
	// whole lifetime (every engine, every generation) — the serving
	// layer's warm-vs-cold signal. Per-run figures stay on the
	// engine's own Stats.
	MemoHits   int64
	MemoMisses int64
	CexHits    int64
	// Flushes counts generation swaps (explicit Flush + evictions);
	// Evictions counts only the swaps forced by ConsLimit.
	Flushes   int64
	Evictions int64
	// DiskEntries / DiskHits / DiskCorrupt describe the persistent
	// tier (zero without CacheOptions.Dir): persisted verdicts,
	// lifetime hits answered from disk, and files or entries that
	// failed integrity checks (degraded to recompute).
	DiskEntries int
	DiskHits    int64
	DiskCorrupt int64
}

// Stats reads the cache. Safe for concurrent use; zero value on nil.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	g := c.cur.Load()
	s := CacheStats{
		ConsEntries: g.cons.size(),
		MemoHits:    c.hits.Load(),
		MemoMisses:  c.misses.Load(),
		CexHits:     c.cexHits.Load(),
		Flushes:     c.flushes.Load(),
		Evictions:   c.evictions.Load(),
	}
	for i := range g.memo {
		sh := &g.memo[i]
		sh.mu.Lock()
		s.MemoEntries += len(sh.ents)
		sh.mu.Unlock()
	}
	g.pcMu.RLock()
	s.PCEntries = len(g.pcIDs)
	g.pcMu.RUnlock()
	if c.disk != nil {
		s.DiskEntries = c.disk.size()
	}
	s.DiskHits = c.diskHits.Load()
	s.DiskCorrupt = c.diskCorrupt.Load()
	return s
}

// diskLookup consults the persistent tier (nil-safe; a miss when no
// Dir was configured).
func (c *Cache) diskLookup(key string) (sat, ok bool) {
	if c == nil || c.disk == nil {
		return false, false
	}
	sat, ok = c.disk.lookup(key)
	if ok {
		c.diskHits.Add(1)
	}
	return sat, ok
}

// diskAdd records a definite verdict (and model, when sat produced
// one) in the persistent tier. Nil-safe no-op without a Dir.
func (c *Cache) diskAdd(key string, sat bool, model *solver.Model) {
	if c == nil || c.disk == nil {
		return
	}
	c.disk.add(key, sat, model)
}

// Persist writes the persistent tier back to its directory. Call at
// the end of a CLI run or on daemon drain; a memory-only cache (no
// CacheOptions.Dir) is a no-op. Safe under concurrent queries.
func (c *Cache) Persist() error {
	if c == nil || c.disk == nil {
		return nil
	}
	return c.disk.persist()
}
