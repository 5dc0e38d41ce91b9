package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"mix/internal/solver"
)

// CacheOptions configures a cross-run Cache.
type CacheOptions struct {
	// MemoSize bounds the number of memoized solver verdicts
	// (0 = default, 16384), spread across the memo shards as an LRU
	// per shard. It is the memo's only bound: each entry dropped to
	// respect it counts in CacheStats.Evictions.
	MemoSize int
	// Dir, when non-empty, backs the cache with a persistent tier
	// (diskcache.go): definite verdicts and counterexample models are
	// loaded from dir at construction and written back on Persist.
	// The disk tier survives Flush — flushing drops the in-memory
	// generation, not the cross-run store.
	Dir string
}

// Cache is the warm, cross-run half of the solver pipeline: the
// sharded memo of Sat verdicts, the counterexample (model) ring, and
// the pool of per-worker solver instances. A Cache outlives any single
// Engine: construct one with NewCache, pass it to every run via
// Options.Cache (or mix.Config.Cache / mix.CConfig.Cache), and
// back-to-back runs skip re-proving every formula an earlier run
// already decided. An engine without one builds a private Cache, so
// every query takes the same cached path. cmd/mixd shares one Cache
// across all requests — cache warmth is the daemon's whole reason to
// exist.
//
// Sharing is sound because a hit can only skip work, never change a
// verdict: definite sat/unsat answers and deterministic resource
// exhaustion are the only memoized outcomes (timeouts, cancellations
// and injected faults never enter the table — solverpool.go), and the
// counterexample ring is consulted only below the smallness gate where
// a fresh solve always terminates identically. TestCacheWarmColdIdentical
// pins byte-identical results warm vs cold.
//
// Memo keys are built from solver.FormulaKey (memoKey), the same
// encoding the disk tier, Simplify and the CDCL root registry use, so
// a key depends only on the formula and entries can be evicted one by
// one: each memo shard is an LRU. Flush atomically swaps the current
// generation (memo and model ring) for an empty one; in-flight queries
// finish against the generation they started on, which is
// garbage-collected when they drain. All methods are safe for
// concurrent use, including Flush under load.
type Cache struct {
	shardCap int
	solvers  sync.Pool
	cur      atomic.Pointer[cacheGen]
	disk     *diskStore // nil without CacheOptions.Dir

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

// cacheGen is one generation of the cache's in-memory tiers. Queries
// capture a *cacheGen once, so a concurrent flush never splits one
// query's lookups and stores across two generations.
type cacheGen struct {
	memo []memoShard
	cex  *cexCache
}

// NewCache builds an empty cache from o.
func NewCache(o CacheOptions) *Cache {
	size := o.MemoSize
	if size <= 0 {
		size = defaultMemoSize
	}
	c := &Cache{
		shardCap: (size + memoShards - 1) / memoShards,
		solvers:  sync.Pool{New: func() any { return solver.New() }},
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
		memo: make([]memoShard, memoShards),
		cex:  newCexCache(cexCacheSize),
	}
	for i := range g.memo {
		g.memo[i] = memoShard{ents: map[string]*list.Element{}, lru: list.New()}
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

// shard returns the memo shard of key in generation g. The hash is
// FNV-1a, unseeded, so an entry lands in the same shard — and an
// undersized memo evicts the same entries — on every run.
func (g *cacheGen) shard(key string) *memoShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &g.memo[h%memoShards]
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

// CacheStats is a point-in-time reading of a Cache: sizes of the
// current generation plus lifetime hit/flush counters.
type CacheStats struct {
	// MemoEntries sizes the current generation's memo.
	MemoEntries int
	// MemoHits / MemoMisses / CexHits accumulate across the cache's
	// whole lifetime (every engine, every generation) — the serving
	// layer's warm-vs-cold signal. Per-run figures stay on the
	// engine's own Stats.
	MemoHits   int64
	MemoMisses int64
	CexHits    int64
	// Flushes counts Flush calls; Evictions counts memo entries the
	// LRU dropped to stay within MemoSize.
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
		MemoHits:    c.hits.Load(),
		MemoMisses:  c.misses.Load(),
		CexHits:     c.cexHits.Load(),
		Flushes:     c.flushes.Load(),
		Evictions:   c.evictions.Load(),
		DiskHits:    c.diskHits.Load(),
		DiskCorrupt: c.diskCorrupt.Load(),
	}
	for i := range g.memo {
		sh := &g.memo[i]
		sh.mu.Lock()
		s.MemoEntries += len(sh.ents)
		sh.mu.Unlock()
	}
	if c.disk != nil {
		s.DiskEntries = c.disk.size()
	}
	return s
}

// diskLookup consults the persistent tier (a miss when no Dir was
// configured).
func (c *Cache) diskLookup(key string) (sat, ok bool) {
	if c.disk == nil {
		return false, false
	}
	sat, ok = c.disk.lookup(key)
	if ok {
		c.diskHits.Add(1)
	}
	return sat, ok
}

// diskAdd records a definite verdict (and model, when sat produced
// one) in the persistent tier. A no-op without a Dir.
func (c *Cache) diskAdd(key string, sat bool, model *solver.Model) {
	if c.disk == nil {
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
