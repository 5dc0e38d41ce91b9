package engine

import (
	"fmt"
	"sync"
	"testing"

	"mix/internal/solver"
)

// TestCacheSharedAcrossEngines pins the warm-serving property: a second
// engine borrowing the first engine's cache answers the same query from
// the memo instead of re-solving it.
func TestCacheSharedAcrossEngines(t *testing.T) {
	c := NewCache(CacheOptions{})
	f := vle("x", "y")

	e1 := New(Options{Workers: 1, Cache: c})
	if sat, err := e1.Sat(f); err != nil || !sat {
		t.Fatalf("cold Sat = %v, %v", sat, err)
	}
	e1.Close()
	if s := e1.Snapshot(); s.MemoHits != 0 || s.MemoMisses != 1 {
		t.Fatalf("cold run stats = %+v, want 0 hits / 1 miss", s)
	}

	e2 := New(Options{Workers: 1, Cache: c})
	if sat, err := e2.Sat(f); err != nil || !sat {
		t.Fatalf("warm Sat = %v, %v", sat, err)
	}
	e2.Close()
	if s := e2.Snapshot(); s.MemoHits != 1 || s.MemoMisses != 0 {
		t.Fatalf("warm run stats = %+v, want 1 hit / 0 misses", s)
	}

	cs := c.Stats()
	if cs.MemoHits != 1 || cs.MemoMisses != 1 || cs.MemoEntries != 1 {
		t.Fatalf("cache stats = %+v, want lifetime 1 hit / 1 miss / 1 entry", cs)
	}
}

// TestCacheFlush pins that Flush drops every cached verdict: the same
// query misses again afterwards, and the flush is counted.
func TestCacheFlush(t *testing.T) {
	c := NewCache(CacheOptions{})
	f := vle("x", "y")

	e := New(Options{Workers: 1, Cache: c})
	defer e.Close()
	if _, err := e.Sat(f); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if cs := c.Stats(); cs.MemoEntries != 0 || cs.Flushes != 1 {
		t.Fatalf("post-flush stats = %+v, want empty generation and 1 flush", cs)
	}
	if _, err := e.Sat(f); err != nil {
		t.Fatal(err)
	}
	if s := e.Snapshot(); s.MemoMisses != 2 {
		t.Fatalf("misses = %d, want 2 (flush discarded the verdict)", s.MemoMisses)
	}
}

// TestCacheMemoSizeEviction pins the memo's only bound: past MemoSize
// the LRU drops entries one by one, and Evictions counts every drop.
func TestCacheMemoSizeEviction(t *testing.T) {
	c := NewCache(CacheOptions{MemoSize: memoShards}) // one entry per shard
	e := New(Options{Workers: 1, Cache: c})
	defer e.Close()
	const n = 100
	for i := 0; i < n; i++ {
		f := vle(fmt.Sprintf("x%d", i), fmt.Sprintf("y%d", i))
		if sat, err := e.Sat(f); err != nil || !sat {
			t.Fatalf("Sat #%d = %v, %v", i, sat, err)
		}
	}
	cs := c.Stats()
	if cs.MemoMisses != n || cs.MemoEntries > memoShards {
		t.Fatalf("cache stats = %+v, want %d misses and at most %d entries", cs, n, memoShards)
	}
	if want := int64(n - cs.MemoEntries); cs.Evictions != want {
		t.Fatalf("Evictions = %d, want %d (one per entry stored beyond the %d kept)", cs.Evictions, want, cs.MemoEntries)
	}
	if cs.Flushes != 0 {
		t.Fatalf("Flushes = %d, want 0: eviction is per entry, not a generation swap", cs.Flushes)
	}
}

// TestCacheFlushUnderLoad hammers one shared, undersized cache from
// many engines while flushing concurrently; run under -race this pins
// that neither the generation swap nor LRU eviction can corrupt a
// verdict.
func TestCacheFlushUnderLoad(t *testing.T) {
	c := NewCache(CacheOptions{MemoSize: 4 * memoShards})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := New(Options{Workers: 1, Cache: c})
			defer e.Close()
			for i := 0; i < 200; i++ {
				// A satisfiable and an unsatisfiable query per step, with
				// enough distinct names to force evictions mid-stream.
				a, b := fmt.Sprintf("a%d", i%17), fmt.Sprintf("b%d", i%13)
				sat, err := e.Sat(vle(a, b))
				if err != nil || !sat {
					t.Errorf("worker %d: sat query = %v, %v", w, sat, err)
					return
				}
				contradiction := solver.NewAnd(
					solver.Lt{X: solver.IntVar{Name: a}, Y: solver.IntVar{Name: b}},
					solver.Lt{X: solver.IntVar{Name: b}, Y: solver.IntVar{Name: a}})
				sat, err = e.Sat(contradiction)
				if err != nil || sat {
					t.Errorf("worker %d: unsat query = %v, %v", w, sat, err)
					return
				}
				if i%50 == 0 {
					c.Flush()
				}
			}
		}(w)
	}
	wg.Wait()
}
