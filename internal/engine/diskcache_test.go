package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mix/internal/solver"
)

func unsatPair(a, b string) solver.Formula {
	return solver.NewAnd(
		solver.Lt{X: solver.IntVar{Name: a}, Y: solver.IntVar{Name: b}},
		solver.Lt{X: solver.IntVar{Name: b}, Y: solver.IntVar{Name: a}})
}

// TestDiskCachePersistReload pins the warm-start property: a second
// cache opened on the same directory answers persisted queries from
// disk with identical verdicts and no fresh solve.
func TestDiskCachePersistReload(t *testing.T) {
	dir := t.TempDir()
	sat := vle("x", "y")
	unsat := unsatPair("x", "y")

	c1 := NewCache(CacheOptions{Dir: dir})
	e1 := New(Options{Workers: 1, Cache: c1})
	if got, err := e1.Sat(sat); err != nil || !got {
		t.Fatalf("Sat = %v, %v", got, err)
	}
	if got, err := e1.Sat(unsat); err != nil || got {
		t.Fatalf("unsat query = %v, %v", got, err)
	}
	e1.Close()
	if err := c1.Persist(); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	if cs := c1.Stats(); cs.DiskEntries != 2 || cs.DiskHits != 0 {
		t.Fatalf("writer stats = %+v, want 2 entries, 0 hits", cs)
	}

	c2 := NewCache(CacheOptions{Dir: dir})
	e2 := New(Options{Workers: 1, Cache: c2})
	defer e2.Close()
	if got, err := e2.Sat(sat); err != nil || !got {
		t.Fatalf("warm Sat = %v, %v", got, err)
	}
	if got, err := e2.Sat(unsat); err != nil || got {
		t.Fatalf("warm unsat query = %v, %v", got, err)
	}
	// The sat query may be answered by the persisted model (seeded into
	// the counterexample ring) before the verdict map is consulted; the
	// unsat query has no model, so it must hit the disk verdicts.
	cs := c2.Stats()
	if cs.DiskHits+cs.CexHits != 2 || cs.DiskHits < 1 {
		t.Fatalf("warm stats = %+v, want both queries answered from the persistent tier", cs)
	}
	if cs.DiskCorrupt != 0 {
		t.Fatalf("clean reload counted %d corruptions", cs.DiskCorrupt)
	}
}

// TestDiskCacheSurvivesFlush pins the tier split: Flush drops the
// in-memory generation but the persistent tier still answers.
func TestDiskCacheSurvivesFlush(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(CacheOptions{Dir: dir})
	e := New(Options{Workers: 1, Cache: c})
	defer e.Close()
	// An unsat query has no model, so only the disk verdict map can
	// answer it after the flush drops the in-memory memo.
	f := unsatPair("p", "q")
	if got, err := e.Sat(f); err != nil || got {
		t.Fatalf("Sat = %v, %v", got, err)
	}
	c.Flush()
	if got, err := e.Sat(f); err != nil || got {
		t.Fatalf("post-flush Sat = %v, %v", got, err)
	}
	if cs := c.Stats(); cs.DiskHits != 1 {
		t.Fatalf("post-flush stats = %+v, want 1 disk hit", cs)
	}
}

// TestDiskCacheCorruptFileDegrades pins the poisoning behavior: a
// truncated or garbage memo file counts a corruption, reads as empty,
// and the verdicts still come out right; the next Persist heals it.
func TestDiskCacheCorruptFileDegrades(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "solver-memo.json")

	c1 := NewCache(CacheOptions{Dir: dir})
	e1 := New(Options{Workers: 1, Cache: c1})
	f := vle("x", "y")
	if _, err := e1.Sat(f); err != nil {
		t.Fatal(err)
	}
	e1.Close()
	if err := c1.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(`{"schema_version":1,"checksum":"bad`), 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := NewCache(CacheOptions{Dir: dir})
	if cs := c2.Stats(); cs.DiskCorrupt != 1 || cs.DiskEntries != 0 {
		t.Fatalf("poisoned open stats = %+v, want 1 corruption, 0 entries", cs)
	}
	e2 := New(Options{Workers: 1, Cache: c2})
	if got, err := e2.Sat(f); err != nil || !got {
		t.Fatalf("poisoned Sat = %v, %v (must recompute, not fail)", got, err)
	}
	e2.Close()
	if err := c2.Persist(); err != nil {
		t.Fatal(err)
	}

	healed := NewCache(CacheOptions{Dir: dir})
	if cs := healed.Stats(); cs.DiskCorrupt != 0 || cs.DiskEntries != 1 {
		t.Fatalf("healed open stats = %+v, want clean reload with 1 entry", cs)
	}
}

// TestDiskCachePersistCleanNoop pins that Persist without new verdicts
// does not rewrite the file.
func TestDiskCachePersistCleanNoop(t *testing.T) {
	dir := t.TempDir()
	c1 := NewCache(CacheOptions{Dir: dir})
	e := New(Options{Workers: 1, Cache: c1})
	if _, err := e.Sat(vle("x", "y")); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if err := c1.Persist(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "solver-memo.json")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCache(CacheOptions{Dir: dir})
	e2 := New(Options{Workers: 1, Cache: c2})
	if _, err := e2.Sat(vle("x", "y")); err != nil {
		t.Fatal(err)
	}
	e2.Close()
	if err := c2.Persist(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatal("Persist with no new verdicts must not rewrite the file")
	}
}

// TestDiskCacheOldSchemaRecomputes pins the schema bumps that came
// with each change of the verdict key: display text in version 1, the
// conjunction's solver.FormulaKey in version 2, the component's memo
// key since version 3. A well-formed older file counts as corrupt and
// is never trusted, even where it holds an entry under the query's
// current key; the verdict is recomputed.
func TestDiskCacheOldSchemaRecomputes(t *testing.T) {
	f := unsatPair("x", "y")
	conjuncts, _ := splitExtras([]solver.Formula{f})
	for _, version := range []int{1, 2} {
		dir := t.TempDir()
		// A wrong verdict under every spelling of the key: trusting any
		// would turn this unsat query sat.
		payload, err := json.Marshal(diskPayload{Verdicts: map[string]bool{
			f.String():           true,
			solver.FormulaKey(f): true,
			memoKey(conjuncts):   true,
		}})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(payload)
		b, err := json.Marshal(diskFile{
			SchemaVersion: version,
			Checksum:      hex.EncodeToString(sum[:]),
			Payload:       payload,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "solver-memo.json"), b, 0o644); err != nil {
			t.Fatal(err)
		}

		c := NewCache(CacheOptions{Dir: dir})
		if cs := c.Stats(); cs.DiskCorrupt != 1 || cs.DiskEntries != 0 {
			t.Fatalf("schema %d: open stats = %+v, want 1 corruption, 0 entries", version, cs)
		}
		e := New(Options{Workers: 1, Cache: c})
		if got, err := e.Sat(f); err != nil || got {
			t.Fatalf("schema %d: Sat = %v, %v; want the recomputed unsat", version, got, err)
		}
		e.Close()
		if cs := c.Stats(); cs.DiskHits != 0 {
			t.Fatalf("schema %d: stats = %+v, want no disk hits", version, cs)
		}
	}
}
