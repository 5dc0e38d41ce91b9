package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mix/internal/solver"
)

// diskFuzzQueries are the queries whose verdicts and models the seed
// file holds; each fuzz input reruns them on the opened cache.
var diskFuzzQueries = []solver.Formula{
	vle("x", "y"),
	unsatPair("x", "y"),
	solver.NewAnd(vle("a", "b"), solver.NewNot(solver.Eq{X: solver.IntVar{Name: "b"}, Y: solver.IntConst{Val: 3}})),
}

// FuzzDiskStore: whatever bytes the solver-memo file holds, opening a
// Cache on it never panics. Each input is written twice: raw, and as
// the payload of an envelope with the current schema version and a
// matching checksum, so the payload decoder is reached too. A rejected
// file counts exactly one DiskCorrupt and reads as empty (no verdicts,
// no models), and queries on the opened cache still complete. The
// seeds are a file the store itself writes, its payload, and
// truncations of both.
//
//	go test -run '^$' -fuzz FuzzDiskStore -fuzztime 10s ./internal/engine/
func FuzzDiskStore(f *testing.F) {
	dir := f.TempDir()
	c := NewCache(CacheOptions{Dir: dir})
	e := New(Options{Cache: c})
	for _, q := range diskFuzzQueries {
		if _, err := e.Sat(q); err != nil {
			f.Fatal(err)
		}
	}
	e.Close()
	if err := c.Persist(); err != nil {
		f.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(dir, "solver-memo.json"))
	if err != nil {
		f.Fatal(err)
	}
	var env diskFile
	if err := json.Unmarshal(file, &env); err != nil {
		f.Fatal(err)
	}
	for _, b := range [][]byte{file, env.Payload} {
		for _, n := range []int{len(b), len(b) - 1, len(b) / 2, 7, 0} {
			f.Add(b[:n])
		}
	}
	// A payload whose verdicts decode before a model's bad rational.
	f.Add([]byte(`{"verdicts":{"k":true},"models":[{"ints":{"v:x":"1/0"}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sum := sha256.Sum256(data)
		wrapped := fmt.Sprintf(`{"schema_version":%d,"checksum":%q,"payload":%s}`,
			diskSchemaVersion, hex.EncodeToString(sum[:]), data)
		for _, b := range [][]byte{data, []byte(wrapped)} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "solver-memo.json"), b, 0o644); err != nil {
				t.Fatal(err)
			}
			c := NewCache(CacheOptions{Dir: dir})
			switch cs := c.Stats(); cs.DiskCorrupt {
			case 0:
			case 1:
				if cs.DiskEntries != 0 || len(c.disk.snapshotModels()) != 0 {
					t.Fatalf("rejected file %q still loaded %d verdicts and %d models",
						b, cs.DiskEntries, len(c.disk.snapshotModels()))
				}
			default:
				t.Fatalf("file %q counted %d corrupt, want at most 1", b, cs.DiskCorrupt)
			}
			e := New(Options{Cache: c})
			for _, q := range diskFuzzQueries {
				if _, err := e.Sat(q); err != nil {
					t.Fatalf("file %q: query %v: %v", b, q, err)
				}
			}
			e.Close()
		}
	})
}
