package summary

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mix/internal/microc"
)

const (
	// fuzzLeafSrc is the function whose entry file FuzzSummaryEntry
	// replaces; fuzzCallerSrc adds a caller, whose summary is computed
	// fresh on every input and so instantiates the decoded one.
	fuzzLeafSrc   = "int h(int a, int b) { if (a < b) { return a + 1; } return b - 2; }\n"
	fuzzCallerSrc = fuzzLeafSrc + "int g(int x) { return h(x, 3) + h(3, x); }\n"
)

// FuzzSummaryEntry: whatever bytes a summary entry file holds,
// Precompute on a store opened over it never panics. Each input is
// written as h's entry twice: raw, and as the payload of an envelope
// with the current schema version, h's hash and a matching checksum,
// so the payload and term decoders are reached too. The entry either
// loads (one disk hit) or is rejected (exactly one Corrupt, h computed
// fresh); g, computed fresh either way, instantiates it. The seeds are
// the entry file the store itself writes, its payload, and
// truncations of both.
//
//	go test -run '^$' -fuzz FuzzSummaryEntry -fuzztime 10s ./internal/summary/
func FuzzSummaryEntry(f *testing.F) {
	dir := f.TempDir()
	leaf, err := microc.Parse(fuzzLeafSrc)
	if err != nil {
		f.Fatal(err)
	}
	NewStore(dir).Precompute(leaf, 0)
	files, err := filepath.Glob(filepath.Join(dir, "sum-*.json"))
	if err != nil || len(files) != 1 {
		f.Fatalf("want one entry file for h, got %v (%v)", files, err)
	}
	name := filepath.Base(files[0])
	hash := strings.TrimSuffix(strings.TrimPrefix(name, "sum-"), ".json")
	file, err := os.ReadFile(files[0])
	if err != nil {
		f.Fatal(err)
	}
	var env diskEnvelope
	if err := json.Unmarshal(file, &env); err != nil {
		f.Fatal(err)
	}
	for _, b := range [][]byte{file, env.Payload} {
		for _, n := range []int{len(b), len(b) - 1, len(b) / 2, 7, 0} {
			f.Add(b[:n])
		}
	}
	prog, err := microc.Parse(fuzzCallerSrc)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sum := sha256.Sum256(data)
		wrapped := fmt.Sprintf(`{"schema_version":%d,"hash":%q,"checksum":%q,"payload":%s}`,
			schemaVersion, hash, hex.EncodeToString(sum[:]), data)
		for _, b := range [][]byte{data, []byte(wrapped)} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
			s := NewStore(dir)
			ps := s.Precompute(prog, 0)
			st := s.Stats()
			switch {
			case st.Corrupt == 0 && ps.DiskHits == 1 && ps.Computed == 1:
			case st.Corrupt == 1 && ps.DiskHits == 0 && ps.Computed == 2:
			default:
				t.Fatalf("entry %q: corrupt=%d diskHits=%d computed=%d; want a disk hit or one corrupt entry recomputed",
					b, st.Corrupt, ps.DiskHits, ps.Computed)
			}
		}
	})
}
