package summary

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"mix/internal/engine"
	"mix/internal/fault"
	"mix/internal/microc"
	"mix/internal/symexec"
)

// schemaVersion versions the on-disk summary envelope. Bump it on any
// change to the record shape, the term codec, or the summarization
// semantics; old entries then read as stale and are recomputed.
const schemaVersion = 1

// Store is the cross-run summary cache: an in-memory tier keyed by
// content hash, optionally backed by a directory of per-entry files.
// A Store outlives individual programs (mixd shares one across
// requests); keys hash the function text, its transitive callees, and
// the summarization configuration, so unrelated tenants can never
// collide on anything but genuinely identical code.
//
// The zero dir means memory-only. All methods are safe for concurrent
// use and (except NewStore) safe on a nil receiver.
type Store struct {
	dir string

	mu  sync.Mutex
	mem map[string]*record

	memHits  atomic.Int64
	diskHits atomic.Int64
	computed atomic.Int64
	corrupt  atomic.Int64
	faults   fault.Counters
}

// NewStore opens a summary store. dir == "" keeps the store in memory
// only; otherwise entries are mirrored to per-hash files under dir
// (created if missing).
func NewStore(dir string) *Store {
	if dir != "" {
		_ = os.MkdirAll(dir, 0o755)
	}
	return &Store{dir: dir, mem: map[string]*record{}}
}

// Flush drops the in-memory tier. Disk files survive: the persistent
// tier is the point of the store, and a flushed entry re-loads (and
// re-verifies) from disk on next use.
func (s *Store) Flush() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.mem = map[string]*record{}
	s.mu.Unlock()
}

// StoreStats is a point-in-time view of store activity, for -stats and
// the mixd /metrics gauges.
type StoreStats struct {
	Entries  int   // in-memory entries
	MemHits  int64 // lookups answered from memory
	DiskHits int64 // lookups answered from disk
	Computed int64 // entries computed fresh
	Corrupt  int64 // disk entries that failed integrity/version checks
}

// Stats reports store activity since creation.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	n := len(s.mem)
	s.mu.Unlock()
	return StoreStats{
		Entries:  n,
		MemHits:  s.memHits.Load(),
		DiskHits: s.diskHits.Load(),
		Computed: s.computed.Load(),
		Corrupt:  s.corrupt.Load(),
	}
}

// Faults exposes the store's fault counters (cache-corrupt records).
func (s *Store) Faults() fault.Snapshot {
	if s == nil {
		return fault.Snapshot{}
	}
	return s.faults.Snapshot()
}

// Precompute analyzes every function of prog bottom-up (callees before
// callers, so each summary composes its callees' summaries instead of
// re-exploring them) and returns the per-program summary table. Cached
// entries — in-memory or on disk — short-circuit the symbolic run.
//
// The scratch runs share one private engine, built at the first miss
// and closed on return. It has no deadline: a stored summary serves
// later requests too, so one request's budget must not shape it.
func (s *Store) Precompute(prog *microc.Program, armCap int) *ProgramSummaries {
	if armCap <= 0 {
		armCap = DefaultCap
	}
	ps := &ProgramSummaries{byFn: map[*microc.FuncDef]entry{}}
	a := analyze(prog)
	corrupt0 := s.corrupt.Load()
	defer func() { ps.Corrupt = int(s.corrupt.Load() - corrupt0) }()
	fp := fingerprint(armCap)
	var eng *engine.Engine
	defer func() {
		if eng != nil {
			eng.Close()
		}
	}()

	hashes := map[*microc.FuncDef]string{}
	var visit func(f *microc.FuncDef)
	visit = func(f *microc.FuncDef) {
		if _, done := ps.byFn[f]; done {
			return
		}
		in := a.info[f]
		if !in.ok {
			ps.byFn[f] = entry{reason: in.reason}
			return
		}
		for _, g := range in.callees {
			visit(g)
		}
		// Summarizable functions have an acyclic callee closure (the
		// admissibility walk rejects recursion), so hashing terminates.
		h := fnHash(fp, f, in.callees, hashes)
		hashes[f] = h
		if rec, fromDisk := s.lookup(h); rec != nil {
			if fromDisk {
				ps.DiskHits++
			} else {
				ps.MemHits++
			}
			ps.byFn[f] = rec.entry()
			return
		}
		if eng == nil {
			eng = engine.New(engine.Options{})
		}
		rec := summarizeFunc(prog, eng, precomputeView{ps}, f, armCap, in.height)
		s.put(h, rec)
		ps.Computed++
		ps.byFn[f] = rec.entry()
	}
	for _, f := range prog.Funcs {
		visit(f)
	}
	return ps
}

// fingerprint folds every knob that affects a summary's content into
// the hash: the arm cap and the exploration bounds of the scratch
// executor (symexec.New's defaults). Two runs disagreeing on any of
// these never share entries.
func fingerprint(armCap int) string {
	return fmt.Sprintf("v%d cap=%d unroll=%d depth=%d paths=%d merge=aggressive",
		schemaVersion, armCap, symexec.DefaultMaxUnroll, symexec.DefaultMaxDepth, symexec.DefaultMaxPaths)
}

// fnHash is the content key of one function's summary: fingerprint,
// canonical source text, and the hashes of its direct callees (sorted,
// so formatting-independent). A change anywhere in a function's
// transitive callee closure changes its hash.
func fnHash(fp string, f *microc.FuncDef, callees []*microc.FuncDef, hashes map[*microc.FuncDef]string) string {
	h := sha256.New()
	io.WriteString(h, "mix-summary\n")
	io.WriteString(h, fp)
	io.WriteString(h, "\n")
	io.WriteString(h, microc.PrintFunc(f))
	cs := make([]string, 0, len(callees))
	for _, g := range callees {
		cs = append(cs, hashes[g]+" "+g.Name)
	}
	sort.Strings(cs)
	for _, c := range cs {
		io.WriteString(h, c)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// lookup consults memory then disk; a disk hit is promoted to memory.
// Corrupt or stale disk entries count a CacheCorrupt fault and read as
// a miss (degrade to recompute; put overwrites the bad file).
func (s *Store) lookup(hash string) (rec *record, fromDisk bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	rec = s.mem[hash]
	s.mu.Unlock()
	if rec != nil {
		s.memHits.Add(1)
		return rec, false
	}
	if s.dir == "" {
		return nil, false
	}
	rec, err := s.loadDisk(hash)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.corrupt.Add(1)
			s.faults.RecordErr(fault.New(fault.CacheCorrupt, "summary.store", "", err))
		}
		return nil, false
	}
	s.mu.Lock()
	s.mem[hash] = rec
	s.mu.Unlock()
	s.diskHits.Add(1)
	return rec, true
}

// put records a freshly computed entry in memory and, when configured,
// on disk (best-effort: an unwritable directory degrades the store to
// memory-only for that entry, it never fails the analysis).
func (s *Store) put(hash string, rec *record) {
	if s == nil {
		return
	}
	s.computed.Add(1)
	s.mu.Lock()
	s.mem[hash] = rec
	s.mu.Unlock()
	if s.dir != "" {
		_ = s.writeDisk(hash, rec)
	}
}

// Disk layout: one JSON file per entry, named by content hash, wrapped
// in a versioned envelope whose checksum covers the payload bytes.
// Writes go through a temp file + rename so readers never observe a
// torn entry.

type diskEnvelope struct {
	SchemaVersion int             `json:"schema_version"`
	Hash          string          `json:"hash"`
	Checksum      string          `json:"checksum"`
	Payload       json.RawMessage `json:"payload"`
}

type diskRecord struct {
	Fn       string    `json:"fn"`
	Height   int       `json:"height"`
	Fallback string    `json:"fallback,omitempty"`
	Arms     []diskArm `json:"arms,omitempty"`
}

type diskArm struct {
	Guard *jsonFormula `json:"guard"`
	Ret   *jsonTerm    `json:"ret,omitempty"`
}

func (s *Store) entryPath(hash string) string {
	return filepath.Join(s.dir, "sum-"+hash+".json")
}

func (s *Store) loadDisk(hash string) (*record, error) {
	b, err := os.ReadFile(s.entryPath(hash))
	if err != nil {
		return nil, err
	}
	var env diskEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("summary entry %s: bad envelope: %v", hash[:12], err)
	}
	if env.SchemaVersion != schemaVersion {
		return nil, fmt.Errorf("summary entry %s: schema version %d, want %d", hash[:12], env.SchemaVersion, schemaVersion)
	}
	if env.Hash != hash {
		return nil, fmt.Errorf("summary entry %s: hash mismatch", hash[:12])
	}
	if sum := sha256.Sum256(env.Payload); hex.EncodeToString(sum[:]) != env.Checksum {
		return nil, fmt.Errorf("summary entry %s: checksum mismatch", hash[:12])
	}
	var dr diskRecord
	if err := json.Unmarshal(env.Payload, &dr); err != nil {
		return nil, fmt.Errorf("summary entry %s: bad payload: %v", hash[:12], err)
	}
	rec := &record{Fn: dr.Fn, Height: dr.Height, Fallback: dr.Fallback}
	for _, da := range dr.Arms {
		g, err := decodeFormula(da.Guard)
		if err != nil {
			return nil, fmt.Errorf("summary entry %s: %v", hash[:12], err)
		}
		arm := symexec.SummaryArm{Guard: g}
		if da.Ret != nil {
			t, err := decodeTerm(da.Ret)
			if err != nil {
				return nil, fmt.Errorf("summary entry %s: %v", hash[:12], err)
			}
			arm.Ret = t
		}
		rec.Arms = append(rec.Arms, arm)
	}
	if rec.Fallback == "" && len(rec.Arms) == 0 {
		return nil, fmt.Errorf("summary entry %s: neither arms nor fallback", hash[:12])
	}
	return rec, nil
}

func (s *Store) writeDisk(hash string, rec *record) error {
	dr := diskRecord{Fn: rec.Fn, Height: rec.Height, Fallback: rec.Fallback}
	for _, arm := range rec.Arms {
		da := diskArm{Guard: encodeFormula(arm.Guard)}
		if arm.Ret != nil {
			da.Ret = encodeTerm(arm.Ret)
		}
		dr.Arms = append(dr.Arms, da)
	}
	payload, err := json.Marshal(dr)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	env := diskEnvelope{
		SchemaVersion: schemaVersion,
		Hash:          hash,
		Checksum:      hex.EncodeToString(sum[:]),
		Payload:       payload,
	}
	b, err := json.Marshal(&env)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "sum-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), s.entryPath(hash))
}
