package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/big"
	"os"
	"path/filepath"
	"sync"

	"mix/internal/solver"
)

// The disk tier of a Cache: definite solver verdicts and
// counterexample models persisted to a single versioned file, so a
// cold process pointed at a warm -cache-dir skips re-proving formulas
// earlier processes already decided.
//
// Only verdicts that are sound to share cross-process enter the file:
// definite sat/unsat with no error. Resource-exhaustion "unknown"
// verdicts are memoized in memory but never persisted — they are
// deterministic only for one solver configuration, and the file may
// outlive a configuration change. Models are safe unconditionally
// because the counterexample cache re-checks every candidate model
// against the query before trusting it (solver.Model.Eval).
//
// A corrupt or stale file counts as a cache-corrupt fault, reads as
// empty, and is overwritten wholesale on the next Persist — degraded
// to recompute, never a wrong answer.

// diskSchemaVersion versions the solver-memo file format. Version 3
// keys verdicts by the component's memo key (memoKey: its conjuncts'
// solver.FormulaKeys, sorted and deduplicated); version 2 keyed the
// whole conjunction's FormulaKey and version 1 its display text. An
// older file is stale and recomputed.
const diskSchemaVersion = 3

const (
	// maxDiskVerdicts bounds the persisted verdict map across runs.
	// Once full, new verdicts stay memory-only.
	maxDiskVerdicts = 1 << 16
	// maxDiskModels bounds the persisted model list; matches the
	// in-memory counterexample ring it seeds.
	maxDiskModels = cexCacheSize
)

type diskStore struct {
	path string

	mu       sync.Mutex
	verdicts map[string]bool // memoKey of the component → sat
	models   []*solver.Model
	dirty    bool
}

type diskPayload struct {
	Verdicts map[string]bool `json:"verdicts"`
	Models   []diskModel     `json:"models,omitempty"`
}

// diskModel serializes a solver model with rationals as exact "a/b"
// strings (big.Rat round-trips losslessly through its text form).
type diskModel struct {
	Ints  map[string]string `json:"ints,omitempty"`
	Bools map[string]bool   `json:"bools,omitempty"`
}

type diskFile struct {
	SchemaVersion int             `json:"schema_version"`
	Checksum      string          `json:"checksum"`
	Payload       json.RawMessage `json:"payload"`
}

// openDiskStore loads (or initializes) the disk tier under dir.
// The error reports a corrupt or stale existing file; the returned
// store is usable either way.
func openDiskStore(dir string) (*diskStore, error) {
	_ = os.MkdirAll(dir, 0o755)
	d := &diskStore{
		path:     filepath.Join(dir, "solver-memo.json"),
		verdicts: map[string]bool{},
	}
	b, err := os.ReadFile(d.path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return d, nil
		}
		return d, err
	}
	var f diskFile
	if err := json.Unmarshal(b, &f); err != nil {
		return d, fmt.Errorf("solver memo: bad envelope: %v", err)
	}
	if f.SchemaVersion != diskSchemaVersion {
		return d, fmt.Errorf("solver memo: schema version %d, want %d", f.SchemaVersion, diskSchemaVersion)
	}
	if sum := sha256.Sum256(f.Payload); hex.EncodeToString(sum[:]) != f.Checksum {
		return d, fmt.Errorf("solver memo: checksum mismatch")
	}
	var p diskPayload
	if err := json.Unmarshal(f.Payload, &p); err != nil {
		return d, fmt.Errorf("solver memo: bad payload: %v", err)
	}
	// Decode every model before adopting anything: a file rejected
	// halfway must still read as empty.
	var models []*solver.Model
	for _, dm := range p.Models {
		m := &solver.Model{Ints: map[string]*big.Rat{}, Bools: dm.Bools}
		if m.Bools == nil {
			m.Bools = map[string]bool{}
		}
		for name, s := range dm.Ints {
			r, ok := new(big.Rat).SetString(s)
			if !ok {
				return d, fmt.Errorf("solver memo: bad rational %q", s)
			}
			m.Ints[name] = r
		}
		models = append(models, m)
	}
	if p.Verdicts != nil {
		d.verdicts = p.Verdicts
	}
	d.models = models
	return d, nil
}

func (d *diskStore) lookup(key string) (sat, ok bool) {
	d.mu.Lock()
	sat, ok = d.verdicts[key]
	d.mu.Unlock()
	return sat, ok
}

func (d *diskStore) add(key string, sat bool, model *solver.Model) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, exists := d.verdicts[key]; !exists && len(d.verdicts) < maxDiskVerdicts {
		d.verdicts[key] = sat
		d.dirty = true
	}
	if sat && model != nil && len(d.models) < maxDiskModels {
		d.models = append(d.models, model)
		d.dirty = true
	}
}

// snapshotModels returns the loaded models, for seeding a fresh
// generation's counterexample ring.
func (d *diskStore) snapshotModels() []*solver.Model {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*solver.Model, len(d.models))
	copy(out, d.models)
	return out
}

func (d *diskStore) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.verdicts)
}

// persist writes the store back to disk (tmp file + rename, so a
// concurrent reader never sees a torn file). No-op when clean.
func (d *diskStore) persist() error {
	d.mu.Lock()
	if !d.dirty {
		d.mu.Unlock()
		return nil
	}
	p := diskPayload{Verdicts: d.verdicts}
	for _, m := range d.models {
		dm := diskModel{Ints: map[string]string{}, Bools: m.Bools}
		for name, r := range m.Ints {
			dm.Ints[name] = r.RatString()
		}
		p.Models = append(p.Models, dm)
	}
	payload, err := json.Marshal(&p)
	d.dirty = false
	d.mu.Unlock()
	if err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	b, err := json.Marshal(&diskFile{
		SchemaVersion: diskSchemaVersion,
		Checksum:      hex.EncodeToString(sum[:]),
		Payload:       payload,
	})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(d.path), "solver-memo-*.tmp")
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
	return os.Rename(tmp.Name(), d.path)
}
