// Package cliflags is the single definition of the analysis options
// shared by the mix and mixy CLIs and by the mixd daemon's request
// decoding. cmd/mix and cmd/mixy used to re-declare the same ~10 flags
// by hand, and they had already drifted; registering from one struct
// means a new option lands on every binary — and in the serving
// request schema — at once.
//
// The Analysis struct serves both masters: Register binds its fields
// as flags (with the historical names, defaults, and usage strings),
// and its JSON tags define the body of a mixd request. MixConfig /
// CConfig convert to the facade's option structs; the facade's
// Validate methods own semantic validation, so this package only
// parses.
package cliflags

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"mix"
	"mix/internal/obs"
)

// Kind selects which language-specific flags Register binds alongside
// the shared set.
type Kind int

const (
	// Core is the mix CLI: core-language flags (-symbolic, -unsound,
	// -defer, -env, -max-paths) plus the shared set.
	Core Kind = iota
	// MicroC is the mixy CLI: MIXY flags (-pure, -entry, -nocache,
	// -summaries) plus the shared set.
	MicroC
)

// Duration is a time.Duration that parses from both worlds: flag
// values and JSON strings use the human form ("50ms", "2s"), and JSON
// also accepts a plain number of nanoseconds.
type Duration time.Duration

// String implements flag.Value.
func (d *Duration) String() string {
	if d == nil {
		return "0s"
	}
	return time.Duration(*d).String()
}

// Set implements flag.Value.
func (d *Duration) Set(s string) error {
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON renders the human form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "50ms" or a number of nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		return d.Set(s)
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err == nil {
		*d = Duration(ns)
		return nil
	}
	return fmt.Errorf("duration must be a string like %q or a number of nanoseconds, got %s", "50ms", b)
}

// Analysis is one analysis invocation's options: the union of the mix
// and mixy knobs. Zero value = all defaults off (note that Register
// applies the CLI defaults — Merge "joins", Entry "main" — which
// differ from the library's zero-value defaults on purpose: the CLIs
// and daemon default to the production configuration).
type Analysis struct {
	// Core-language options (mix CLI, kind "core" requests).
	Symbolic bool              `json:"symbolic,omitempty"`
	Unsound  bool              `json:"unsound,omitempty"`
	Defer    bool              `json:"defer,omitempty"`
	Env      map[string]string `json:"env,omitempty"`
	MaxPaths int               `json:"max_paths,omitempty"`

	// MicroC options (mixy CLI, kind "microc" requests).
	Pure      bool   `json:"pure,omitempty"`
	Entry     string `json:"entry,omitempty"`
	NoCache   bool   `json:"nocache,omitempty"`
	Summaries bool   `json:"summaries,omitempty"`

	// Shared options. Workers is a request field only, with no flag:
	// every analysis runs on one engine, so it selects nothing, and
	// the facade's Validate still rejects values outside 0..1.
	Merge         string   `json:"merge,omitempty"`
	Workers       int      `json:"workers,omitempty"`
	Deadline      Duration `json:"deadline,omitempty"`
	SolverTimeout Duration `json:"solver_timeout,omitempty"`

	// CacheDir points the persistent caches (function summaries, solver
	// memo, counterexample models) at a directory. CLI / daemon-config
	// only: the `json:"-"` tag keeps it out of the request schema, so an
	// HTTP client can never choose server filesystem paths.
	CacheDir string `json:"-"`
}

// envValue parses the mix CLI's -env syntax ("b:bool,x:int", with "_"
// standing for spaces inside types, e.g. int_ref) into the Env map.
type envValue struct{ m *map[string]string }

func (e envValue) String() string {
	if e.m == nil || len(*e.m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(*e.m))
	for k := range *e.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + ":" + strings.ReplaceAll((*e.m)[k], " ", "_")
	}
	return strings.Join(parts, ",")
}

func (e envValue) Set(s string) error {
	if *e.m == nil {
		*e.m = map[string]string{}
	}
	for _, pair := range strings.Split(s, ",") {
		name, ty, ok := strings.Cut(strings.TrimSpace(pair), ":")
		if !ok {
			return fmt.Errorf("bad -env entry %q (want name:type)", pair)
		}
		(*e.m)[name] = strings.ReplaceAll(ty, "_", " ")
	}
	return nil
}

// Register binds the analysis flags on fs, shared set plus the kind's
// language-specific set, and applies the CLI defaults.
func (a *Analysis) Register(fs *flag.FlagSet, kind Kind) {
	// Shared flags — one declaration for every binary.
	fs.StringVar(&a.Merge, "merge", "joins", "state merging at conditional joins: off or joins")
	fs.Var(&a.Deadline, "deadline", "wall-clock deadline for the whole run (0 = none)")
	fs.Var(&a.SolverTimeout, "solver-timeout", "per-query solver timeout (0 = none)")
	fs.StringVar(&a.CacheDir, "cache-dir", "", "persist caches (summaries, solver memo, models) under this directory across runs")

	switch kind {
	case Core:
		fs.BoolVar(&a.Symbolic, "symbolic", false, "treat the outermost scope as a symbolic block")
		fs.BoolVar(&a.Unsound, "unsound", false, "skip the exhaustive() check, which only -defer blocks send (bug-finding mode)")
		fs.BoolVar(&a.Defer, "defer", false, "use SEIF-DEFER instead of forking at conditionals")
		fs.Var(envValue{&a.Env}, "env", "free variables as name:type pairs, comma separated (types: int, bool, int ref, bool ref)")
		fs.IntVar(&a.MaxPaths, "max-paths", 0, "engine path budget (0 = unlimited)")
	case MicroC:
		fs.BoolVar(&a.Pure, "pure", false, "ignore MIX annotations (pure qualifier inference)")
		fs.StringVar(&a.Entry, "entry", "main", "entry function")
		fs.BoolVar(&a.NoCache, "nocache", false, "disable block caching")
		fs.BoolVar(&a.Summaries, "summaries", false, "answer eligible calls from compositional function summaries")
	}
}

// MixConfig converts to the core-language facade config. The
// MicroC-only fields are ignored, so one Analysis decoded from a
// request can serve either kind.
func (a Analysis) MixConfig() mix.Config {
	cfg := mix.Config{
		Unsound:           a.Unsound,
		DeferConditionals: a.Defer,
		Merge:             a.Merge,
		Env:               a.Env,
		Workers:           a.Workers,
		MaxPaths:          a.MaxPaths,
		Deadline:          time.Duration(a.Deadline),
		SolverTimeout:     time.Duration(a.SolverTimeout),
		CacheDir:          a.CacheDir,
	}
	if a.Symbolic {
		cfg.Mode = mix.StartSymbolic
	}
	return cfg
}

// CConfig converts to the MicroC facade config; core-only fields are
// ignored.
func (a Analysis) CConfig() mix.CConfig {
	return mix.CConfig{
		Entry:         a.Entry,
		PureTypes:     a.Pure,
		NoCache:       a.NoCache,
		Merge:         a.Merge,
		Summaries:     a.Summaries,
		Workers:       a.Workers,
		Deadline:      time.Duration(a.Deadline),
		SolverTimeout: time.Duration(a.SolverTimeout),
		CacheDir:      a.CacheDir,
	}
}

// Obs carries the CLI-only observability flags (the daemon exposes the
// same data over HTTP instead).
type Obs struct {
	Stats       bool
	MetricsJSON bool
	TraceFile   string
	TraceDet    bool
	PprofAddr   string
}

// Register binds the observability flags on fs.
func (o *Obs) Register(fs *flag.FlagSet) {
	fs.BoolVar(&o.Stats, "stats", false, "print run metrics as sorted 'name value' lines")
	fs.BoolVar(&o.MetricsJSON, "metrics", false, "print run metrics as a JSON snapshot")
	fs.StringVar(&o.TraceFile, "trace", "", "write a JSONL event trace to this file")
	fs.BoolVar(&o.TraceDet, "trace-det", false, "deterministic trace (wall-clock-free, byte-comparable across runs)")
	fs.StringVar(&o.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
}

// WriteTrace flushes tr to path as JSONL — the shared tail of every
// CLI's -trace handling.
func WriteTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadInput reads the program source from path, or stdin when path is
// "-".
func ReadInput(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}
