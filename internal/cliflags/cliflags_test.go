package cliflags

import (
	"encoding/json"
	"flag"
	"testing"
	"time"

	"mix"
)

func parse(t *testing.T, kind Kind, args ...string) Analysis {
	t.Helper()
	var a Analysis
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	a.Register(fs, kind)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("Parse(%v) = %v", args, err)
	}
	return a
}

// TestRegisterCoreFlags pins that the historical mix CLI surface —
// names and defaults — survives the shared registration.
func TestRegisterCoreFlags(t *testing.T) {
	a := parse(t, Core,
		"-symbolic", "-unsound", "-defer", "-merge", "off",
		"-env", "b:bool,x:int,r:int_ref",
		"-workers", "1", "-max-paths", "100",
		"-deadline", "250ms", "-solver-timeout", "5ms")
	cfg := a.MixConfig()
	if cfg.Mode != mix.StartSymbolic || !cfg.Unsound || !cfg.DeferConditionals {
		t.Fatalf("mode flags lost: %+v", cfg)
	}
	if cfg.Merge != "off" || cfg.Workers != 1 || cfg.MaxPaths != 100 {
		t.Fatalf("engine flags lost: %+v", cfg)
	}
	if cfg.Deadline != 250*time.Millisecond || cfg.SolverTimeout != 5*time.Millisecond {
		t.Fatalf("durations lost: %+v", cfg)
	}
	if cfg.Env["r"] != "int ref" || cfg.Env["b"] != "bool" {
		t.Fatalf("env parsing lost underscores: %v", cfg.Env)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("parsed config should validate: %v", err)
	}
}

// TestRegisterMicroCFlags pins the mixy surface, including the CLI
// defaults that differ from the library zero values.
func TestRegisterMicroCFlags(t *testing.T) {
	defaults := parse(t, MicroC)
	cfg := defaults.CConfig()
	if cfg.Entry != "main" || cfg.Merge != "joins" || cfg.MergeCap != 8 {
		t.Fatalf("CLI defaults drifted: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config should validate: %v", err)
	}

	a := parse(t, MicroC, "-pure", "-entry", "f", "-nocache", "-merge-cap", "3", "-workers", "1")
	cfg = a.CConfig()
	if !cfg.PureTypes || cfg.Entry != "f" || !cfg.NoCache || cfg.MergeCap != 3 || cfg.Workers != 1 {
		t.Fatalf("mixy flags lost: %+v", cfg)
	}
}

// TestBadEnvEntry pins that a malformed -env pair is a parse error,
// not a silent skip.
func TestBadEnvEntry(t *testing.T) {
	var a Analysis
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	a.Register(fs, Core)
	if err := fs.Parse([]string{"-env", "justaname"}); err == nil {
		t.Fatal("want parse error for -env entry without a colon")
	}
}

// TestDurationJSON pins the request-schema duration forms: a human
// string or a number of nanoseconds, and the string form on the way
// out.
func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"50ms"`), &d); err != nil || time.Duration(d) != 50*time.Millisecond {
		t.Fatalf(`"50ms" -> %v, %v`, time.Duration(d), err)
	}
	if err := json.Unmarshal([]byte(`1000000`), &d); err != nil || time.Duration(d) != time.Millisecond {
		t.Fatalf("1000000 -> %v, %v", time.Duration(d), err)
	}
	if err := json.Unmarshal([]byte(`{"x":1}`), &d); err == nil {
		t.Fatal("want error for a non-duration JSON value")
	}
	out, err := json.Marshal(Duration(2 * time.Second))
	if err != nil || string(out) != `"2s"` {
		t.Fatalf("marshal = %s, %v", out, err)
	}
}

// TestRequestDecoding pins the JSON side of the dual-purpose struct:
// the daemon decodes the same fields the CLIs register.
func TestRequestDecoding(t *testing.T) {
	body := `{
		"symbolic": true,
		"env": {"x": "int"},
		"workers": 1,
		"merge": "joins",
		"deadline": "100ms",
		"solver_timeout": 2000000
	}`
	var a Analysis
	if err := json.Unmarshal([]byte(body), &a); err != nil {
		t.Fatal(err)
	}
	cfg := a.MixConfig()
	if cfg.Mode != mix.StartSymbolic || cfg.Workers != 1 ||
		cfg.Deadline != 100*time.Millisecond || cfg.SolverTimeout != 2*time.Millisecond ||
		cfg.Env["x"] != "int" {
		t.Fatalf("decoded config drifted: %+v", cfg)
	}
}
