package mix

import (
	"strings"
	"testing"
	"time"
)

// TestConfigValidate pins the descriptive-error contract the serving
// daemon relies on for 400 responses: every inconsistent option names
// the field and what a valid value looks like.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error, "" = valid
	}{
		{"zero value", Config{}, ""},
		{"engine on", Config{Workers: 1, MaxPaths: 100, Merge: "joins"}, ""},
		{"bad mode", Config{Mode: Mode(7)}, "unknown Mode"},
		{"negative workers", Config{Workers: -1}, "negative Workers"},
		{"workers above one", Config{Workers: 2}, "exploration is sequential"},
		{"negative paths", Config{MaxPaths: -5}, "negative MaxPaths"},
		{"negative deadline", Config{Deadline: -time.Second}, "negative Deadline"},
		{"negative solver timeout", Config{SolverTimeout: -1}, "negative SolverTimeout"},
		{"bad merge", Config{Merge: "sometimes"}, `bad Merge mode "sometimes"`},
		{"aggressive merge", Config{Merge: "aggressive"}, `bad Merge mode "aggressive"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestCConfigValidate is the MicroC-side twin of TestConfigValidate.
func TestCConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  CConfig
		want string
	}{
		{"zero value", CConfig{}, ""},
		{"merge with cap", CConfig{Merge: "joins", MergeCap: 4}, ""},
		{"negative workers", CConfig{Workers: -2}, "negative Workers"},
		{"workers above one", CConfig{Workers: 4}, "exploration is sequential"},
		{"negative deadline", CConfig{Deadline: -1}, "negative Deadline"},
		{"negative solver timeout", CConfig{SolverTimeout: -time.Millisecond}, "negative SolverTimeout"},
		{"negative merge cap", CConfig{MergeCap: -1}, "negative MergeCap"},
		{"cap without merge", CConfig{MergeCap: 4}, "MergeCap 4 set without a Merge mode"},
		{"bad merge", CConfig{Merge: "never"}, `bad Merge mode "never"`},
		{"aggressive merge", CConfig{Merge: "aggressive"}, `bad Merge mode "aggressive"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestCheckRejectsInvalidConfig pins that Check surfaces validation
// errors on Result.Err instead of silently clamping.
func TestCheckRejectsInvalidConfig(t *testing.T) {
	res := Check("{s 1 + 2 s}", Config{Workers: -1})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "negative Workers") {
		t.Fatalf("Check with Workers=-1: Err = %v, want negative-Workers error", res.Err)
	}
	if _, err := AnalyzeC("int main() { return 0; }", CConfig{MergeCap: 3}); err == nil ||
		!strings.Contains(err.Error(), "without a Merge mode") {
		t.Fatalf("AnalyzeC with orphan MergeCap: err = %v, want merge-cap error", err)
	}
}
