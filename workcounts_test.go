package mix

import (
	"fmt"
	"testing"

	"mix/internal/corpus"
	"mix/internal/summary"
)

// The work claims of mixbench's X8 and X9 tables, as exact counts.
// Counts do not depend on the host, so these cannot flake; the tables
// keep only the wall-clock half of each claim (paired medians).

// TestMergeWorkCounts pins X8: at workers 1, -merge joins collapses
// ladder-k from 2^k explored paths to one merged state after k merges,
// and merges three times on the branch-light vsftpd-12x2 fixpoint.
func TestMergeWorkCounts(t *testing.T) {
	for _, tc := range []struct {
		n             int
		mode          string
		paths, merges int
	}{
		{10, "off", 1024, 0},
		{10, "joins", 1, 10},
		{14, "off", 16384, 0},
		{14, "joins", 1, 14},
	} {
		src, env := ladderInput(tc.n)
		res := Check(src, Config{Mode: StartSymbolic, Env: env, Workers: 1, Merge: tc.mode})
		if res.Err != nil {
			t.Fatalf("ladder-%d %s: %v", tc.n, tc.mode, res.Err)
		}
		if res.Paths != tc.paths || res.Merges != tc.merges {
			t.Errorf("ladder-%d %s: %d paths, %d merges; want %d, %d",
				tc.n, tc.mode, res.Paths, res.Merges, tc.paths, tc.merges)
		}
	}
	src := corpus.SyntheticVsftpd(12, 2)
	for mode, want := range map[string]int{"off": 0, "joins": 3} {
		res, err := AnalyzeC(src, CConfig{Merge: mode})
		if err != nil {
			t.Fatalf("vsftpd-12x2 %s: %v", mode, err)
		}
		if res.Merges != want {
			t.Errorf("vsftpd-12x2 %s: %d merges, want %d", mode, res.Merges, want)
		}
	}
}

// TestMergeCostOnVsftpd pins what keeps X8's vsftpd-12x2 row, joins
// within 5% of off, true on the engine's pool: joins sends no
// component past the interval path, because each merged pointer's
// null test is decided case by case, and allocates within 2% of off,
// because a declined join copies no flows. Before both it sent three
// components to the memo and allocated 4.2% more.
func TestMergeCostOnVsftpd(t *testing.T) {
	src := corpus.SyntheticVsftpd(12, 2)
	var slices [2]int
	var allocs [2]float64
	for i, mode := range []string{"off", "joins"} {
		allocs[i] = testing.AllocsPerRun(3, func() {
			res, err := AnalyzeC(src, CConfig{Merge: mode})
			if err != nil {
				t.Fatalf("vsftpd-12x2 %s: %v", mode, err)
			}
			slices[i] = res.Slices
		})
	}
	if slices != [2]int{} {
		t.Errorf("vsftpd-12x2: %v components reached the memo (off, joins); want none", slices)
	}
	if allocs[1] > 1.02*allocs[0] {
		t.Errorf("vsftpd-12x2: joins allocates %.0f per run, off %.0f; want within 2%%", allocs[1], allocs[0])
	}
}

// TestSummaryWorkCounts pins X9 on the shared-helper family: each of
// the three helpers is summarized once and its summary instantiated at
// every call site; a store warm from disk computes nothing and reads
// all three back. Warnings are identical in every mode. shared-2x4's
// inline leg is left out: it takes tens of seconds.
func TestSummaryWorkCounts(t *testing.T) {
	for _, tc := range []struct {
		calls        int
		instantiated int64
		inline       bool
	}{
		{3, 3, true},
		{4, 4, false},
	} {
		name := fmt.Sprintf("shared-2x%d", tc.calls)
		src := corpus.SharedHelpers(2, tc.calls)
		dir := t.TempDir()
		run := func(mode string, cfg CConfig) CResult {
			t.Helper()
			cfg.Entry, cfg.Merge = "entry", "joins"
			res, err := AnalyzeC(src, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", name, mode, err)
			}
			if res.Degraded {
				t.Fatalf("%s %s degraded: %s", name, mode, res.FaultDetail)
			}
			return res
		}
		run("prime", CConfig{Summaries: true, SummaryStore: summary.NewStore(dir)})

		type counts struct {
			computed, diskHits int
			instantiated       int64
		}
		want := map[string]counts{
			"summaries":      {3, 0, tc.instantiated},
			"summaries-warm": {0, 3, tc.instantiated},
		}
		warnings := map[string]string{}
		for _, mode := range []string{"summaries", "summaries-warm"} {
			cfg := CConfig{Summaries: true}
			if mode == "summaries-warm" {
				cfg.SummaryStore = summary.NewStore(dir)
			}
			res := run(mode, cfg)
			got := counts{res.SummaryComputed, res.SummaryDiskHits, res.SummaryInstantiated}
			if got != want[mode] {
				t.Errorf("%s %s: computed %d, disk hits %d, instantiated %d; want %+v",
					name, mode, got.computed, got.diskHits, got.instantiated, want[mode])
			}
			warnings[mode] = fmt.Sprint(res.Warnings)
		}
		if tc.inline {
			warnings["inline"] = fmt.Sprint(run("inline", CConfig{}).Warnings)
		}
		for mode, w := range warnings {
			if w != warnings["summaries"] {
				t.Errorf("%s: %s warnings %s differ from summaries' %s", name, mode, w, warnings["summaries"])
			}
		}
	}
}
