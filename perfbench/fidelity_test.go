package main

import (
	"flag"
	"reflect"
	"testing"
	"time"
)

// testSeed draws the generated inputs of the tests; pass another with
// go test -args -seed N.
var testSeed = flag.Int64("seed", 424242, "seed of the generated inputs")

// TestTracedPathMatchesFacade: the traced run calls the layers directly,
// so it must decide exactly what the facade decides — verdicts, paths
// and solver-query counts — or the per-layer split would describe other
// work than the end-to-end metrics measure.
func TestTracedPathMatchesFacade(t *testing.T) {
	for _, workload := range []string{"core-explore", "mixy-solve"} {
		ins, err := buildInputs(workload, *testSeed)
		if err != nil {
			t.Fatal(err)
		}
		tr := &tracer{epoch: time.Now()}
		ls := newLayerStats()
		for i, in := range ins {
			want, err := in.facade()
			if err != nil {
				t.Fatalf("%s: facade: %v", in.name, err)
			}
			root := tr.begin(i, -1, "check")
			got, err := in.traced(tr, root, ls)
			tr.end(root)
			if err != nil {
				t.Fatalf("%s: traced: %v", in.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: traced %+v, facade %+v", in.name, got, want)
			}
			if msg := in.ref(want); msg != "" {
				t.Errorf("%s: wrong verdict: %s", in.name, msg)
			}
		}
	}
}
