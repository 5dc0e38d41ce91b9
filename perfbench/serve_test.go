package main

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// TestServeMatchesFacade: serve-mixed judges the daemon's answers with
// the facade workloads' references, so the daemon must decide what the facade
// decides, cold, from its verdict cache and from its warm solver cache,
// with both clients sending at once.
func TestServeMatchesFacade(t *testing.T) {
	c, err := newCatalog()
	if err != nil {
		t.Fatal(err)
	}
	hot, err := hotSet(c, *testSeed)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.stop(); err != nil {
			t.Error(err)
		}
	}()
	tr := &tracer{epoch: time.Now()}
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, in := range hot {
				want, err := in.facade()
				if err != nil {
					t.Errorf("%s: facade: %v", in.name, err)
					continue
				}
				// Cold or cached, then a deadline variant on the warm cache.
				for k, deadline := range []time.Duration{0, 0, time.Minute + time.Duration(w)} {
					root := tr.begin(i, -1, "check")
					r := d.send(in.request(deadline))
					tr.end(root)
					if r.err != nil {
						t.Errorf("%s #%d: %v", in.name, k, r.err)
						continue
					}
					got := r.v
					got.Queries, want.Queries = 0, 0
					if !equalVerdicts(got, want) {
						t.Errorf("%s #%d: daemon %+v, facade %+v", in.name, k, got, want)
					}
					if msg := in.ref(got); msg != "" {
						t.Errorf("%s #%d: wrong verdict: %s", in.name, k, msg)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n, want := len(tr.spans), serveClients*3*len(hot); n != want {
		t.Errorf("%d spans, want %d", n, want)
	}
}

// equalVerdicts compares what a verdict decides; nil and empty lists
// are the same (JSON drops empty lists).
func equalVerdicts(a, b verdict) bool {
	return a.Type == b.Type && a.Error == b.Error && a.Paths == b.Paths && a.Degraded == b.Degraded &&
		slices.Equal(a.Reports, b.Reports) && slices.Equal(a.Warnings, b.Warnings)
}
