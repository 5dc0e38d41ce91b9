package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mix"
	"mix/internal/cliflags"
	"mix/internal/engine"
	"mix/internal/obs"
	"mix/internal/serve"
)

// serve-mixed is a closed loop: serveClients clients, each sending its
// next request when the previous one is answered, carry the stream over
// loopback HTTP to an in-process serve.Server. Latency runs from send to
// verdict. An open loop, first planned, leaves the server idle between
// arrivals, and on the shared 2-CPU host an idle virtual CPU waits for
// the hypervisor to wake it: at 150 requests a second a third of the
// requests went out over 1 ms late in a quiet half hour (p99 lateness
// 35 to 106 ms), four fifths in a busy one (300 to 470 ms), and
// offering 112 a second did not help. A closed loop keeps the
// processor busy, so its times follow the host's speed, which
// calib.go scales out.
const (
	// serveClients is the connection count. With two, on one processor,
	// a verdict-cache hit waited behind the other client's check for up
	// to a scheduler time slice, and the median latency, which falls
	// among the hits, moved 2.5-fold from one window to the next.
	serveClients = 1
	// streamLen is the length of the request stream, which the clients
	// walk round until the run ends; by the time a fresh program comes
	// round again, both caches have turned over many times.
	streamLen = 4000
	// serveWindows is how many windows a serve-mixed run is cut into,
	// with a calibration reading between each two: with ten, the
	// run-to-run spread of the scaled figures was 0.08 to 0.13.
	serveWindows = 30

	// The three shares of the stream, per block of ten requests. A
	// repeat re-sends, byte for byte, a request sent repeatBack or more
	// places earlier, which the verdict cache answers. A deadline
	// variant is a hot program with a deadline that never fires, which
	// misses the verdict cache but reuses the shared engine.Cache. A
	// fresh program is a generated one not sent before, which writes to
	// and evicts from both caches.
	repeatsPerBlock, variantsPerBlock, freshPerBlock = 6, 2, 2
	// A repeat goes back between repeatBack and repeatBack+repeatSpan
	// places: far enough that the first answer is in, near enough that
	// the verdict cache still holds it.
	repeatBack, repeatSpan = 4, 20

	// The verdict cache and the solver memo are sized below the
	// stream's distinct working set: 43 distinct hot programs, and a new
	// key for every deadline variant and fresh program.
	respCacheSize = 64
	memoSize      = 256

	// hotLanggen and hotCgen are the generated programs in the hot set.
	hotLanggen  = 4
	hotCgen     = 6
	hotLadder10 = 5
)

// serveReq is one request of the stream, encoded once in set-up.
type serveReq struct {
	in   *input
	path string
	body []byte
}

// hotSet is the programs the deadline variants draw from: both
// corpora, without their most expensive members. Ladder-10, the most
// expensive member kept, is in the set hotLadder10 times, so that about
// 2% of the stream is ladder-10 and the p99 falls inside that class
// rather than on the boundary between two.
func hotSet(c *catalog, seed int64) ([]*input, error) {
	var ins []*input
	for n := 8; n <= 10; n++ {
		copies := 1
		if n == 10 {
			copies = hotLadder10
		}
		for i := 0; i < copies; i++ {
			ins = append(ins, c.ladder(n))
		}
	}
	for n := 8; n <= 9; n++ {
		pure, mixed := c.deep(n)
		ins = append(ins, pure, mixed)
	}
	ins = append(ins, c.idioms()...)
	ins = append(ins, c.langgen(seed, hotLanggen, "")...)
	ins = append(ins, c.cases()...)
	ins = append(ins, c.shared(3))
	for n := 8; n <= 12; n++ {
		for k := 1; k <= 2; k++ {
			in, err := c.vsftpd(n, k)
			if err != nil {
				return nil, err
			}
			ins = append(ins, in)
		}
	}
	ins = append(ins, c.cgen(seed, hotCgen, "")...)
	return ins, c.err()
}

// freshPrograms generates n distinct programs, half core and half
// MicroC, none of them in the hot set.
func freshPrograms(c *catalog, seed int64, n int, hot []*input) []*input {
	seen := map[string]bool{}
	for _, in := range hot {
		seen[in.text()] = true
	}
	var out []*input
	add := func(ins []*input, want int) {
		for _, in := range ins {
			if want == 0 {
				return
			}
			if !seen[in.text()] {
				seen[in.text()] = true
				out = append(out, in)
				want--
			}
		}
	}
	// Small generated programs repeat now and then; draw twice the need.
	add(c.langgen(seed^0x5eed, n, "fresh-"), n/2)
	add(c.cgen(seed^0x5eed, n, "fresh-"), n-len(out))
	return out
}

func (in *input) text() string {
	if in.core != nil {
		return in.core.src
	}
	return in.src
}

// request encodes in with the workload's options — those of the
// facade workloads — and the given deadline (0 = the server's
// default).
func (in *input) request(deadline time.Duration) serveReq {
	req := serve.Request{Source: in.text()}
	req.Workers = 1
	req.Deadline = cliflags.Duration(deadline)
	path := "/analyze"
	if c := in.core; c != nil {
		path = "/check"
		req.Symbolic = c.mode == mix.StartSymbolic
		if len(c.env) > 0 {
			req.Env = c.env
		}
	} else {
		req.Merge = "joins"
		req.Summaries = true
	}
	body, _ := json.Marshal(req) // a struct of strings, ints and bools
	return serveReq{in: in, path: path, body: body}
}

// stream draws the request sequence for seed. Each block of ten has
// the same shares in a seeded order, and the deadline variants walk the
// hot set in seeded permutations, so every seed's stream has the same
// composition and the seed changes only the order and the generated
// programs.
func stream(seed int64, n int, hot, fresh []*input) []serveReq {
	rng := rand.New(rand.NewSource(seed))
	block := make([]int, 0, 10)
	for kind, count := range []int{repeatsPerBlock, variantsPerBlock, freshPerBlock} {
		for i := 0; i < count; i++ {
			block = append(block, kind)
		}
	}
	var perm []int
	reqs := make([]serveReq, n)
	f := 0
	for i := range reqs {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		kind := block[i%len(block)]
		if kind == 0 && i < repeatBack+repeatSpan {
			kind = 1 // nothing old enough to repeat yet
		}
		switch kind {
		case 0:
			reqs[i] = reqs[i-repeatBack-rng.Intn(repeatSpan)]
		case 1:
			if len(perm) == 0 {
				perm = rng.Perm(len(hot))
			}
			reqs[i] = hot[perm[0]].request(30*time.Second + time.Duration(i)*time.Millisecond)
			perm = perm[1:]
		default:
			reqs[i] = fresh[f%len(fresh)].request(0)
			f++
		}
	}
	return reqs
}

// daemon is a serve.Server listening on a loopback port, and a client
// limited to serveClients connections.
type daemon struct {
	srv    *serve.Server
	reg    *obs.Registry
	hs     *http.Server
	done   chan error
	url    string
	client *http.Client
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv := serve.New(serve.Options{ResponseCacheSize: respCacheSize, MemoSize: memoSize, Registry: reg})
	d := &daemon{
		srv:  srv,
		reg:  reg,
		hs:   &http.Server{Handler: srv.Handler()},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveClients,
			MaxIdleConnsPerHost: serveClients,
			DisableCompression:  true,
		}},
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the server down and waits for it and its connections.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// reply is one answered request as the client saw it.
type reply struct {
	v      verdict
	err    error
	rtt    time.Duration // HTTP round trip, body read included
	server time.Duration // the response's latency_ns
	cached bool
}

func (d *daemon) send(r serveReq) reply {
	t0 := time.Now()
	resp, err := d.client.Post(d.url+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return reply{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep := reply{rtt: time.Since(t0)}
	switch {
	case err != nil:
		rep.err = err
		return rep
	case resp.StatusCode != http.StatusOK:
		rep.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return rep
	}
	var out serve.Response
	if err := json.Unmarshal(body, &out); err != nil {
		rep.err = err
		return rep
	}
	rep.server, rep.cached = time.Duration(out.LatencyNS), out.Cached
	switch {
	case out.Check != nil:
		c := out.Check
		rep.v = verdict{Type: c.Type, Error: c.Error, Reports: c.Reports, Paths: c.Paths, Queries: c.SolverQueries, Degraded: c.Degraded}
	case out.Analyze != nil:
		a := out.Analyze
		rep.v = verdict{Warnings: a.Warnings, Queries: a.SolverQueries, Degraded: a.Degraded}
	default:
		rep.err = errors.New("response carries no result")
	}
	return rep
}

// serveCounters is a reading of the server's registry and shared cache.
type serveCounters struct {
	requests, cached, rejected, degraded int64
	cache                                engine.CacheStats
}

func (d *daemon) counters() serveCounters {
	c := func(name string) int64 { return d.reg.Counter(name).Value() }
	return serveCounters{
		requests: c("serve.requests"),
		cached:   c("serve.responses.cached"),
		rejected: c("serve.rejected.ratelimit") + c("serve.rejected.draining"),
		degraded: c("serve.responses.degraded"),
		cache:    d.srv.Cache().Stats(),
	}
}

// runServe measures serve-mixed. Set-up generates the hot set, the
// fresh programs and the stream, starts the server and sends every hot
// program once; it runs setupReps times, each time on a new server.
func runServe(seed int64, dur time.Duration, traced bool) (*report, error) {
	rep := &report{}
	rep.host()
	var d *daemon
	var reqs []serveReq
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		c, err := newCatalog()
		if err != nil {
			return nil, err
		}
		hot, err := hotSet(c, seed)
		if err != nil {
			return nil, err
		}
		nFresh := streamLen*freshPerBlock/10 + freshPerBlock
		reqs = stream(seed, streamLen, hot, freshPrograms(c, seed, nFresh, hot))
		if d, err = startDaemon(); err != nil {
			return nil, err
		}
		for _, in := range hot {
			r := d.send(in.request(0))
			if r.err != nil {
				d.stop()
				return nil, fmt.Errorf("warm-up %s: %w", in.name, r.err)
			}
			rep.judge(in, r.v)
		}
		setups = append(setups, time.Since(t0))
		rep.calibrate()
	}
	defer d.stop()

	lats := make([][]time.Duration, serveClients) // send to verdict
	done := make([][]time.Time, serveClients)     // when the verdict came
	rss := make([][]float64, serveClients)        // resident set after it, MiB
	replies := make([][]reply, serveClients)
	ids := make([][]int, serveClients)
	tr := &tracer{epoch: time.Now()}

	runtime.GC()
	c0 := d.counters()
	u0 := readUsage()
	start := time.Now()
	var next atomic.Int64
	var stop atomic.Bool
	var pause sync.RWMutex // held by each request, and by a calibration reading
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pause.RLock()
				if stop.Load() {
					pause.RUnlock()
					return
				}
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				var r reply
				if traced && i%2 == 0 {
					root := tr.begin(i, -1, "check")
					s := tr.begin(i, root, "serve.rtt")
					r = d.send(reqs[i%len(reqs)])
					tr.end(s)
					tr.end(root)
				} else {
					r = d.send(reqs[i%len(reqs)])
				}
				now := time.Now()
				ids[c] = append(ids[c], i)
				lats[c] = append(lats[c], now.Sub(t0))
				done[c] = append(done[c], now)
				rss[c] = append(rss[c], residentMB())
				replies[c] = append(replies[c], r)
				pause.RUnlock()
			}
		}()
	}
	// This goroutine sleeps while the clients and the server keep the
	// processor busy. At the end of each window it waits for the
	// requests in flight, and, in the untraced run, takes a calibration
	// reading before the next window starts.
	type mark struct {
		t   time.Time
		cpu time.Duration
	}
	from, to := []mark{{start, u0.cpu}}, []mark(nil)
	for k := 1; k <= serveWindows; k++ {
		time.Sleep(time.Until(from[k-1].t.Add(dur / serveWindows)))
		pause.Lock()
		to = append(to, mark{time.Now(), readUsage().cpu})
		if k == serveWindows {
			stop.Store(true)
		} else if !traced {
			rep.calibrate()
		}
		from = append(from, mark{time.Now(), readUsage().cpu})
		pause.Unlock()
	}
	wg.Wait()
	u1 := readUsage()
	c1 := d.counters()

	ws := make([]window, serveWindows)
	var all []time.Duration
	var rtt, server time.Duration
	n := 0
	for c := range replies {
		for j, r := range replies[c] {
			i := ids[c][j]
			rep.tally(reqs[i%len(reqs)].in, r.v, r.err)
			rtt += r.rtt
			server += r.server
			n++
			// A request belongs to the window its verdict came in.
			k := sort.Search(serveWindows-1, func(k int) bool { return done[c][j].Before(to[k].t) })
			ws[k].lats = append(ws[k].lats, lats[c][j])
			ws[k].rss = max(ws[k].rss, rss[c][j])
			all = append(all, lats[c][j])
		}
	}
	if traced {
		var withSpans, without []time.Duration
		for c := range lats {
			for j, l := range lats[c] {
				if ids[c][j]%2 == 0 {
					withSpans = append(withSpans, l)
				} else {
					without = append(without, l)
				}
			}
		}
		m := map[string]float64{
			"serve.rtt_ms":                    ms(rtt) / float64(n),
			"serve.server_ms":                 ms(server) / float64(n),
			"serve.wait_ms":                   ms(rtt-server) / float64(n),
			"serve.verdict_hit_frac":          ratio(float64(c1.cached), float64(c1.requests-c0.requests), float64(c0.cached)),
			"serve.solvercache.memo_hit_frac": ratio(float64(c1.cache.MemoHits), float64(c1.cache.MemoHits+c1.cache.MemoMisses-c0.cache.MemoHits-c0.cache.MemoMisses), float64(c0.cache.MemoHits)),
			"serve.solvercache.memo_entries":  float64(c1.cache.MemoEntries),
			"serve.solvercache.evictions":     float64(c1.cache.Evictions - c0.cache.Evictions),
			"serve.rejected":                  float64(c1.rejected - c0.rejected),
			"serve.degraded":                  float64(c1.degraded - c0.degraded),
			"trace.coverage_frac":             tr.coverage(),
			"trace.overhead_frac":             float64(quantile(withSpans, 0.5))/float64(quantile(without, 0.5)) - 1,
		}
		rep.goMetrics(m, u0, u1)
		if err := tr.write(fmt.Sprintf(".bench_build/trace-serve-mixed-%d.jsonl", seed)); err != nil {
			return nil, err
		}
		rep.perLayer(m)
		return rep, nil
	}

	for k := range ws {
		ws[k].wall = to[k].t.Sub(from[k].t)
		ws[k].cpu = to[k].cpu - from[k].cpu
	}
	rep.endToEnd(ws, all, setups)
	// The median latency falls among verdict-cache hits, whose latency
	// swung between about 0.15 and 0.4 ms in phases several windows long;
	// the median of the window medians jumped with them, the median of
	// every request of the run moves with the share of time spent in
	// each.
	rep.metrics["latency_p50_ms"] = metric{ms(quantile(all, 0.5)) * rep.scale(), "ms"}
	rep.notef("%-24s %d clients, a stream of %d requests, %d sent", "load", serveClients, len(reqs), n)
	return rep, nil
}
