// Command perfbench is the benchmark of MIX. One invocation runs one
// named workload against the mix facade or the serve daemon, checks
// every verdict against a reference that does not come from the
// checker, and prints the run's metrics:
//
//	bash perfbench/run.sh --workload core-explore --seed 1 --seconds 30 --trace 0
//
// The workloads are core-explore and mixy-solve, closed loops through
// mix.Check and mix.AnalyzeC, and serve-mixed, a closed loop against an
// in-process serve.Server over loopback HTTP. With --trace 0 it reports
// the end-to-end metrics, scaled for the host's speed (calib.go). With
// --trace 1 it is a separate traced run: each core-explore and
// mixy-solve check also runs layer by layer with a span around every
// layer call, and each other serve-mixed request has a span around its
// HTTP round trip. That gives the per-layer metrics, the
// share of end-to-end time the layer spans cover, and the tracing
// overhead.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a wrong verdict makes the exit
// status non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// setupReps is how many times a run sets its workload up; setup_s
	// is the median.
	setupReps = 5
	// minChecks keeps at least ten samples beyond the p99.
	minChecks = 1000
	// windows is how many slices a run's measured time is cut into.
	// The throughput, CPU and median-latency metrics are medians over
	// the slices, so a burst of load from elsewhere on the host moves
	// one slice, not the result.
	windows = 10
	// procs is the GOMAXPROCS of every run. The host's two CPUs are
	// shared with other machines' work: at GOMAXPROCS 2 the garbage
	// collector runs on the second CPU, and one busy process beside the
	// benchmark cut mixy-solve's throughput by a third. At GOMAXPROCS 1
	// it did not move it.
	procs = 1
)

func main() {
	workload := flag.String("workload", "", "workload: core-explore, mixy-solve or serve-mixed")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 30, "seconds to measure")
	trace := flag.Int("trace", 0, "1 = traced run, reporting the per-layer metrics")
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	d := time.Duration(*seconds * float64(time.Second))
	var rep *report
	var err error
	switch *workload {
	case "core-explore", "mixy-solve":
		rep, err = runClosed(*workload, *seed, d, *trace == 1)
	case "serve-mixed":
		rep, err = runServe(*seed, d, *trace == 1)
	default:
		err = fmt.Errorf("unknown workload %q (want core-explore, mixy-solve or serve-mixed)", *workload)
	}
	if err == nil {
		err = rep.print(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.wrong > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong verdicts\n", rep.wrong)
		os.Exit(1)
	}
}

// window is one slice of a run: its checks' latencies, wall time and
// process CPU time.
type window struct {
	lats      []time.Duration
	wall, cpu time.Duration
	rss       float64 // largest resident set sampled after a check, MiB
}

// runClosed measures a closed loop with one client: each check starts
// when the previous one has returned its verdict. Every pass visits
// each input once, in a seeded order; a window closes at the end of the
// first pass that takes it past its share of the run.
func runClosed(workload string, seed int64, d time.Duration, traced bool) (*report, error) {
	rep := &report{}
	rep.host()
	var ins []*input
	var setups []time.Duration
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if ins, err = buildInputs(workload, seed); err != nil {
			return nil, err
		}
		// Warm-up: every input once through the facade, verdicts judged.
		for _, in := range ins {
			v, err := in.facade()
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", in.name, err)
			}
			rep.judge(in, v)
		}
		setups = append(setups, time.Since(t0))
	}
	rng := rand.New(rand.NewSource(seed))
	order := append([]*input(nil), ins...)
	shuffle := func() { rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] }) }

	var ws []window
	var plain, tracedLats []time.Duration
	tr := &tracer{epoch: time.Now()}
	ls := newLayerStats()
	runtime.GC()
	u0 := readUsage()
	start := time.Now()
	w, wStart, wCPU := window{}, start, u0.cpu
	for pass := 0; time.Since(start) < d || len(plain) < minChecks; pass++ {
		shuffle()
		for j, in := range order {
			// The traced run checks each input both ways, alternating
			// which goes first, so both sets see the same inputs.
			for k := 0; k < 2; k++ {
				if traced && (pass+j+k)%2 == 0 {
					id := len(tracedLats)
					root := tr.begin(id, -1, "check")
					v, err := in.traced(tr, root, ls)
					tr.end(root)
					tracedLats = append(tracedLats, tr.spans[root].dur())
					rep.tally(in, v, err)
					continue
				}
				if k == 1 && !traced {
					continue
				}
				t0 := time.Now()
				v, err := in.facade()
				lat := time.Since(t0)
				plain = append(plain, lat)
				w.lats = append(w.lats, lat)
				w.rss = max(w.rss, residentMB())
				rep.tally(in, v, err)
			}
		}
		if !traced {
			// A calibration reading after every pass, kept out of the
			// run's and the window's times.
			t0, cpu0 := time.Now(), readUsage().cpu
			rep.calibrate()
			pause := time.Since(t0)
			start, wStart = start.Add(pause), wStart.Add(pause)
			wCPU += readUsage().cpu - cpu0
		}
		if now := time.Since(wStart); now >= d/windows {
			cpu := readUsage().cpu
			w.wall, w.cpu = now, cpu-wCPU
			ws = append(ws, w)
			w, wStart, wCPU = window{}, time.Now(), cpu
		}
	}
	u1 := readUsage()
	if len(ws) == 0 {
		ws = append(ws, window{})
	}
	if len(w.lats) > 0 {
		// The last passes end short of a whole window: they join the
		// window before them.
		last := &ws[len(ws)-1]
		last.lats = append(last.lats, w.lats...)
		last.wall += time.Since(wStart)
		last.cpu += u1.cpu - wCPU
		last.rss = max(last.rss, w.rss)
	}
	if traced {
		m := layerMetrics(tr, ls)
		rep.goMetrics(m, u0, u1)
		m["trace.coverage_frac"] = tr.coverage()
		m["trace.overhead_frac"] = float64(quantile(tracedLats, 0.5))/float64(quantile(plain, 0.5)) - 1
		for name, lt := range tr.layers() {
			rep.notef("span %-20s busy %9.4f ms  self %9.4f ms per check", name, ms(lt.busy)/float64(ls.checks), ms(lt.self)/float64(ls.checks))
		}
		if err := tr.write(fmt.Sprintf(".bench_build/trace-%s-%d.jsonl", workload, seed)); err != nil {
			return nil, err
		}
		rep.perLayer(m)
		return rep, nil
	}
	rep.endToEnd(ws, plain, setups)
	return rep, nil
}

// metric is one reported number and its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome: the check counts behind the result's
// correct/attempted/failed fields, and the metrics of the run's mode.
type report struct {
	attempted, failed, wrong int
	cals                     []time.Duration // calibration readings

	names   []string
	metrics map[string]metric
	notes   []string
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd sets the end-to-end metrics, times and rates scaled to the
// reference host (see calib.go). The p99 is taken over every sample of
// the run, which is what keeps ten samples beyond it; the other time
// and rate metrics, and the peak resident set, are medians over the
// windows. A window's peak resident set is the largest of its samples.
// The process's own peak hangs on when single garbage collections
// fell: over five runs of one seed it read 23.7 to 32.1 MiB, while
// the window median spread by 3% over five seeds.
func (r *report) endToEnd(ws []window, all, setups []time.Duration) {
	var p50, rate, cpu, rss []float64
	for _, w := range ws {
		p50 = append(p50, ms(quantile(w.lats, 0.5)))
		rate = append(rate, float64(len(w.lats))/w.wall.Seconds())
		cpu = append(cpu, ms(w.cpu)/float64(len(w.lats)))
		rss = append(rss, w.rss)
	}
	f := r.scale()
	r.notef("%-24s %.4g 1/s", "window rates", rate) // in time order; median sorts
	r.notef("%-24s %.4g ms", "window p50s", p50)
	r.notef("%-24s %.4g ms, scale %.4f", "calibration readings", durations(r.cals), f)
	r.set("latency_p50_ms", median(p50)*f, "ms")
	r.set("latency_p99_ms", ms(quantile(all, 0.99))*f, "ms")
	r.set("checks_per_s", median(rate)/f, "1/s")
	r.set("cpu_ms_per_check", median(cpu)*f, "ms")
	r.set("peak_rss_mb", median(rss), "MiB")
	r.set("setup_s", quantile(setups, 0.5).Seconds()*f, "s")
	n := len(all)
	r.notef("%-24s %d in %d windows (%d beyond p99)", "samples", n, len(ws), n-int(math.Ceil(0.99*float64(n))))
	r.notef("%-24s %d count", "wrong_verdicts", r.wrong)
	r.notef("%-24s %.6g ratio", "failed_frac", float64(r.failed)/float64(r.attempted))
}

// perLayer sets every per-layer metric; a layer the workload does not
// reach reads 0.
func (r *report) perLayer(m map[string]float64) {
	for _, l := range perLayer {
		r.set(l.name, m[l.name], l.unit)
	}
}

// goMetrics adds the Go runtime's allocation and GC figures between two
// readings.
func (r *report) goMetrics(m map[string]float64, u0, u1 usage) {
	m["go.alloc_mb_per_check"] = (u1.allocs - u0.allocs) / (1 << 20) / float64(r.attempted)
	m["go.gc_cpu_frac"] = ratio(u1.gcCPU, (u1.cpu - u0.cpu).Seconds(), u0.gcCPU)
}

func (r *report) host() {
	r.notef("host: nproc %d, GOMAXPROCS %d, %s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tally counts one measured check: an error or a degraded verdict is a
// failure, any other verdict is judged against the reference.
func (r *report) tally(in *input, v verdict, err error) {
	r.attempted++
	switch {
	case err != nil:
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", in.name, err)
	case v.Degraded:
		r.failed++
	default:
		r.judge(in, v)
	}
}

func (r *report) judge(in *input, v verdict) {
	if msg := in.ref(v); msg != "" {
		r.wrong++
		fmt.Fprintf(os.Stderr, "perfbench: wrong verdict on %s: %s\n", in.name, msg)
	}
}

// print writes the notes and the metrics for people, then the result
// object as the last line.
func (r *report) print(w io.Writer) error {
	for _, line := range r.notes {
		fmt.Fprintln(w, line)
	}
	for _, name := range r.names {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-32s %.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.wrong == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the q-quantile of xs by nearest rank, sorting xs.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[max(int(math.Ceil(q*float64(len(xs))))-1, 0)]
}

// median is the median of xs, sorting xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n := len(xs); n%2 == 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return xs[len(xs)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio is (a-base)/b, or 0 when b is 0.
func ratio(a, b, base float64) float64 {
	if b == 0 {
		return 0
	}
	return (a - base) / b
}

// usage is a reading of the process's CPU time and of the Go runtime's
// cumulative allocation and GC CPU counters.
type usage struct {
	cpu    time.Duration
	allocs float64 // heap bytes allocated
	gcCPU  float64 // CPU seconds spent on GC
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: float64(s[0].Value.Uint64()),
		gcCPU:  s[1].Value.Float64(),
	}
}

// residentMB is the process's resident set now, in MiB, or the
// largest it has been where /proc/self/statm cannot be read.
func residentMB() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
