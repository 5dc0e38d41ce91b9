package fault

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// Point is a fixed fault-injection site. The stack threads an Injector
// down to each of these places; chaos tests arm them to force every
// failure mode deterministically.
type Point uint8

const (
	// PreFork fires in engine.Charge, before a conditional fork is
	// admitted.
	PreFork Point = iota
	// PreSolve fires in the solver pool at query entry, before the
	// interval/memo fast paths, so a planned fault reaches every query.
	PreSolve
	// MidSearch fires inside the solver's decision loop, on the same
	// cadence as its context poll.
	MidSearch
	// FixpointIter fires at the top of each MIXY fixed-point iteration.
	FixpointIter

	numPoints = int(FixpointIter) + 1
)

var pointNames = [numPoints]string{"pre-fork", "pre-solve", "mid-search", "fixpoint-iter"}

func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return "fault.Point(?)"
}

// Plan arms one injection point deterministically: starting with the
// After-th visit (1-based), inject Count faults (0 = every visit from
// then on) of the given Class. With Panic set the injection panics
// with the fault instead of returning it, exercising the worker panic
// recovery path.
type Plan struct {
	After int64
	Count int64
	Class Class
	Panic bool
}

type planState struct {
	Plan
	visits   atomic.Int64
	injected atomic.Int64
}

// Injector drives deterministic fault injection. Construct with
// NewInjector; a nil *Injector is inert, so production paths pass nil
// and pay one pointer test per site. Safe for concurrent use.
type Injector struct {
	plans [numPoints]*planState

	// probabilistic mode: seeded PRNG under a mutex. Call order still
	// decides outcomes, so this mode is reproducible only for
	// single-worker runs; the deterministic Plan mode is what the
	// workers=1-vs-N chaos assertions use.
	mu     sync.Mutex
	rng    *rand.Rand
	chance [numPoints]float64
	chCls  [numPoints]Class

	counters Counters
}

// NewInjector returns an injector whose probabilistic mode is seeded
// with seed. Arm points with Plan or Chance.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Plan arms point p with a deterministic plan; returns the injector
// for chaining.
func (in *Injector) Plan(p Point, pl Plan) *Injector {
	if pl.After <= 0 {
		pl.After = 1
	}
	in.plans[p] = &planState{Plan: pl}
	return in
}

// Chance arms point p probabilistically: each visit injects a fault of
// class c with probability prob, drawn from the seeded PRNG.
func (in *Injector) Chance(p Point, prob float64, c Class) *Injector {
	in.chance[p] = prob
	in.chCls[p] = c
	return in
}

// Counters exposes the per-class counts of injected faults.
func (in *Injector) Counters() *Counters {
	if in == nil {
		return nil
	}
	return &in.counters
}

// At visits injection point p: it returns a classified fault (or
// panics with one, under a Panic plan) when the point's plan or chance
// says to, and nil otherwise. Nil-safe.
func (in *Injector) At(p Point) error {
	if in == nil {
		return nil
	}
	if ps := in.plans[p]; ps != nil {
		n := ps.visits.Add(1)
		if n >= ps.After && (ps.Count == 0 || ps.injected.Load() < ps.Count) {
			ps.injected.Add(1)
			return in.fire(p, ps.Class, ps.Panic)
		}
	}
	if prob := in.chance[p]; prob > 0 {
		in.mu.Lock()
		hit := in.rng.Float64() < prob
		in.mu.Unlock()
		if hit {
			return in.fire(p, in.chCls[p], false)
		}
	}
	return nil
}

func (in *Injector) fire(p Point, c Class, doPanic bool) error {
	if doPanic {
		c = WorkerPanic
	} else if c == None {
		c = SolverLimit
	}
	in.counters.Record(c)
	f := &Fault{Class: c, Op: "inject." + p.String(), Budget: "injected"}
	if doPanic {
		panic(f)
	}
	return f
}
