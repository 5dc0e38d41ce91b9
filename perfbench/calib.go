package main

import (
	"runtime"
	"sort"
	"strconv"
	"time"
)

// The host's speed drifts. Its two CPUs are shared with other
// machines' work, and while arithmetic runs at a steady speed, work
// that allocates and chases pointers, like the checker's, ran at up to
// 1.7 times the speed of a few minutes before. No median inside a run
// removes that from a run's figures. So a run also times a fixed
// calibration kernel of that kind, which no change to the program can
// speed up or slow down, many times over its course, and scales its
// time metrics to a host on which the kernel takes calibrationRef:
// each time is multiplied by calibrationRef over the median kernel
// time, each rate divided by it. Over five mixy-solve runs whose
// median latency read 15.7 to 20.2 ms, the scaled figure read 13.2 to
// 14.0 ms.
const (
	// calibrationRef is about the kernel's median time on the 2-CPU
	// host, so that scaled figures read close to measured ones.
	calibrationRef = 10 * time.Millisecond
	// calibrationReps is how many times the kernel runs at a reading.
	calibrationReps = 5
)

var calibrationSink int

// calibrationKernel maps fresh string keys to tree nodes, links the
// nodes into a binary search tree and sorts the keys: small
// allocations, hashing and pointer chasing, with a fixed amount of
// work.
func calibrationKernel() {
	type node struct {
		l, r *node
		k    string
	}
	m := make(map[string]*node)
	var root *node
	for i := 0; i < 10000; i++ {
		k := strconv.Itoa(i*7919%100003) + "/k"
		n := &node{k: k}
		m[k] = n
		p := &root
		for *p != nil {
			if k < (*p).k {
				p = &(*p).l
			} else {
				p = &(*p).r
			}
		}
		*p = n
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	calibrationSink += len(keys)
}

// calibrate takes one reading: the median of calibrationReps kernel
// runs. It collects the program's garbage first, so that the reading
// depends little on the state of the program's heap.
func (r *report) calibrate() {
	runtime.GC()
	ds := make([]time.Duration, calibrationReps)
	for i := range ds {
		t0 := time.Now()
		calibrationKernel()
		ds[i] = time.Since(t0)
	}
	r.cals = append(r.cals, quantile(ds, 0.5))
}

// scale is calibrationRef over the median reading: the factor that
// takes the run's times to the reference host.
func (r *report) scale() float64 {
	if len(r.cals) == 0 {
		return 1
	}
	return float64(calibrationRef) / float64(quantile(append([]time.Duration(nil), r.cals...), 0.5))
}
