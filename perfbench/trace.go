package main

import (
	"sort"
	"strings"
	"time"
)

// counters are named numbers read from the engines after one layer call:
// work done (SAT propagations, BDD cache lookups, states explored) and
// resources used. Their names are the per-layer metric names.
type counters map[string]float64

// peakCounters combine by maximum, every other counter by sum.
var peakCounters = map[string]bool{
	"bdd.nodes_peak":   true,
	"bdd.unique_size":  true,
	"gcl.state_bits":   true,
	"bmc.clique_depth": true,
}

func (c counters) add(o counters) {
	for k, v := range o {
		if peakCounters[k] {
			c[k] = max(c[k], v)
		} else {
			c[k] += v
		}
	}
}

// span is one timed layer call (or one of the benchmark's own grouping
// spans, whose names start with "bench."). Its id is its index in the
// recorder's span list.
type span struct {
	id, parent, root int
	name, label      string
	start, end       time.Duration
	counters         counters
}

// recorder drives every layer call. In both modes it sums the counters the
// calls return, overall and per operation; when tracing it also records a
// span around each call. The calls themselves are the same in both modes.
type recorder struct {
	tracing bool
	epoch   time.Time
	spans   []span
	open    []int // ids of the spans enclosing the current call

	total counters // summed over every call since the last reset
	op    counters // summed over the calls of the operation in progress
}

func newRecorder(tracing bool) *recorder {
	return &recorder{tracing: tracing, epoch: time.Now(), total: counters{}}
}

func (r *recorder) begin(name, label string) int {
	if !r.tracing {
		return -1
	}
	s := span{id: len(r.spans), parent: -1, name: name, label: label, start: time.Since(r.epoch)}
	s.root = s.id
	if n := len(r.open); n > 0 {
		s.parent = r.open[n-1]
		s.root = r.spans[s.parent].root
	}
	r.spans = append(r.spans, s)
	r.open = append(r.open, s.id)
	return s.id
}

func (r *recorder) end(id int, c counters) {
	if id < 0 {
		return
	}
	r.spans[id].end = time.Since(r.epoch)
	r.spans[id].counters = c
	r.open = r.open[:len(r.open)-1]
}

// call runs one layer call and charges the counters it returns.
func (r *recorder) call(name string, fn func() (counters, error)) error {
	id := r.begin(name, "")
	c, err := fn()
	r.end(id, c)
	r.total.add(c)
	if r.op != nil {
		r.op.add(c)
	}
	return err
}

// operation groups the layer calls of one benchmark operation under a
// bench.op span and returns the counters they charged.
func (r *recorder) operation(label string, fn func() error) (counters, error) {
	id := r.begin("bench.op", label)
	r.op = counters{}
	err := fn()
	c := r.op
	r.op = nil
	r.end(id, nil)
	return c, err
}

// group runs fn under a root span (bench.setup, bench.pass, bench.verify)
// and returns that span's id (-1 when not tracing).
func (r *recorder) group(name string, fn func() error) (int, error) {
	id := r.begin(name, "")
	err := fn()
	r.end(id, nil)
	return id, err
}

// selfTimes sums, per span name, the self time in seconds of the spans
// under root: a span's duration minus the part its children cover.
func (r *recorder) selfTimes(root int) map[string]float64 {
	children := make(map[int]time.Duration)
	for _, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]float64)
	for _, s := range r.spans {
		if s.root == root {
			out[s.name] += (s.end - s.start - children[s.id]).Seconds()
		}
	}
	return out
}

// coverage is the share of the root span's time spent in layer spans,
// that is, not in the benchmark's own bench.* spans.
func (r *recorder) coverage(root int) float64 {
	wall := (r.spans[root].end - r.spans[root].start).Seconds()
	if wall <= 0 {
		return 0
	}
	bench := 0.0
	for name, t := range r.selfTimes(root) {
		if strings.HasPrefix(name, "bench.") {
			bench += t
		}
	}
	return (wall - bench) / wall
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
