package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/obs"
)

// memRecorder is an in-memory obs.Recorder for the traced run. It keeps
// only aggregates: per span name the count, the summed duration and the
// sums of its numeric attributes; counters; and every histogram
// observation, so percentiles are exact rather than bucketed.
type memRecorder struct {
	mu       sync.Mutex
	spans    map[string]*spanAgg
	counters map[string]*memCounter
	hists    map[string]*memHist
}

type spanAgg struct {
	n       int
	total   time.Duration
	attrSum map[string]float64
	attrN   map[string]int
}

func newMemRecorder() *memRecorder {
	return &memRecorder{
		spans:    make(map[string]*spanAgg),
		counters: make(map[string]*memCounter),
		hists:    make(map[string]*memHist),
	}
}

func (r *memRecorder) Enabled() bool { return true }

func (r *memRecorder) Span(name string, attrs ...obs.Attr) obs.Span {
	return &memSpan{rec: r, name: name, start: time.Now(), attrs: attrs}
}

func (r *memRecorder) Counter(name string) obs.Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &memCounter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns a no-op: no reported metric is a point-in-time value.
func (r *memRecorder) Gauge(string) obs.Gauge { return obs.Nop.Gauge("") }

func (r *memRecorder) Histogram(name string, _ []float64) obs.Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &memHist{}
		r.hists[name] = h
	}
	return h
}

func (r *memRecorder) Flush() error { return nil }

func (r *memRecorder) spanEnded(name string, d time.Duration, attrs []obs.Attr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.spans[name]
	if !ok {
		a = &spanAgg{attrSum: make(map[string]float64), attrN: make(map[string]int)}
		r.spans[name] = a
	}
	a.n++
	a.total += d
	for _, at := range attrs {
		v, ok := numeric(at.Value)
		if !ok {
			continue
		}
		a.attrSum[at.Key] += v
		a.attrN[at.Key]++
	}
}

func numeric(v any) (float64, bool) {
	switch x := v.(type) {
	case int:
		return float64(x), true
	case uint64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// merge folds o's aggregates into r.
func (r *memRecorder) merge(o *memRecorder) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for name, a := range o.spans {
		r.mu.Lock()
		b, ok := r.spans[name]
		if !ok {
			b = &spanAgg{attrSum: make(map[string]float64), attrN: make(map[string]int)}
			r.spans[name] = b
		}
		b.n += a.n
		b.total += a.total
		for k, v := range a.attrSum {
			b.attrSum[k] += v
			b.attrN[k] += a.attrN[k]
		}
		r.mu.Unlock()
	}
	for name, c := range o.counters {
		r.Counter(name).Add(c.v.Load())
	}
	for name, h := range o.hists {
		dst := r.Histogram(name, nil).(*memHist)
		h.mu.Lock()
		vals := append([]float64(nil), h.vals...)
		h.mu.Unlock()
		dst.mu.Lock()
		dst.vals = append(dst.vals, vals...)
		dst.mu.Unlock()
	}
}

// spanMs returns the summed duration of a span name in milliseconds.
func (r *memRecorder) spanMs(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a, ok := r.spans[name]; ok {
		return float64(a.total) / 1e6
	}
	return 0
}

// spanCount returns how many spans of a name ended.
func (r *memRecorder) spanCount(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a, ok := r.spans[name]; ok {
		return a.n
	}
	return 0
}

// attrMean returns the mean of a numeric attribute over the spans of a name
// that carried it, and how many did.
func (r *memRecorder) attrMean(span, key string) (float64, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.spans[span]
	if !ok || a.attrN[key] == 0 {
		return 0, 0
	}
	return a.attrSum[key] / float64(a.attrN[key]), a.attrN[key]
}

// counter returns a counter's value (0 when never created).
func (r *memRecorder) counter(name string) float64 {
	r.mu.Lock()
	c, ok := r.counters[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	return float64(c.v.Load())
}

// counterSum sums every counter whose name matches pred.
func (r *memRecorder) counterSum(pred func(string) bool) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := 0.0
	for name, c := range r.counters {
		if pred(name) {
			s += float64(c.v.Load())
		}
	}
	return s
}

// hist returns a copy of a histogram's observations.
func (r *memRecorder) hist(name string) []float64 {
	r.mu.Lock()
	h, ok := r.hists[name]
	r.mu.Unlock()
	if !ok {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.vals...)
}

type memSpan struct {
	rec   *memRecorder
	name  string
	start time.Time
	attrs []obs.Attr
	ended bool
}

func (s *memSpan) SetAttrs(attrs ...obs.Attr) { s.attrs = append(s.attrs, attrs...) }

func (s *memSpan) End() {
	if s.ended {
		return
	}
	s.ended = true
	s.rec.spanEnded(s.name, time.Since(s.start), s.attrs)
}

type memCounter struct{ v atomic.Uint64 }

func (c *memCounter) Add(d uint64) { c.v.Add(d) }

type memHist struct {
	mu   sync.Mutex
	vals []float64
}

func (h *memHist) Observe(v float64) {
	h.mu.Lock()
	h.vals = append(h.vals, v)
	h.mu.Unlock()
}

// timedEvaluator wraps a session's evaluator and records when each Measure
// call returned and how long it took. Consecutive end times bound one
// tuning iteration, whether the session runs alone or waits for a fleet
// worker between iterations.
type timedEvaluator struct {
	core.Evaluator
	ends []time.Time
	busy []time.Duration
}

func (e *timedEvaluator) Measure(native []float64) dbsim.Measurement {
	t0 := time.Now()
	m := e.Evaluator.Measure(native)
	t1 := time.Now()
	e.ends = append(e.ends, t1)
	e.busy = append(e.busy, t1.Sub(t0))
	return m
}

// driftingTimedEvaluator keeps core.DriftingEvaluator visible through the
// wrapper, so the session still scales its SLA and detects drift.
type driftingTimedEvaluator struct {
	*timedEvaluator
	d core.DriftingEvaluator
}

func (e driftingTimedEvaluator) CurrentLoad() float64          { return e.d.CurrentLoad() }
func (e driftingTimedEvaluator) CurrentMetaFeature() []float64 { return e.d.CurrentMetaFeature() }

// wrapEvaluator returns the timing wrapper and the evaluator to hand to the
// session.
func wrapEvaluator(ev core.Evaluator, budget int) (*timedEvaluator, core.Evaluator) {
	t := &timedEvaluator{
		Evaluator: ev,
		ends:      make([]time.Time, 0, budget+1),
		busy:      make([]time.Duration, 0, budget+1),
	}
	if d, ok := ev.(core.DriftingEvaluator); ok {
		return t, driftingTimedEvaluator{t, d}
	}
	return t, t
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
