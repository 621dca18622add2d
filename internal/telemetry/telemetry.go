// Package telemetry is the engine's observability layer: lock-free atomic
// counters, gauges and bounded histograms that the hot paths update, and a
// point-in-time Snapshot that serialises to JSON for callers snapshotting a
// live engine (mce.WithTelemetryEngine), the HTTP debug endpoint
// (-debug-addr on mceworker and mcefind) and the final Stats.Telemetry
// record of a run.
//
// The layer is stdlib-only and allocation-free on the update path: every
// metric is a fixed-size struct of atomics, so instrumented code adds a
// nil-check plus an atomic add to the paper-faithful fast path and nothing
// at all when telemetry is disabled (a nil *Engine).
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
//
//mce:hotpath instrumentation fast path
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 for the value to stay monotonic).
//
//mce:hotpath instrumentation fast path
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that can move both ways
// (e.g. queue depth, tasks in flight).
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by n (negative to decrease).
//
//mce:hotpath instrumentation fast path
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a bounded histogram over int64 values with fixed bucket
// boundaries: bucket i counts observations v with bounds[i-1] ≤ v < bounds[i]
// (bucket 0 is v < bounds[0]); one overflow bucket counts v ≥ bounds[last].
// Observe is lock-free and allocation-free; concurrent observers are safe.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1, last is overflow
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
}

// NewHistogram builds a histogram with the given strictly increasing bucket
// boundaries. It panics on an empty or unsorted boundary list — bucket
// layouts are compile-time decisions, not runtime inputs.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket boundary")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not strictly increasing at %d: %d after %d",
				i, bounds[i], bounds[i-1]))
		}
	}
	h := &Histogram{
		bounds:  append([]int64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// NewDurationHistogram builds the standard latency histogram used for block
// analysis and task round trips: doubling buckets from 1µs to ~9 minutes
// (values are nanoseconds), which covers everything from a trivial block to
// a pathological straggler in 30 buckets.
func NewDurationHistogram() *Histogram {
	bounds := make([]int64, 30)
	b := int64(time.Microsecond)
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return NewHistogram(bounds)
}

// Observe records one value.
//
//mce:hotpath instrumentation fast path
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v < h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveSince records the elapsed time since t0 in nanoseconds.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(int64(time.Since(t0))) }

// Snapshot returns a consistent-enough copy of the histogram for reporting.
// Buckets are read individually, so a snapshot taken during concurrent
// observes may be off by the observations in flight — fine for telemetry,
// never for accounting.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:  append([]int64(nil), h.bounds...),
		Buckets: make([]int64, len(h.buckets)),
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	return s
}

// HistogramSnapshot is the JSON view of a Histogram. Buckets has one more
// entry than Bounds (the overflow bucket).
type HistogramSnapshot struct {
	Bounds  []int64 `json:"bounds"`
	Buckets []int64 `json:"buckets"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Min     int64   `json:"min"`
	Max     int64   `json:"max"`
}

// Mean returns the average observed value, 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// CountBelow returns how many observed values were < bound. The answer is
// exact when bound is one of the bucket boundaries (or no observation falls
// in the partially covered bucket); exact reports which.
func (s HistogramSnapshot) CountBelow(bound int64) (n int64, exact bool) {
	var total int64
	for i, b := range s.Bounds {
		if b > bound {
			return total, s.Buckets[i] == 0
		}
		total += s.Buckets[i]
		if b == bound {
			return total, true
		}
	}
	return total, s.Buckets[len(s.Buckets)-1] == 0
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) by linear
// interpolation inside the bucket that holds the target rank, clamped to the
// observed min/max. It returns 0 when the histogram is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count-1)
	var seen int64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if float64(seen+n) <= rank {
			seen += n
			continue
		}
		lo, hi := float64(s.Min), float64(s.Max)
		if i > 0 && float64(s.Bounds[i-1]) > lo {
			lo = float64(s.Bounds[i-1])
		}
		if i < len(s.Bounds) && float64(s.Bounds[i]) < hi {
			hi = float64(s.Bounds[i])
		}
		if hi < lo {
			hi = lo
		}
		frac := (rank - float64(seen)) / float64(n)
		return lo + frac*(hi-lo)
	}
	return float64(s.Max)
}
