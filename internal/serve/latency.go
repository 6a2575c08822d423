package serve

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

// buckets are the cumulative histogram bounds (seconds) of every latency
// family: log-spaced from 100µs to 10s, covering cache hits through
// multi-pass joins on the virtual disk. One grid for node and router, so
// their histograms overlay directly in dashboards.
var buckets = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// exemplar pairs a bucket's most recent observation with the trace ID of
// the request that produced it, so a latency outlier links straight to its
// distributed trace.
type exemplar struct {
	traceID string
	value   float64
}

// Latency is a sliding window over the most recent latencies — what
// /stats percentiles and the router's adaptive hedging delay read — plus
// an all-of-history histogram with one exemplar per bucket, which /metrics
// renders. A fixed ring keeps the cost per sample O(1) and the window
// representative of current load. It is safe for concurrent use.
type Latency struct {
	mu   sync.Mutex
	ring []time.Duration
	n    int // samples in ring (≤ len(ring))
	next int // ring write position
	// sorted is the scratch quantiles sort the window into, in place under
	// mu, so a quantile costs no allocation after the first.
	sorted []time.Duration
	// q, qv and qAt cache Quantile: the last q asked, its value, and count
	// when it was computed (-1 before the first).
	q   float64
	qv  time.Duration
	qAt int64

	hist  [len(buckets) + 1]int64 // per bucket, not cumulative; last = +Inf
	ex    [len(buckets) + 1]exemplar
	sum   time.Duration
	count int64
}

// quantileRefresh is how many new samples make Quantile sort the window
// again once it holds that many: the router asks for its hedge delay on
// every shard call, and a window of thousands moves little in a few dozen
// samples.
const quantileRefresh = 64

// NewLatency returns a window over the last window samples.
func NewLatency(window int) *Latency {
	return &Latency{ring: make([]time.Duration, window), qAt: -1}
}

// Observe records one latency; a non-empty traceID becomes its bucket's
// exemplar.
func (l *Latency) Observe(d time.Duration, traceID string) {
	sec := d.Seconds()
	slot := len(buckets) // +Inf
	for i, bound := range buckets[:] {
		if sec <= bound {
			slot = i
			break
		}
	}
	l.mu.Lock()
	l.ring[l.next] = d
	l.next = (l.next + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
	l.hist[slot]++
	l.sum += d
	l.count++
	if traceID != "" {
		l.ex[slot] = exemplar{traceID: traceID, value: sec}
	}
	l.mu.Unlock()
}

// sortLocked sorts the window into the scratch slice. l.mu must be held.
func (l *Latency) sortLocked() []time.Duration {
	if l.sorted == nil {
		l.sorted = make([]time.Duration, 0, len(l.ring))
	}
	l.sorted = append(l.sorted[:0], l.ring[:l.n]...)
	slices.Sort(l.sorted)
	return l.sorted
}

// Quantile is the window's q-quantile (0 < q ≤ 1), 0 while it is empty.
// The value is the one a sort of the window gave within the last
// quantileRefresh samples (exact while the window holds fewer): repeated
// calls between observations sort nothing.
func (l *Latency) Quantile(q float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if q != l.q || l.count != l.qAt && (l.count-l.qAt >= quantileRefresh || l.n < quantileRefresh) {
		l.q, l.qv, l.qAt = q, Percentile(l.sortLocked(), q), l.count
	}
	return l.qv
}

// LatencyStats is the /stats latency block (microseconds).
type LatencyStats struct {
	Samples int   `json:"samples"`
	P50US   int64 `json:"p50_us"`
	P95US   int64 `json:"p95_us"`
	P99US   int64 `json:"p99_us"`
	MaxUS   int64 `json:"max_us"`
}

// Snapshot reports the window's percentiles.
func (l *Latency) Snapshot() LatencyStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	sample := l.sortLocked()
	s := LatencyStats{Samples: len(sample)}
	if len(sample) > 0 {
		s.P50US = Percentile(sample, 0.50).Microseconds()
		s.P95US = Percentile(sample, 0.95).Microseconds()
		s.P99US = Percentile(sample, 0.99).Microseconds()
		s.MaxUS = sample[len(sample)-1].Microseconds()
	}
	return s
}

// Percentile returns the p-quantile (0 < p ≤ 1) of a sorted sample using
// the nearest-rank method, 0 for an empty one.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// WriteHistogram renders the histogram's samples as family name (whose
// HELP/TYPE the caller wrote), with labels ("node=...,shard=...") on every
// series when non-empty, and bucket exemplars when om.
func (l *Latency) WriteHistogram(w io.Writer, name, labels string, om bool) {
	l.mu.Lock()
	hist, ex, sum, count := l.hist, l.ex, l.sum, l.count
	l.mu.Unlock()
	le, braces := "", ""
	if labels != "" {
		le, braces = labels+",", "{"+labels+"}"
	}
	var cum int64
	for i, bound := range buckets[:] {
		cum += hist[i]
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d%s\n", name, le, bound, cum,
			Exemplar(om, ex[i].traceID, ex[i].value))
	}
	cum += hist[len(buckets)]
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d%s\n", name, le, cum,
		Exemplar(om, ex[len(buckets)].traceID, ex[len(buckets)].value))
	fmt.Fprintf(w, "%s_sum%s %g\n", name, braces, sum.Seconds())
	fmt.Fprintf(w, "%s_count%s %d\n", name, braces, count)
}
