package qserv

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/serve"
)

// latWindow is the number of most recent request latencies retained for
// the /stats percentiles.
const latWindow = 8192

// metrics aggregates everything /stats reports: request counters, a
// sliding latency window, and per-algorithm physical-cost totals summed
// from join results.
type metrics struct {
	start time.Time

	requests atomic.Int64 // completed requests (cached or executed)
	errors   atomic.Int64 // requests answered with a non-2xx status
	rejected atomic.Int64 // admissions refused with 503 (queue full)
	queued   atomic.Int64 // admitted requests waiting for a worker
	busy     atomic.Int64 // workers currently executing

	canceled       atomic.Int64 // requests aborted by client disconnect (499)
	timeouts       atomic.Int64 // requests aborted by deadline (504)
	corrupt        atomic.Int64 // queries failed by page-checksum mismatch
	panics         atomic.Int64 // panics recovered during query execution
	engineRecycles atomic.Int64 // poisoned engines discarded and replaced

	lat *serve.Latency // request latency, trace IDs as exemplars

	mu     sync.Mutex // guards algs and phases
	algs   map[string]*algTotals
	phases map[phaseKey]*phaseTotals
}

// phaseKey identifies one per-phase metric series. Both components come
// from small stable vocabularies (algorithm names, trace phase names), so
// label cardinality stays bounded.
type phaseKey struct {
	Alg   string
	Phase string
}

// phaseTotals accumulates self-attributed phase costs across joins.
type phaseTotals struct {
	Count       int64
	Reads       int64
	Writes      int64
	VirtualTime time.Duration
	Pairs       int64
	// LastTrace is the trace ID of the most recent request that ran this
	// phase — the originating request's ID even for per-shard child spans,
	// since handlers thread it through JoinOptions.TraceID.
	LastTrace string
}

// algTotals accumulates the physical cost of every join one algorithm ran.
type algTotals struct {
	Requests    int64         `json:"requests"`
	Pairs       int64         `json:"pairs"`
	PageIO      int64         `json:"page_io"`
	SeqIO       int64         `json:"seq_io"`
	VirtualTime time.Duration `json:"-"`
	WallTime    time.Duration `json:"-"`
}

// algSnapshot is the JSON form of algTotals with durations in microseconds.
type algSnapshot struct {
	Requests  int64 `json:"requests"`
	Pairs     int64 `json:"pairs"`
	PageIO    int64 `json:"page_io"`
	SeqIO     int64 `json:"seq_io"`
	VirtualUS int64 `json:"virtual_us"`
	WallUS    int64 `json:"wall_us"`
}

func newMetrics() *metrics {
	return &metrics{
		start:  time.Now(),
		lat:    serve.NewLatency(latWindow),
		algs:   map[string]*algTotals{},
		phases: map[phaseKey]*phaseTotals{},
	}
}

// observe records one completed request's latency, remembering the trace
// ID as the bucket's exemplar.
func (m *metrics) observe(d time.Duration, traceID string) {
	m.requests.Add(1)
	m.lat.Observe(d, traceID)
}

// recordPhases folds one analyzed join's self-attributed phase costs into
// the per-(algorithm, phase) totals, stamping the originating request's
// trace ID as the series' exemplar.
func (m *metrics) recordPhases(alg string, phases []containment.PhaseIO, traceID string) {
	m.mu.Lock()
	for _, p := range phases {
		k := phaseKey{Alg: alg, Phase: p.Name}
		t := m.phases[k]
		if t == nil {
			t = &phaseTotals{}
			m.phases[k] = t
		}
		t.Count++
		t.Reads += p.Reads
		t.Writes += p.Writes
		t.VirtualTime += p.VirtualIO
		t.Pairs += p.Pairs
		if traceID != "" {
			t.LastTrace = traceID
		}
	}
	m.mu.Unlock()
}

// recordJoin folds one join result into the per-algorithm totals.
func (m *metrics) recordJoin(res *containment.Result) {
	m.mu.Lock()
	t := m.algs[res.Algorithm]
	if t == nil {
		t = &algTotals{}
		m.algs[res.Algorithm] = t
	}
	t.Requests++
	t.Pairs += res.Count
	t.PageIO += res.IO.Total()
	t.SeqIO += res.IO.SeqReads + res.IO.SeqWrites
	t.VirtualTime += res.IO.VirtualTime
	t.WallTime += res.IO.WallTime
	m.mu.Unlock()
}

// algSnapshots converts the per-algorithm totals for JSON.
func (m *metrics) algSnapshots() map[string]algSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]algSnapshot, len(m.algs))
	for name, t := range m.algs {
		out[name] = algSnapshot{
			Requests: t.Requests, Pairs: t.Pairs,
			PageIO: t.PageIO, SeqIO: t.SeqIO,
			VirtualUS: t.VirtualTime.Microseconds(),
			WallUS:    t.WallTime.Microseconds(),
		}
	}
	return out
}
