package router

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/pbitree/pbitree/internal/serve"
)

// latRing is how many recent latencies each window retains. The router
// keeps one window per node (feeding the adaptive hedging quantile) plus
// one for its own end-to-end request latency.
const latRing = 2048

// metrics aggregates the router-level counters /stats and /metrics report.
// Per-node counters live on the nodes themselves.
type metrics struct {
	start time.Time

	requests atomic.Int64 // completed requests (cached or fanned out)
	errors   atomic.Int64 // requests answered with a non-2xx status
	canceled atomic.Int64 // requests abandoned by the client (499)
	timeouts atomic.Int64 // requests aborted by deadline expiry (504)
	panics   atomic.Int64 // panics recovered during request handling

	hedgeFires atomic.Int64 // hedge timers that fired a secondary request
	hedgeWins  atomic.Int64 // shard answers won by the hedge request
	failovers  atomic.Int64 // replica-to-replica retries after a failure

	breakerDenials atomic.Int64 // candidate launches skipped: circuit open
	budgetDenials  atomic.Int64 // failover retries denied by the retry budget
	partials       atomic.Int64 // degraded 206 responses (shards missing)

	demotions  atomic.Int64 // healthy→unhealthy node transitions
	promotions atomic.Int64 // unhealthy→healthy node transitions

	lat *serve.Latency // end-to-end router request latency
}

func newMetrics() *metrics {
	return &metrics{start: time.Now(), lat: serve.NewLatency(latRing)}
}

// observe records one completed request's latency.
func (m *metrics) observe(d time.Duration) {
	m.requests.Add(1)
	m.lat.Observe(d, "")
}

// nodeStat is one node's row in the /stats nodes block.
type nodeStat struct {
	URL          string  `json:"url"`
	Shard        int     `json:"shard"`
	Replica      int     `json:"replica"`
	Healthy      bool    `json:"healthy"`
	Breaker      string  `json:"breaker"`
	BreakerOpens int64   `json:"breaker_opens,omitempty"`
	Probes       int64   `json:"probes"`
	ProbeFails   int64   `json:"probe_fails"`
	ConsecFails  int64   `json:"consec_fails"`
	Requests     int64   `json:"requests"`
	Failures     int64   `json:"failures"`
	Hedges       int64   `json:"hedges"`
	UpstreamHits int64   `json:"upstream_cache_hits"`
	P50US        int64   `json:"p50_us"`
	P95US        int64   `json:"p95_us"`
	LastError    string  `json:"last_error,omitempty"`
	LastErrAgoS  float64 `json:"last_error_ago_s,omitempty"`
}

// statsResponse is the GET /stats payload.
type statsResponse struct {
	UptimeS float64 `json:"uptime_s"`
	Shards  int     `json:"shards"`
	Epoch   int64   `json:"epoch"`

	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	Canceled int64 `json:"canceled"`
	Timeouts int64 `json:"timeouts"`
	Panics   int64 `json:"panics"`

	HedgeFires int64 `json:"hedge_fires"`
	HedgeWins  int64 `json:"hedge_wins"`
	Failovers  int64 `json:"failovers"`
	Demotions  int64 `json:"demotions"`
	Promotions int64 `json:"promotions"`

	PartialResponses  int64 `json:"partial_responses"`
	BreakerDenials    int64 `json:"breaker_denials"`
	RetryBudgetDenied int64 `json:"retry_budget_denied"`

	Cache   *serve.CacheStats  `json:"cache,omitempty"`
	Latency serve.LatencyStats `json:"latency"`
	Nodes   []nodeStat         `json:"nodes"`
}

// nodeStats snapshots every node's row in table order.
func (rt *Router) nodeStats() []nodeStat {
	out := make([]nodeStat, 0, len(rt.nodes))
	for _, nd := range rt.nodes {
		st := nodeStat{
			URL: nd.url, Shard: nd.shard, Replica: nd.replica,
			Healthy:      nd.healthy.Load(),
			Probes:       nd.probes.Load(),
			ProbeFails:   nd.probeFails.Load(),
			ConsecFails:  nd.consecFails.Load(),
			Requests:     nd.requests.Load(),
			Failures:     nd.failures.Load(),
			Hedges:       nd.hedges.Load(),
			UpstreamHits: nd.upstreamHits.Load(),
		}
		st.Breaker, st.BreakerOpens = nd.br.snapshot()
		lat := nd.lat.Snapshot()
		st.P50US, st.P95US = lat.P50US, lat.P95US
		nd.mu.Lock()
		st.LastError = nd.lastErr
		if !nd.lastErrAt.IsZero() {
			st.LastErrAgoS = time.Since(nd.lastErrAt).Seconds()
		}
		nd.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// handleStats serves GET /stats.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	m := rt.met
	resp := statsResponse{
		UptimeS: time.Since(m.start).Seconds(),
		Shards:  len(rt.shards),
		Epoch:   rt.epoch.Load(),

		Requests: m.requests.Load(),
		Errors:   m.errors.Load(),
		Canceled: m.canceled.Load(),
		Timeouts: m.timeouts.Load(),
		Panics:   m.panics.Load(),

		HedgeFires: m.hedgeFires.Load(),
		HedgeWins:  m.hedgeWins.Load(),
		Failovers:  m.failovers.Load(),
		Demotions:  m.demotions.Load(),
		Promotions: m.promotions.Load(),

		PartialResponses:  m.partials.Load(),
		BreakerDenials:    m.breakerDenials.Load(),
		RetryBudgetDenied: m.budgetDenials.Load(),

		Cache:   rt.cache.Stats(),
		Latency: m.lat.Snapshot(),
		Nodes:   rt.nodeStats(),
	}
	serve.WriteJSON(w, resp)
}

// writeMetrics renders every /metrics family through the serve exposition
// helpers. Families are always present (HELP and TYPE lines) even before
// any sample exists, so scrapers see a stable schema. Node labels come
// from the topology fixed at startup, never from request input, so series
// cardinality is bounded.
func (rt *Router) writeMetrics(w io.Writer, om bool) {
	m := rt.met

	serve.Metric(w, "pbirouter_uptime_seconds", "Seconds since the router started.", "gauge", time.Since(m.start).Seconds())
	serve.WriteBuildInfo(w, "pbirouter_build_info", "Build identity (constant 1; the labels carry the values).")
	serve.Metric(w, "pbirouter_shards", "Shard groups in the node table.", "gauge", len(rt.shards))
	serve.Metric(w, "pbirouter_epoch", "Node-table epoch (bumps on every health transition).", "gauge", rt.epoch.Load())

	serve.Metric(w, "pbirouter_requests_total", "Completed router requests (cached or fanned out).", "counter", m.requests.Load())
	serve.Metric(w, "pbirouter_errors_total", "Requests answered with a non-2xx status.", "counter", m.errors.Load())
	serve.Metric(w, "pbirouter_canceled_total", "Requests abandoned by the client before completion (499).", "counter", m.canceled.Load())
	serve.Metric(w, "pbirouter_timeouts_total", "Requests aborted by deadline expiry (504).", "counter", m.timeouts.Load())
	serve.Metric(w, "pbirouter_panics_total", "Panics recovered during request handling.", "counter", m.panics.Load())

	serve.Metric(w, "pbirouter_hedge_fires_total", "Hedge timers that fired a secondary replica request.", "counter", m.hedgeFires.Load())
	serve.Metric(w, "pbirouter_hedge_wins_total", "Shard answers won by the hedge request.", "counter", m.hedgeWins.Load())
	serve.Metric(w, "pbirouter_failovers_total", "Replica-to-replica retries after a retryable failure.", "counter", m.failovers.Load())
	serve.Metric(w, "pbirouter_partial_responses_total", "Degraded 206 responses served with shards missing.", "counter", m.partials.Load())
	serve.Metric(w, "pbirouter_breaker_denials_total", "Node launches skipped because the circuit breaker was open.", "counter", m.breakerDenials.Load())
	serve.Metric(w, "pbirouter_retry_budget_denials_total", "Failover retries denied by the shared retry budget.", "counter", m.budgetDenials.Load())
	serve.Metric(w, "pbirouter_node_demotions_total", "Healthy-to-unhealthy node transitions.", "counter", m.demotions.Load())
	serve.Metric(w, "pbirouter_node_promotions_total", "Unhealthy-to-healthy node transitions.", "counter", m.promotions.Load())

	rt.cache.WriteMetrics(w, "pbirouter", "Merged-result cache")

	serve.Metric(w, "pbirouter_telemetry_records_total", "Telemetry records written by the sidecar.", "counter", rt.cfg.Telemetry.Written())
	serve.Metric(w, "pbirouter_telemetry_dropped_total", "Telemetry records dropped (queue full or sink stalled).", "counter", rt.cfg.Telemetry.Dropped())

	serve.Family(w, "pbirouter_request_latency_seconds", "End-to-end router request latency.", "histogram")
	m.lat.WriteHistogram(w, "pbirouter_request_latency_seconds", "", om)

	// Per-node families: one series per replica, every family labelled
	// alike so a node's series join up in dashboards.
	labels := make([]string, len(rt.nodes))
	for i, nd := range rt.nodes {
		labels[i] = fmt.Sprintf("node=%q,shard=\"%d\"", nd.name(), nd.shard)
	}
	serve.Series(w, "pbirouter_node_healthy", "Node health (1 healthy, 0 demoted).", "gauge", labels, func(i int) any {
		if rt.nodes[i].healthy.Load() {
			return 1
		}
		return 0
	})
	serve.Series(w, "pbirouter_node_requests_total", "Proxied requests issued per node.", "counter", labels, func(i int) any { return rt.nodes[i].requests.Load() })
	serve.Series(w, "pbirouter_node_failures_total", "Retryable node-call failures per node.", "counter", labels, func(i int) any { return rt.nodes[i].failures.Load() })
	serve.Series(w, "pbirouter_node_hedges_total", "Hedge (secondary) requests issued per node.", "counter", labels, func(i int) any { return rt.nodes[i].hedges.Load() })
	serve.Series(w, "pbirouter_node_probe_failures_total", "Failed health probes per node.", "counter", labels, func(i int) any { return rt.nodes[i].probeFails.Load() })
	serve.Series(w, "pbirouter_node_upstream_cache_hits_total", "Node answers served from the node's own cache.", "counter", labels, func(i int) any { return rt.nodes[i].upstreamHits.Load() })
	serve.Family(w, "pbirouter_node_breaker_state", "Circuit-breaker state per node (0 closed, 1 half-open, 2 open; absent when disabled).", "gauge")
	for i, nd := range rt.nodes {
		state, _ := nd.br.snapshot()
		var v int
		switch state {
		case "half-open":
			v = 1
		case "open":
			v = 2
		case "disabled":
			continue
		}
		fmt.Fprintf(w, "pbirouter_node_breaker_state{%s} %d\n", labels[i], v)
	}
	serve.Series(w, "pbirouter_node_breaker_opens_total", "Circuit-breaker open transitions per node.", "counter", labels, func(i int) any {
		_, opens := rt.nodes[i].br.snapshot()
		return opens
	})
	serve.Family(w, "pbirouter_node_latency_seconds", "Successful node-call latency per node.", "histogram")
	for i, nd := range rt.nodes {
		nd.lat.WriteHistogram(w, "pbirouter_node_latency_seconds", labels[i], om)
	}
}
