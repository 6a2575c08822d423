package router

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"github.com/pbitree/pbitree/internal/qserv"
	"github.com/pbitree/pbitree/internal/serve/servetest"
)

// The tests in this file pin the router's observable surface — the bytes
// of /metrics, the key set of /stats, and the agreement of the two — after
// a fixed request sequence, so a refactor of the serving code is checked
// against them unchanged.

// pinnedRouter routes the pinned sequence over two scripted shard nodes: a
// miss, its hit, a bad request, a deadline expiry and a path query. It
// returns the router's server and a replacer that names the nodes by
// shard instead of by their ephemeral ports.
func pinnedRouter(t *testing.T) (*httptest.Server, *strings.Replacer) {
	t.Helper()
	var urls []string
	for i := 0; i < 2; i++ {
		n := newFakeNode(t,
			qserv.JoinResponse{Algorithm: "mpmgjn", Count: 3, PageIO: 10, SeqIO: 4, PredictedIO: 9, VirtualUS: 100},
			qserv.QueryResponse{Count: 1, Codes: []uint64{uint64(2*i + 1)}, PageIO: 5, VirtualUS: 50,
				Steps: []qserv.PathStep{{Anc: "a", Desc: "b", Algorithm: "stacktree", Matches: 1}}})
		urls = append(urls, n.ts.URL)
	}
	_, ts := newTestRouter(t, Config{Topology: [][]string{{urls[0]}, {urls[1]}}, CacheEntries: 8})
	for _, c := range []struct {
		url    string
		status int
	}{
		{"/join?anc=a&desc=b", http.StatusOK},
		{"/join?anc=a&desc=b", http.StatusOK},
		{"/join?anc=a", http.StatusBadRequest},
		{"/join?anc=a&desc=b&timeout=1ns", http.StatusGatewayTimeout},
		{"/query?path=//a//b", http.StatusOK},
	} {
		if st, body, _ := get(t, ts.URL+c.url); st != c.status {
			t.Fatalf("GET %s: %d, want %d: %s", c.url, st, c.status, body)
		}
	}
	return ts, strings.NewReplacer(urls[0], "http://node0", urls[1], "http://node1")
}

func TestRouterMetricsGolden(t *testing.T) {
	ts, nodes := pinnedRouter(t)
	_, body, _ := get(t, ts.URL+"/metrics")
	servetest.Lint(t, body, false)
	servetest.Golden(t, "testdata/metrics.golden", servetest.Mask(nodes.Replace(string(body))))
}

func TestRouterStatsKeys(t *testing.T) {
	ts, _ := pinnedRouter(t)
	_, body, _ := get(t, ts.URL+"/stats")
	want := []string{
		"breaker_denials",
		"cache", "cache.capacity", "cache.entries", "cache.evicted", "cache.hit_rate",
		"cache.hits", "cache.misses",
		"canceled", "demotions", "epoch", "errors", "failovers", "hedge_fires", "hedge_wins",
		"latency", "latency.max_us", "latency.p50_us", "latency.p95_us", "latency.p99_us",
		"latency.samples",
		"nodes", "nodes[].breaker", "nodes[].consec_fails", "nodes[].failures", "nodes[].healthy",
		"nodes[].hedges", "nodes[].p50_us", "nodes[].p95_us", "nodes[].probe_fails", "nodes[].probes",
		"nodes[].replica", "nodes[].requests", "nodes[].shard", "nodes[].upstream_cache_hits",
		"nodes[].url",
		"panics", "partial_responses", "promotions", "requests", "retry_budget_denied",
		"shards", "timeouts", "uptime_s",
	}
	if got := servetest.KeyPaths(t, body); !slices.Equal(got, want) {
		t.Fatalf("/stats keys:\n got %q\nwant %q", got, want)
	}
}

// TestRouterStatsAgreeWithMetrics holds /stats and /metrics to one source:
// after the pinned traffic every counter /stats reports equals its
// /metrics sample, read back to back in one process.
func TestRouterStatsAgreeWithMetrics(t *testing.T) {
	ts, nodes := pinnedRouter(t)
	_, stats, _ := get(t, ts.URL+"/stats")
	_, met, _ := get(t, ts.URL+"/metrics")
	samples, _ := servetest.Lint(t, []byte(nodes.Replace(string(met))), false)
	pairs := map[string]string{
		"shards":              "pbirouter_shards",
		"epoch":               "pbirouter_epoch",
		"requests":            "pbirouter_requests_total",
		"errors":              "pbirouter_errors_total",
		"canceled":            "pbirouter_canceled_total",
		"timeouts":            "pbirouter_timeouts_total",
		"panics":              "pbirouter_panics_total",
		"hedge_fires":         "pbirouter_hedge_fires_total",
		"hedge_wins":          "pbirouter_hedge_wins_total",
		"failovers":           "pbirouter_failovers_total",
		"demotions":           "pbirouter_node_demotions_total",
		"promotions":          "pbirouter_node_promotions_total",
		"partial_responses":   "pbirouter_partial_responses_total",
		"breaker_denials":     "pbirouter_breaker_denials_total",
		"retry_budget_denied": "pbirouter_retry_budget_denials_total",
		"cache.hits":          "pbirouter_cache_hits_total",
		"cache.misses":        "pbirouter_cache_misses_total",
		"cache.evicted":       "pbirouter_cache_evicted_total",
		"cache.entries":       "pbirouter_cache_entries",
	}
	for i, node := range []string{`node="http://node0",shard="0"`, `node="http://node1",shard="1"`} {
		row := "nodes." + string(rune('0'+i)) + "."
		pairs[row+"requests"] = "pbirouter_node_requests_total{" + node + "}"
		pairs[row+"failures"] = "pbirouter_node_failures_total{" + node + "}"
		pairs[row+"hedges"] = "pbirouter_node_hedges_total{" + node + "}"
		pairs[row+"probe_fails"] = "pbirouter_node_probe_failures_total{" + node + "}"
		pairs[row+"upstream_cache_hits"] = "pbirouter_node_upstream_cache_hits_total{" + node + "}"
	}
	for key, series := range pairs {
		got, ok := samples[series]
		if !ok {
			t.Errorf("/metrics has no %s", series)
			continue
		}
		if want := servetest.Number(t, stats, key); got != want {
			t.Errorf("/stats %s = %v, /metrics %s = %v", key, want, series, got)
		}
	}
}
