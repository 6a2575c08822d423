package qserv

import (
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"github.com/pbitree/pbitree/internal/serve/servetest"
)

// The tests in this file pin the node's observable surface — the bytes of
// /metrics, the key set of /stats, and the agreement of the two — after a
// fixed request sequence, so a refactor of the serving code is checked
// against them unchanged.

// pinnedNode serves the pinned sequence: a miss, its hit, a bad request, a
// deadline expiry and a path query.
func pinnedNode(t *testing.T) *httptest.Server {
	t.Helper()
	db, _ := buildServerDB(t)
	s, err := New(Config{DBPath: db, Workers: 1, CacheEntries: 16, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() }) //nolint:errcheck // test teardown
	for _, c := range []struct {
		url    string
		status int
	}{
		{"/join?anc=section&desc=figure&algo=stacktree", http.StatusOK},
		{"/join?anc=section&desc=figure&algo=stacktree", http.StatusOK},
		{"/join?anc=section", http.StatusBadRequest},
		{"/join?anc=section&desc=figure&timeout=1ns", http.StatusGatewayTimeout},
		{"/query?path=//section//para//figure", http.StatusOK},
	} {
		if st, body, _ := get(t, ts.Client(), ts.URL+c.url); st != c.status {
			t.Fatalf("GET %s: %d, want %d: %s", c.url, st, c.status, body)
		}
	}
	return ts
}

// pinnedAlgorithms are the algorithms the pinned traffic runs: the join's
// STACKTREE, and the two steps of the path query, for which AUTO takes
// Table 1's sorted row over the stored relations and the ordered
// intermediate.
var pinnedAlgorithms = []string{"STACKTREE"}

// scrape fetches /metrics with the given Accept header.
func scrape(t *testing.T, ts *httptest.Server, accept string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestMetricsGolden(t *testing.T) {
	ts := pinnedNode(t)
	for _, tc := range []struct {
		accept, golden string
		om             bool
	}{
		{"", "testdata/metrics.golden", false},
		{"application/openmetrics-text", "testdata/metrics-openmetrics.golden", true},
	} {
		body := scrape(t, ts, tc.accept)
		servetest.Lint(t, body, tc.om)
		servetest.Golden(t, tc.golden, servetest.Mask(string(body)))
	}
}

func TestStatsKeys(t *testing.T) {
	ts := pinnedNode(t)
	_, body, _ := get(t, ts.Client(), ts.URL+"/stats")
	want := []string{
		"algorithms",
		"cache", "cache.capacity", "cache.entries", "cache.evicted", "cache.hit_rate",
		"cache.hits", "cache.misses",
		"canceled", "corrupt", "database", "engine_recycles", "errors",
		"latency", "latency.max_us", "latency.p50_us", "latency.p95_us", "latency.p99_us",
		"latency.samples", "panics",
		"queue", "queue.busy", "queue.capacity", "queue.depth", "queue.workers",
		"rejected", "requests", "timeouts", "uptime_s",
	}
	for _, alg := range pinnedAlgorithms {
		want = append(want, "algorithms."+alg)
		for _, k := range []string{"page_io", "pairs", "requests", "seq_io", "virtual_us", "wall_us"} {
			want = append(want, "algorithms."+alg+"."+k)
		}
	}
	slices.Sort(want)
	if got := servetest.KeyPaths(t, body); !slices.Equal(got, want) {
		t.Fatalf("/stats keys:\n got %q\nwant %q", got, want)
	}
}

// TestStatsAgreeWithMetrics holds /stats and /metrics to one source: after
// the pinned traffic every counter /stats reports equals its /metrics
// sample, read back to back in one process.
func TestStatsAgreeWithMetrics(t *testing.T) {
	ts := pinnedNode(t)
	_, stats, _ := get(t, ts.Client(), ts.URL+"/stats")
	samples, _ := servetest.Lint(t, scrape(t, ts, ""), false)
	pairs := map[string]string{
		"requests":        "pbiserve_requests_total",
		"errors":          "pbiserve_errors_total",
		"rejected":        "pbiserve_rejected_total",
		"canceled":        "pbiserve_canceled_total",
		"timeouts":        "pbiserve_timeouts_total",
		"corrupt":         "pbiserve_corrupt_total",
		"panics":          "pbiserve_panics_total",
		"engine_recycles": "pbiserve_engine_recycles_total",
		"cache.hits":      "pbiserve_cache_hits_total",
		"cache.misses":    "pbiserve_cache_misses_total",
		"cache.evicted":   "pbiserve_cache_evicted_total",
		"cache.entries":   "pbiserve_cache_entries",
		"queue.workers":   "pbiserve_workers",
		"queue.busy":      "pbiserve_busy_workers",
		"queue.depth":     "pbiserve_queued_requests",
	}
	for _, alg := range pinnedAlgorithms {
		pairs["algorithms."+alg+".requests"] = `pbiserve_join_requests_total{algorithm="` + alg + `"}`
		pairs["algorithms."+alg+".pairs"] = `pbiserve_join_pairs_total{algorithm="` + alg + `"}`
		pairs["algorithms."+alg+".page_io"] = `pbiserve_join_page_io_total{algorithm="` + alg + `"}`
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
