package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/pbitree/pbitree/internal/qserv"
	"github.com/pbitree/pbitree/internal/serve"
	"github.com/pbitree/pbitree/internal/serve/servetest"
)

// fakeNode is a scripted shard node: fixed /join and /query payloads,
// controllable /readyz, request counting.
type fakeNode struct {
	join  qserv.JoinResponse
	query qserv.QueryResponse
	cache string // X-Cache header to claim
	ts    *httptest.Server
}

func newFakeNode(t *testing.T, join qserv.JoinResponse, query qserv.QueryResponse) *fakeNode {
	t.Helper()
	fn := &fakeNode{join: join, query: query}
	fn.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if fn.cache != "" {
			w.Header().Set("X-Cache", fn.cache)
		}
		var v any
		switch r.URL.Path {
		case "/join":
			v = fn.join
		case "/query":
			v = fn.query
		case "/relations":
			v = []qserv.RelationInfo{}
		default:
			w.Write([]byte(`{}`)) //nolint:errcheck // test stub
			return
		}
		json.NewEncoder(w).Encode(v) //nolint:errcheck // test stub
	}))
	t.Cleanup(fn.ts.Close)
	return fn
}

// TestMergedIOStats pins the merge arithmetic against scripted nodes:
// counts, false hits, page/seq/predicted I/O and virtual time sum;
// algorithm names "+"-join distinct in shard order; the envelope wall
// time is the router's own measurement, not the per-shard sum.
func TestMergedIOStats(t *testing.T) {
	n0 := newFakeNode(t,
		qserv.JoinResponse{Algorithm: "mpmgjn", Count: 10, FalseHits: 2, PageIO: 100,
			SeqIO: 40, PredictedIO: 90, VirtualUS: 5000, WallUS: 400_000_000},
		qserv.QueryResponse{})
	n1 := newFakeNode(t,
		qserv.JoinResponse{Algorithm: "stacktree", Count: 7, FalseHits: 1, PageIO: 30,
			SeqIO: 10, PredictedIO: 25, VirtualUS: 2000, WallUS: 400_000_000},
		qserv.QueryResponse{})
	n2 := newFakeNode(t,
		qserv.JoinResponse{Algorithm: "mpmgjn", Count: 1, PageIO: 5,
			SeqIO: 5, PredictedIO: 5, VirtualUS: 100, WallUS: 400_000_000},
		qserv.QueryResponse{})
	_, ts := newTestRouter(t, Config{
		Topology:     [][]string{{n0.ts.URL}, {n1.ts.URL}, {n2.ts.URL}},
		CacheEntries: -1,
	})

	st, body, _ := get(t, ts.URL+"/join?anc=a&desc=b")
	if st != http.StatusOK {
		t.Fatalf("status %d: %s", st, body)
	}
	var jr qserv.JoinResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Count != 18 || jr.FalseHits != 3 || jr.PageIO != 135 || jr.SeqIO != 55 ||
		jr.PredictedIO != 120 || jr.VirtualUS != 7100 {
		t.Errorf("merged sums wrong: %+v", jr)
	}
	if jr.Algorithm != "mpmgjn+stacktree" {
		t.Errorf("merged algorithm = %q, want mpmgjn+stacktree (distinct, shard order)", jr.Algorithm)
	}
	// Each fake claims ~400s of wall time; the envelope must be the
	// router's own clock, which cannot have spent a second on this.
	if jr.WallUS <= 0 || jr.WallUS > 10_000_000 {
		t.Errorf("wall_us = %d: want the fan-out envelope, not the per-shard sum", jr.WallUS)
	}
}

// TestMergedQueryCodes pins /query merging with scripted codes: document
// order across shards, summed counts and steps, exact truncation flag.
func TestMergedQueryCodes(t *testing.T) {
	// Height-0 codes (odd values): document order is ascending value.
	n0 := newFakeNode(t, qserv.JoinResponse{}, qserv.QueryResponse{
		Count: 2, Codes: []uint64{1, 9},
		Steps:  []qserv.PathStep{{Anc: "a", Desc: "b", Algorithm: "mpmgjn", Matches: 4}},
		PageIO: 10, VirtualUS: 100,
	})
	n1 := newFakeNode(t, qserv.JoinResponse{}, qserv.QueryResponse{
		Count: 3, Codes: []uint64{3, 5, 11},
		Steps:  []qserv.PathStep{{Anc: "a", Desc: "b", Algorithm: "stacktree", Matches: 6}},
		PageIO: 7, VirtualUS: 50,
	})
	_, ts := newTestRouter(t, Config{
		Topology:     [][]string{{n0.ts.URL}, {n1.ts.URL}},
		CacheEntries: -1,
		MaxCodes:     4,
	})

	st, body, _ := get(t, ts.URL+"/query?path=//a//b")
	if st != http.StatusOK {
		t.Fatalf("status %d: %s", st, body)
	}
	var qr qserv.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Count != 5 {
		t.Errorf("count = %d, want 5", qr.Count)
	}
	want := []uint64{1, 3, 5, 9}
	if len(qr.Codes) != len(want) {
		t.Fatalf("codes = %v, want %v", qr.Codes, want)
	}
	for i := range want {
		if qr.Codes[i] != want[i] {
			t.Fatalf("codes = %v, want %v (global document order + truncation)", qr.Codes, want)
		}
	}
	if !qr.Truncated {
		t.Error("truncated = false, want true (5 matches, limit 4)")
	}
	if len(qr.Steps) != 1 || qr.Steps[0].Matches != 10 || qr.Steps[0].Algorithm != "mpmgjn+stacktree" {
		t.Errorf("merged steps wrong: %+v", qr.Steps)
	}
	if qr.PageIO != 17 || qr.VirtualUS != 150 {
		t.Errorf("merged io wrong: page_io=%d virtual_us=%d", qr.PageIO, qr.VirtualUS)
	}
}

// TestRouterCache exercises the epoch-keyed cache: repeat queries hit,
// node X-Cache hits are counted, and a health transition (epoch bump)
// invalidates by making old keys unreachable.
func TestRouterCache(t *testing.T) {
	n0 := newFakeNode(t, qserv.JoinResponse{Algorithm: "mpmgjn", Count: 4}, qserv.QueryResponse{})
	n0.cache = "hit"
	rt, ts := newTestRouter(t, Config{Topology: [][]string{{n0.ts.URL}}, CacheEntries: 64})

	if _, _, cache := get(t, ts.URL+"/join?anc=a&desc=b"); cache != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", cache)
	}
	if _, _, cache := get(t, ts.URL+"/join?anc=a&desc=b"); cache != "hit" {
		t.Fatalf("repeat request X-Cache = %q, want hit", cache)
	}
	if got := rt.shards[0][0].upstreamHits.Load(); got != 1 {
		t.Errorf("upstream cache hits = %d, want 1 (one real node call, X-Cache: hit)", got)
	}

	// A health transition bumps the epoch: the same query misses again.
	rt.setHealthy(rt.shards[0][0], false, "test")
	rt.setHealthy(rt.shards[0][0], true, "")
	if _, _, cache := get(t, ts.URL+"/join?anc=a&desc=b"); cache != "miss" {
		t.Fatalf("post-epoch-bump request X-Cache = %q, want miss", cache)
	}
}

// TestErrorMapping pins the router's status vocabulary.
func TestErrorMapping(t *testing.T) {
	// Definitive node statuses forward verbatim.
	notFound := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":"no stored relation for tag \"x\""}`)) //nolint:errcheck // test stub
	}))
	defer notFound.Close()
	_, ts := newTestRouter(t, Config{Topology: [][]string{{notFound.URL}}, CacheEntries: -1})
	st, body, _ := get(t, ts.URL+"/join?anc=x&desc=y")
	if st != http.StatusNotFound || !strings.Contains(string(body), "no stored relation") {
		t.Errorf("404 not forwarded verbatim: status %d body %s", st, body)
	}

	// Persistent 500 on the only replica exhausts the shard: 503 + Retry-After.
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"boom"}`)) //nolint:errcheck // test stub
	}))
	defer broken.Close()
	_, ts2 := newTestRouter(t, Config{Topology: [][]string{{broken.URL}}, CacheEntries: -1})
	resp, err := http.Get(ts2.URL + "/join?anc=a&desc=b")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("exhausted shard: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 carries no Retry-After")
	}

	// A slow node against a router deadline: 504 and a timeout count.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
		}
		w.Write([]byte(`{}`)) //nolint:errcheck // test stub
	}))
	defer slow.Close()
	rt3, ts3 := newTestRouter(t, Config{
		Topology: [][]string{{slow.URL}}, CacheEntries: -1, QueryTimeout: 80 * time.Millisecond,
	})
	st, _, _ = get(t, ts3.URL+"/join?anc=a&desc=b")
	if st != http.StatusGatewayTimeout {
		t.Errorf("deadline expiry: status %d, want 504", st)
	}
	if rt3.met.timeouts.Load() == 0 {
		t.Error("timeout not counted")
	}

	// Unknown algorithm 400s at the router, before any fan-out.
	st, _, _ = get(t, ts.URL+"/join?anc=a&desc=b&algo=nope")
	if st != http.StatusBadRequest {
		t.Errorf("unknown algo: status %d, want 400", st)
	}
}

// TestRouterErrorsCarryClass checks that errors the router raises itself
// name their failure class, as the nodes' envelopes do: a deadline that
// expires before the fan-out is 504 "deadline", a client gone before it is
// 499 "canceled".
func TestRouterErrorsCarryClass(t *testing.T) {
	n0 := newFakeNode(t, qserv.JoinResponse{Algorithm: "mpmgjn", Count: 1}, qserv.QueryResponse{})
	rt, ts := newTestRouter(t, Config{Topology: [][]string{{n0.ts.URL}}, CacheEntries: -1})
	var e struct{ Error, Class string }

	st, body, _ := get(t, ts.URL+"/join?anc=a&desc=b&timeout=1ns")
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if st != http.StatusGatewayTimeout || e.Class != "deadline" || e.Error == "" {
		t.Errorf("?timeout=1ns: status %d body %s, want 504 class deadline", st, body)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?path=//a//b", nil).WithContext(ctx))
	e.Class = ""
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if rec.Code != serve.StatusClientClosedRequest || e.Class != "canceled" {
		t.Errorf("client gone: status %d body %s, want 499 class canceled", rec.Code, rec.Body)
	}
}

// TestRouterOpenMetrics checks /metrics content negotiation: an
// OpenMetrics scrape gets the 0.0.4 families plus the # EOF terminator.
func TestRouterOpenMetrics(t *testing.T) {
	ts, _ := pinnedRouter(t)
	_, plain, _ := get(t, ts.URL+"/metrics")
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	om, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("Content-Type = %q", ct)
	}
	servetest.Lint(t, om, true)
	if got, want := servetest.Mask(string(om)), servetest.Mask(string(plain))+"# EOF\n"; got != want {
		t.Fatalf("OpenMetrics page is not the 0.0.4 page plus # EOF:\n%s", got)
	}
}

// TestStatsAndMetrics asserts the observability surface carries the
// router families and per-node rows.
func TestStatsAndMetrics(t *testing.T) {
	n0 := newFakeNode(t, qserv.JoinResponse{Algorithm: "mpmgjn", Count: 1}, qserv.QueryResponse{})
	rt, ts := newTestRouter(t, Config{Topology: [][]string{{n0.ts.URL}}, CacheEntries: 8})
	get(t, ts.URL+"/join?anc=a&desc=b")
	get(t, ts.URL+"/join?anc=a&desc=b") // cache hit

	st, body, _ := get(t, ts.URL+"/stats")
	if st != http.StatusOK {
		t.Fatalf("/stats: %d", st)
	}
	var stats statsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 1 || stats.Requests < 2 || len(stats.Nodes) != 1 {
		t.Errorf("stats: %+v", stats)
	}
	if stats.Cache == nil || stats.Cache.Hits != 1 {
		t.Errorf("stats cache block: %+v", stats.Cache)
	}
	if stats.Nodes[0].Requests != 1 || stats.Nodes[0].URL != n0.ts.URL {
		t.Errorf("node row: %+v", stats.Nodes[0])
	}

	_, met, _ := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"pbirouter_requests_total ",
		"pbirouter_shards 1\n",
		fmt.Sprintf("pbirouter_node_healthy{node=%q,shard=\"0\"} 1\n", n0.ts.URL),
		fmt.Sprintf("pbirouter_node_requests_total{node=%q,shard=\"0\"} 1\n", n0.ts.URL),
		"pbirouter_cache_hits_total 1\n",
		"pbirouter_request_latency_seconds_bucket",
		"pbirouter_hedge_fires_total 0\n",
	} {
		if !strings.Contains(string(met), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	_ = rt
}
