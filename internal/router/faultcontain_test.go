package router

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pbitree/pbitree/internal/qserv"
	"github.com/pbitree/pbitree/internal/serve"
)

// failingNode answers every request 503 and counts the hits.
func failingNode(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"scripted brownout"}`)) //nolint:errcheck // test stub
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

// TestPartialServing locks the degraded-serving contract: with one shard
// dead, ?partial=1 answers 206 with the surviving shards' exact lower
// bound and the missing shard named; the default stays a 503.
func TestPartialServing(t *testing.T) {
	good := goodNode(t)
	dead, _ := failingNode(t)
	rt, ts := newTestRouter(t, Config{
		Topology:     [][]string{{good.URL}, {dead.URL}},
		CacheEntries: 64,
		RetryBackoff: -1, // no failover pacing: single replicas anyway
	})

	// Default (no -allow-partial, no param): the dead shard fails the
	// whole request.
	st, _, _ := get(t, ts.URL+"/join?anc=a&desc=b")
	if st != http.StatusServiceUnavailable {
		t.Fatalf("default: status %d, want 503", st)
	}

	// Opt-in: 206, partial flag, missing shard named, count is shard 0's.
	st, body, xc := get(t, ts.URL+"/join?anc=a&desc=b&partial=1")
	if st != http.StatusPartialContent {
		t.Fatalf("partial=1: status %d: %s", st, body)
	}
	var jr qserv.JoinResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if !jr.Partial || len(jr.MissingShards) != 1 || jr.MissingShards[0] != 1 {
		t.Fatalf("partial envelope: partial=%v missing=%v", jr.Partial, jr.MissingShards)
	}
	if jr.Count != 3 {
		t.Fatalf("partial count %d, want shard 0's 3", jr.Count)
	}
	if xc != "miss" {
		t.Fatalf("partial answer X-Cache %q", xc)
	}

	// Partial answers are never cached: the same partial request misses
	// again, and a later full request cannot be served the undercount.
	_, _, xc = get(t, ts.URL+"/join?anc=a&desc=b&partial=1")
	if xc != "miss" {
		t.Fatalf("second partial request X-Cache %q, want miss (206s are uncacheable)", xc)
	}
	if st, _, _ := get(t, ts.URL+"/join?anc=a&desc=b"); st != http.StatusServiceUnavailable {
		t.Fatalf("full request after 206: status %d, want 503", st)
	}

	if rt.met.partials.Load() < 2 {
		t.Fatalf("partials counter = %d, want >= 2", rt.met.partials.Load())
	}

	// /query serves degraded the same way.
	st, body, _ = get(t, ts.URL+"/query?path=//a//b&partial=1")
	if st != http.StatusPartialContent {
		t.Fatalf("query partial=1: status %d: %s", st, body)
	}
	var qr qserv.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Partial || len(qr.MissingShards) != 1 {
		t.Fatalf("query partial envelope: %+v", qr)
	}
}

// TestAllowPartialDefault flips the router-wide default on and checks the
// per-request override in both directions.
func TestAllowPartialDefault(t *testing.T) {
	good := goodNode(t)
	dead, _ := failingNode(t)
	_, ts := newTestRouter(t, Config{
		Topology:     [][]string{{good.URL}, {dead.URL}},
		CacheEntries: -1,
		AllowPartial: true,
		RetryBackoff: -1,
	})
	if st, _, _ := get(t, ts.URL+"/join?anc=a&desc=b"); st != http.StatusPartialContent {
		t.Fatalf("allow-partial default: status %d, want 206", st)
	}
	if st, _, _ := get(t, ts.URL+"/join?anc=a&desc=b&partial=0"); st != http.StatusServiceUnavailable {
		t.Fatalf("partial=0 override: status %d, want 503", st)
	}
}

// TestAllShardsMissingIsNotPartial: when nothing answered there is no
// lower bound to serve — the request fails even with partial=1.
func TestAllShardsMissingIsNotPartial(t *testing.T) {
	dead, _ := failingNode(t)
	dead2, _ := failingNode(t)
	_, ts := newTestRouter(t, Config{
		Topology:     [][]string{{dead.URL}, {dead2.URL}},
		CacheEntries: -1,
		RetryBackoff: -1,
	})
	st, body, _ := get(t, ts.URL+"/join?anc=a&desc=b&partial=1")
	if st != http.StatusServiceUnavailable {
		t.Fatalf("all shards dead with partial=1: status %d: %s", st, body)
	}
}

// TestRetryAfterFromBreaker pins the Retry-After derivation: a tripped
// breaker's remaining open interval, rounded up, not the old hardcoded 1.
func TestRetryAfterFromBreaker(t *testing.T) {
	dead, _ := failingNode(t)
	_, ts := newTestRouter(t, Config{
		Topology:         [][]string{{dead.URL}},
		CacheEntries:     -1,
		BreakerThreshold: 1,
		BreakerInterval:  7 * time.Second,
		RetryBackoff:     -1,
	})
	// First request trips the breaker (threshold 1) and already reports
	// the fresh open interval.
	resp, err := http.Get(ts.URL + "/join?anc=a&desc=b")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 6 || ra > 7 {
		t.Fatalf("Retry-After %q, want ~7 (breaker interval)", resp.Header.Get("Retry-After"))
	}
	// Second request is breaker-denied outright; the hint shrinks with the
	// elapsing interval but stays breaker-derived.
	resp, err = http.Get(ts.URL + "/join?anc=a&desc=b")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ra, err = strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 7 {
		t.Fatalf("breaker-denied Retry-After %q", resp.Header.Get("Retry-After"))
	}
}

// TestRetryBudgetBoundsBrownout scripts a whole shard browning out and
// asserts the fleet-wide retry volume stays within the configured budget:
// initial attempts are free, failover retries are not.
func TestRetryBudgetBoundsBrownout(t *testing.T) {
	var servers []*httptest.Server
	var counters []*atomic.Int64
	for i := 0; i < 3; i++ {
		ts, hits := failingNode(t)
		servers = append(servers, ts)
		counters = append(counters, hits)
	}
	rt, ts := newTestRouter(t, Config{
		Topology:         [][]string{{servers[0].URL, servers[1].URL, servers[2].URL}},
		CacheEntries:     -1,
		BreakerThreshold: -1,     // isolate the budget from breaker denials
		RetryBudget:      4,      // at most 4 failover retries...
		RetryRefill:      0.0001, // ...with no meaningful refill in-test
		RetryBackoff:     time.Millisecond,
		RetryBackoffMax:  2 * time.Millisecond,
	})

	const requests = 20
	for i := 0; i < requests; i++ {
		st, _, _ := get(t, ts.URL+"/join?anc=a&desc=b")
		if st != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d, want 503", i, st)
		}
	}
	var hits int64
	for _, c := range counters {
		hits += c.Load()
	}
	// 20 free initial attempts plus at most budget(4)+1 retries (one token
	// may trickle in from the tiny refill).
	if hits < requests || hits > requests+5 {
		t.Fatalf("node hits = %d, want within [%d, %d] (budget must bound retries)", hits, requests, requests+5)
	}
	if rt.met.budgetDenials.Load() == 0 {
		t.Fatal("no budget denials counted during a brownout")
	}
	if rt.met.failovers.Load() > 5 {
		t.Fatalf("failovers = %d, want <= 5", rt.met.failovers.Load())
	}
}

// TestBreakerStopsTraffic: once a node's circuit opens, requests stop
// reaching it entirely until the open interval elapses.
func TestBreakerStopsTraffic(t *testing.T) {
	dead, hits := failingNode(t)
	_, ts := newTestRouter(t, Config{
		Topology:         [][]string{{dead.URL}},
		CacheEntries:     -1,
		BreakerThreshold: 2,
		BreakerInterval:  time.Minute,
		RetryBackoff:     -1,
	})
	for i := 0; i < 10; i++ {
		st, _, _ := get(t, ts.URL+"/join?anc=a&desc=b")
		if st != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d", i, st)
		}
	}
	if h := hits.Load(); h != 2 {
		t.Fatalf("dead node served %d requests, want exactly 2 (threshold) before the circuit opened", h)
	}
}

// TestProbeClosesBreaker: a recovered node is promoted by the health
// prober without a live user request as the guinea pig.
func TestProbeClosesBreaker(t *testing.T) {
	var healthy atomic.Bool
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"down"}`)) //nolint:errcheck // test stub
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(qserv.JoinResponse{Algorithm: "mpmgjn", Count: 3}) //nolint:errcheck // test stub
	}))
	defer node.Close()
	rt, ts := newTestRouter(t, Config{
		Topology:         [][]string{{node.URL}},
		CacheEntries:     -1,
		ProbeInterval:    10 * time.Millisecond,
		ProbeTimeout:     time.Second,
		FailAfter:        2,
		BreakerThreshold: 1,
		BreakerInterval:  time.Hour, // only the probe can close it in-test
		RetryBackoff:     -1,
	})
	if st, _, _ := get(t, ts.URL+"/join?anc=a&desc=b"); st != http.StatusServiceUnavailable {
		t.Fatalf("down node: status %d", st)
	}
	if st, _ := rt.shards[0][0].br.snapshot(); st != "open" {
		t.Fatalf("breaker %s after trip", st)
	}
	healthy.Store(true)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, _ := rt.shards[0][0].br.snapshot(); st == "closed" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st, _ := rt.shards[0][0].br.snapshot(); st != "closed" {
		t.Fatalf("breaker %s: probe success did not close it", st)
	}
	if st, _, _ := get(t, ts.URL+"/join?anc=a&desc=b"); st != http.StatusOK {
		t.Fatalf("recovered node: status %d", st)
	}
}

// flakyNode dies mid-stream (status line sent, body truncated) on a
// scripted fraction of requests and answers correctly otherwise.
func flakyNode(t *testing.T, dieEvery int64) *httptest.Server {
	t.Helper()
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%dieEvery == 0 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("no hijacker")
				return
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				return
			}
			conn.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\n{\"count\": 99")) //nolint:errcheck // test stub
			conn.Close()
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(qserv.JoinResponse{Algorithm: "mpmgjn", Count: 3}) //nolint:errcheck // test stub
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestChaosFaultContainment is the fault-containment race test (run under
// -race in CI): hedging, mid-stream node deaths, breaker trips and
// half-open recoveries, client cancels and degraded partial requests all
// overlap — and the invariant is zero wrong answers: every 200 carries the
// full fleet count, every 206 carries exactly the surviving shards' count
// and names the missing ones. Afterwards no goroutines may linger.
func TestChaosFaultContainment(t *testing.T) {
	shard0flaky := flakyNode(t, 3)
	shard0good := goodNode(t)
	shard1good := goodNode(t)
	shard1flaky := flakyNode(t, 4)
	rt, ts := newTestRouter(t, Config{
		Topology:         [][]string{{shard0flaky.URL, shard0good.URL}, {shard1good.URL, shard1flaky.URL}},
		CacheEntries:     -1,
		HedgeAfter:       3 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerInterval:  15 * time.Millisecond,
		RetryBudget:      200,
		RetryRefill:      1000,
		RetryBackoff:     time.Millisecond,
		RetryBackoffMax:  4 * time.Millisecond,
	})
	// Baseline after the servers and router exist: their accept loops live
	// until cleanup and are not leaks.
	before := runtime.NumGoroutine()

	const goroutines = 8
	const perG = 25
	var wrong atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			client := &http.Client{}
			for i := 0; i < perG; i++ {
				url := ts.URL + "/join?anc=a&desc=b"
				if rng.Intn(2) == 0 {
					url += "&partial=1"
				}
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(5) == 0 {
					// A scripted client abandon mid-flight. The delay is
					// drawn here: rng belongs to this goroutine.
					delay := time.Duration(rng.Intn(3)) * time.Millisecond
					go func() {
						time.Sleep(delay)
						cancel()
					}()
				}
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
				if err != nil {
					t.Error(err)
					cancel()
					continue
				}
				resp, err := client.Do(req)
				if err != nil {
					cancel() // client cancel or fleet exhaustion: not a wrong answer
					continue
				}
				var jr qserv.JoinResponse
				derr := json.NewDecoder(resp.Body).Decode(&jr)
				resp.Body.Close()
				cancel()
				switch resp.StatusCode {
				case http.StatusOK:
					if derr != nil || jr.Count != 6 || jr.Partial {
						wrong.Add(1)
						t.Errorf("200 with count=%d partial=%v err=%v, want complete 6", jr.Count, jr.Partial, derr)
					}
				case http.StatusPartialContent:
					if derr != nil || !jr.Partial {
						wrong.Add(1)
						t.Errorf("206 without partial flag (err=%v)", derr)
						continue
					}
					want := int64(3 * (2 - len(jr.MissingShards)))
					if len(jr.MissingShards) < 1 || jr.Count != want {
						wrong.Add(1)
						t.Errorf("206 count=%d missing=%v, want count %d", jr.Count, jr.MissingShards, want)
					}
				case http.StatusServiceUnavailable, serve.StatusClientClosedRequest, http.StatusGatewayTimeout:
					// Honest failures are fine; wrong answers are not.
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()
	if wrong.Load() != 0 {
		t.Fatalf("%d wrong answers", wrong.Load())
	}

	// Every in-flight goroutine (hedges, failovers, backoff timers) must
	// drain once the clients are gone. Idle keep-alive connections hold
	// transport goroutines; they are pooled, not leaked — close them so the
	// count converges on real leaks only.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		rt.client.CloseIdleConnections()
		if runtime.NumGoroutine() <= before+4 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestStatsAndMetricsExposeFaultState: breaker state, budget denials and
// partial counts surface on /stats and /metrics.
func TestStatsAndMetricsExposeFaultState(t *testing.T) {
	good := goodNode(t)
	dead, _ := failingNode(t)
	_, ts := newTestRouter(t, Config{
		Topology:         [][]string{{good.URL}, {dead.URL}},
		CacheEntries:     -1,
		BreakerThreshold: 1,
		BreakerInterval:  time.Minute,
		RetryBackoff:     -1,
	})
	get(t, ts.URL+"/join?anc=a&desc=b&partial=1") // trips shard 1's breaker, serves 206

	st, body, _ := get(t, ts.URL+"/stats")
	if st != http.StatusOK {
		t.Fatalf("/stats: %d", st)
	}
	var stats statsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.PartialResponses < 1 {
		t.Fatalf("partial_responses = %d", stats.PartialResponses)
	}
	states := map[string]bool{}
	for _, nd := range stats.Nodes {
		states[nd.Breaker] = true
	}
	if !states["open"] || !states["closed"] {
		t.Fatalf("breaker states %v, want both open and closed", states)
	}

	_, body, _ = get(t, ts.URL+"/metrics")
	for _, fam := range []string{
		"pbirouter_partial_responses_total 1",
		"pbirouter_breaker_denials_total",
		"pbirouter_retry_budget_denials_total",
		"pbirouter_node_breaker_opens_total",
		"pbirouter_node_breaker_state",
	} {
		if !strings.Contains(string(body), fam) {
			t.Errorf("/metrics missing %q", fam)
		}
	}
}
