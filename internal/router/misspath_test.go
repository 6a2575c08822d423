package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pbitree/pbitree/internal/qserv"
	"github.com/pbitree/pbitree/internal/serve/servetest"
	"github.com/pbitree/pbitree/internal/telemetry"
)

// The tests in this file pin the router's miss path: the allocations a
// routed answer costs and the stitched trace it leaves in the ring.

// cannedTransport answers every node call from memory with a scripted
// payload per endpoint, so an allocation count sees the router and the
// HTTP client it calls, not a network stack or a node.
type cannedTransport struct{ join, query []byte }

func (c *cannedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	body := c.join
	if r.URL.Path == "/query" {
		body = c.query
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}, "X-Cache": {"miss"}},
		Body:       io.NopCloser(bytes.NewReader(body)),
		Request:    r,
	}, nil
}

// missRouter routes over two single-replica shards whose node calls the
// canned transport answers; nothing is dialed.
func missRouter(tb testing.TB) http.Handler {
	tb.Helper()
	rt, err := New(Config{
		Topology:      [][]string{{"http://127.0.0.1:9"}, {"http://127.0.0.1:10"}},
		CacheEntries:  -1,
		ProbeInterval: -1,
		HedgeAfter:    -1,
		Client:        &http.Client{Transport: cannedNodes(tb)},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { rt.Close() }) //nolint:errcheck // test teardown
	return rt.Handler()
}

// cannedNodes returns the transport missRouter's nodes answer through: a
// join and a two-step path query over 20 codes.
func cannedNodes(tb testing.TB) *cannedTransport {
	tb.Helper()
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	codes := make([]uint64, 20)
	for i := range codes {
		codes[i] = uint64(4*i + 1)
	}
	return &cannedTransport{
		join: mustJSON(qserv.JoinResponse{Anc: "a", Desc: "b", Algorithm: "stacktree", Count: 40,
			PageIO: 3, PredictedIO: 4, WallUS: 120}),
		query: mustJSON(qserv.QueryResponse{Path: "//a//b//c", Count: len(codes), Codes: codes,
			Steps: []qserv.PathStep{
				{Anc: "a", Desc: "b", Algorithm: "mhcj+rollup", Matches: 30},
				{Anc: "b", Desc: "c", Algorithm: "stacktree", Matches: int64(len(codes))},
			},
			PageIO: 6, WallUS: 300}),
	}
}

// clientAllocs counts what missRouter's two node calls for target cost the
// standard library and the canned transport alone: per shard, a request
// built and sent as callNode sends it, and the reply's body read.
func clientAllocs(tb testing.TB, target string) float64 {
	tb.Helper()
	c := &http.Client{Transport: cannedNodes(tb)}
	ctx := context.Background()
	return testing.AllocsPerRun(100, func() {
		for _, nodeURL := range []string{"http://127.0.0.1:9", "http://127.0.0.1:10"} {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, nodeURL+target, nil)
			if err != nil {
				tb.Fatal(err)
			}
			req.Header.Set("X-Trace-Id", "0123456789abcdef")
			resp, err := c.Do(req)
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := io.ReadAll(resp.Body); err != nil {
				tb.Fatal(err)
			}
			resp.Body.Close()
		}
	})
}

// missRouterTargets are the routed requests the miss-path tests replay.
var missRouterTargets = []string{
	"/join?anc=a&desc=b",
	"/query?path=%2F%2Fa%2F%2Fb%2F%2Fc",
}

// serveRouted runs r through h into w and reports whether it was answered
// by the nodes.
func serveRouted(h http.Handler, w *hitWriter, r *http.Request) bool {
	clear(w.h)
	w.status = http.StatusOK
	h.ServeHTTP(w, r)
	return w.status == http.StatusOK && w.h.Get("X-Cache") == "miss"
}

// TestRouterMissPathAllocs bounds the allocations of a routed answer
// through the router's whole handler over two shards (fan-out, decoding,
// merging and the trace ring) net of what its node calls cost the HTTP
// client alone (clientAllocs), so a Go release that changes net/http's
// own count moves both sides. Measured on linux/amd64 with go1.24, where
// the client's share is 38: 106 in all for the join and 150 for the path
// query while the ring stitched every trace eagerly and the fan-out
// allocated its state piecemeal; 83 and 120 since, 45 and 82 net.
func TestRouterMissPathAllocs(t *testing.T) {
	h := missRouter(t)
	w := &hitWriter{h: http.Header{}}
	for i, budget := range []float64{57, 97} {
		target := missRouterTargets[i]
		r := httptest.NewRequest(http.MethodGet, target, nil)
		allocs := testing.AllocsPerRun(100, func() {
			if !serveRouted(h, w, r) {
				t.Fatalf("GET %s: status %d, X-Cache %q: not a routed answer", target, w.status, w.h.Get("X-Cache"))
			}
		})
		client := clientAllocs(t, target)
		t.Logf("GET %s: %.0f allocs, %.0f of them the client's", target, allocs, client)
		if own := allocs - client; own > budget {
			t.Errorf("GET %s: %.0f allocations per routed answer net of the client's %.0f, budget %.0f", target, own, client, budget)
		}
	}
}

// BenchmarkRouterMiss times a routed answer through the router's whole
// handler over canned node replies.
func BenchmarkRouterMiss(b *testing.B) {
	for _, bc := range []struct{ name, target string }{
		{"join", missRouterTargets[0]},
		{"query", missRouterTargets[1]},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := missRouter(b)
			w := &hitWriter{h: http.Header{}}
			r := httptest.NewRequest(http.MethodGet, bc.target, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveRouted(h, w, r)
			}
		})
	}
}

// routedRecord serves target through h, then fetches the request's record
// from GET /debug/trace/{id} and returns the response and the record,
// decoded and masked.
func routedRecord(t *testing.T, h http.Handler, target string, status int) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	resp := httptest.NewRecorder()
	h.ServeHTTP(resp, httptest.NewRequest(http.MethodGet, target, nil))
	if resp.Code != status {
		t.Fatalf("GET %s: status %d, want %d: %s", target, resp.Code, status, resp.Body)
	}
	id := resp.Header().Get("X-Trace-Id")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace/"+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/trace/%s: status %d: %s", id, rec.Code, rec.Body)
	}
	var v map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v["trace_id"] != id {
		t.Fatalf("GET /debug/trace/%s: record names %v", id, v["trace_id"])
	}
	servetest.MaskTrace(v)
	return resp, v
}

// TestRouterTraceRingEquivalence pins what GET /debug/trace/{id} returns
// for a routed miss: the JSON an eager rendering gives, ts and walls aside.
// Two cache-less routers front the same cache-less nodes; one has a
// telemetry sidecar, which makes it stitch every trace as the request
// finishes, and the other stitches only what a request asked for. Their
// ring records must agree for a join, a path query and a 206 with one
// shard dead, and each telemetry record must hold the spans its ring
// record renders; the 206's is also pinned literally; and a ?spans=1
// request's record must hold the spans its response carried.
func TestRouterTraceRingEquivalence(t *testing.T) {
	db := buildRouterDB(t, rand.New(rand.NewSource(31)), 2)
	topo := startShardNodes(t, db, 2)
	dead, _ := failingNode(t)
	var mu sync.Mutex
	rendered := map[string]any{} // trace ID → spans its telemetry record kept
	tw := telemetry.NewWithSink(telemetry.Config{Dir: "mem", SlowQuery: time.Nanosecond},
		telemetry.SinkFunc(func(line []byte) error {
			var rec struct {
				TraceID string `json:"trace_id"`
				Spans   any    `json:"spans"`
			}
			if err := json.Unmarshal(line, &rec); err != nil {
				return err
			}
			mu.Lock()
			rendered[rec.TraceID] = servetest.MaskTrace(rec.Spans)
			mu.Unlock()
			return nil
		}))
	defer tw.Close() //nolint:errcheck // test teardown
	pair := func(topo [][]string) (plain, eager http.Handler) {
		p, _ := newTestRouter(t, Config{Topology: topo, CacheEntries: -1, RetryBackoff: -1})
		e, _ := newTestRouter(t, Config{Topology: topo, CacheEntries: -1, RetryBackoff: -1, Telemetry: tw})
		return p.Handler(), e.Handler()
	}
	live, liveEager := pair(topo)
	half, halfEager := pair([][]string{topo[0], {dead.URL}})
	kept := map[string]any{} // trace ID → spans of its ring record, on the telemetry routers

	for _, c := range []struct {
		plain, eager http.Handler
		target       string
		status       int
	}{
		{live, liveEager, "/join?anc=section&desc=figure", http.StatusOK},
		{live, liveEager, "/query?path=//section//para//figure", http.StatusOK},
		{half, halfEager, "/join?anc=section&desc=figure&partial=1", http.StatusPartialContent},
		{half, halfEager, "/query?path=//section//figure&partial=1", http.StatusPartialContent},
	} {
		_, got := routedRecord(t, c.plain, c.target, c.status)
		resp, want := routedRecord(t, c.eager, c.target, c.status)
		if !reflect.DeepEqual(got, want) {
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			t.Errorf("GET %s: ring record\n%s\nwant the eager rendering\n%s", c.target, g, w)
		}
		kept[resp.Header().Get("X-Trace-Id")] = want["spans"]
	}
	tw.Close() //nolint:errcheck // flushes every record to the sink
	for id, spans := range kept {
		if !reflect.DeepEqual(rendered[id], spans) {
			g, _ := json.Marshal(spans)
			w, _ := json.Marshal(rendered[id])
			t.Errorf("trace %s: ring spans\n%s\nwant the telemetry record's\n%s", id, g, w)
		}
	}

	_, got := routedRecord(t, half, "/join?anc=section&desc=figure&partial=1", http.StatusPartialContent)
	var want map[string]any
	pinned := strings.ReplaceAll(`{"trace_id":"masked","ts":"masked","node":"router","query":"//section//figure",
		"spans":[{"name":"join","detail":"routed","node":"router","wall_ns":"masked","reads":0,"writes":0,"virtual_ns":0,
		"children":[
			{"name":"fanout","detail":"shards=2","wall_ns":"masked","reads":0,"writes":0,"virtual_ns":0,
			"children":[
				{"name":"node","detail":"shard=0","node":"NODE0","wall_ns":"masked","reads":0,"writes":0,"virtual_ns":0},
				{"name":"node","detail":"shard=1 missing","wall_ns":"masked","reads":0,"writes":0,"virtual_ns":0}]},
			{"name":"merge","wall_ns":"masked","reads":0,"writes":0,"virtual_ns":0}]}]}`, "NODE0", topo[0][0])
	if err := json.Unmarshal([]byte(pinned), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		t.Errorf("206 ring record\n%s\nwant\n%s", g, pinned)
	}

	for _, target := range []string{
		"/join?anc=section&desc=figure&spans=1",
		"/query?path=//section//para//figure&spans=1",
	} {
		resp, got := routedRecord(t, live, target, http.StatusOK)
		var body map[string]any
		if err := json.Unmarshal(resp.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		spans := servetest.MaskTrace(body["spans"])
		if strings.HasPrefix(target, "/join") {
			spans = []any{spans}
		}
		if !reflect.DeepEqual(got["spans"], spans) {
			g, _ := json.Marshal(got["spans"])
			w, _ := json.Marshal(spans)
			t.Errorf("GET %s: ring spans\n%s\nwant the response's\n%s", target, g, w)
		}
	}
}

// TestRouterTraceRingConcurrentReads routes misses from several goroutines
// while each reads back its own stitched traces and the ones the others
// just left, so the race detector sees ring entries stitched while more
// are stored and while other readers stitch the same entry.
func TestRouterTraceRingConcurrentReads(t *testing.T) {
	h := missRouter(t)
	serve := func(target string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		return rec
	}
	ids := make(chan string, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				rec := serve(missRouterTargets[(g+i)%len(missRouterTargets)])
				if rec.Code != http.StatusOK {
					t.Errorf("routed miss: status %d: %s", rec.Code, rec.Body)
					return
				}
				ids <- rec.Header().Get("X-Trace-Id")
				for _, id := range []string{rec.Header().Get("X-Trace-Id"), <-ids} {
					if got := serve("/debug/trace/" + id); got.Code != http.StatusOK {
						t.Errorf("GET /debug/trace/%s: status %d", id, got.Code)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
