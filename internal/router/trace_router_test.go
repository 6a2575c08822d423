package router

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/pbitree/pbitree/internal/qserv"
	"github.com/pbitree/pbitree/internal/telemetry"
	"github.com/pbitree/pbitree/internal/trace"
)

// TestRouterStitchedTrace drives one ?spans=1 join through a multi-shard
// fleet and checks the distributed trace: the response carries a stitched
// tree rooted at the router with one node subtree per shard, counters and
// PredictedIO summed upward, and GET /debug/trace/{id} returns the same
// record afterwards — from the router and from every node.
func TestRouterStitchedTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const nShards = 3
	db := buildRouterDB(t, rng, nShards)
	topo := startShardNodes(t, db, nShards)
	_, ts := newTestRouter(t, Config{Topology: topo})

	status, body, cache := get(t, ts.URL+"/join?anc=section&desc=figure&spans=1")
	if status != 200 {
		t.Fatalf("spans join: status %d: %s", status, body)
	}
	if cache == "hit" {
		t.Fatal("spans join must bypass the router cache")
	}
	var jr qserv.JoinResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.TraceID == "" || jr.Spans == nil {
		t.Fatalf("spans join: missing trace_id/spans: %s", body)
	}
	root := jr.Spans
	if root.Name != "join" || root.Node != "router" {
		t.Fatalf("root = %s @%s, want join @router", root.Name, root.Node)
	}
	if root.Pages() != jr.PageIO {
		t.Errorf("root pages %d != merged PageIO %d", root.Pages(), jr.PageIO)
	}
	if root.PredictedIO != jr.PredictedIO {
		t.Errorf("root PredictedIO %d != merged %d", root.PredictedIO, jr.PredictedIO)
	}
	var fan *trace.WireSpan
	for _, c := range root.Children {
		if c.Name == "fanout" {
			fan = c
		}
	}
	if fan == nil {
		t.Fatalf("no fanout child under root: %s", body)
	}
	if len(fan.Children) != nShards {
		t.Fatalf("fanout has %d children, want %d", len(fan.Children), nShards)
	}
	seen := map[string]bool{}
	for _, nd := range fan.Children {
		if nd.Name != "node" || nd.Node == "" {
			t.Fatalf("fanout child %q node=%q", nd.Name, nd.Node)
		}
		seen[nd.Node] = true
		if len(nd.Children) != 1 || nd.Children[0].Name != "join" {
			t.Fatalf("node %s: no join subtree", nd.Node)
		}
		if !strings.HasPrefix(nd.Detail, "shard=") {
			t.Fatalf("node %s detail %q", nd.Node, nd.Detail)
		}
	}
	if len(seen) != nShards {
		t.Fatalf("spans from %d distinct nodes, want %d", len(seen), nShards)
	}

	// The stitched record is retrievable by ID from the router...
	status, body, _ = get(t, ts.URL+"/debug/trace/"+jr.TraceID)
	if status != 200 {
		t.Fatalf("debug/trace/%s: status %d: %s", jr.TraceID, status, body)
	}
	var rec trace.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Node != "router" || rec.TraceID != jr.TraceID || len(rec.Spans) != 1 {
		t.Fatalf("router record: node=%q id=%q spans=%d", rec.Node, rec.TraceID, len(rec.Spans))
	}
	// ...and each node retained its own fragment under the same ID.
	for si, group := range topo {
		status, body, _ = get(t, group[0]+"/debug/trace/"+jr.TraceID)
		if status != 200 {
			t.Fatalf("shard %d debug/trace: status %d: %s", si, status, body)
		}
	}

	// Unknown IDs 404; the bare prefix is a usage error.
	if status, _, _ = get(t, ts.URL+"/debug/trace/nope"); status != 404 {
		t.Fatalf("unknown trace: status %d, want 404", status)
	}
	if status, _, _ = get(t, ts.URL+"/debug/trace/"); status != 400 {
		t.Fatalf("bare /debug/trace/: status %d, want 400", status)
	}

	// A plain join leaks no spans into the payload but still deposits a
	// skeleton trace (fanout latencies, no node subtrees) in the ring.
	_, body, _ = get(t, ts.URL+"/join?anc=section&desc=para")
	var plain qserv.JoinResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Spans != nil || plain.TraceID != "" {
		t.Fatalf("plain join must not embed spans or trace_id: %s", body)
	}
}

// TestRouterCacheHitTrace checks that a router-cache hit deposits a
// stitched trace whose only child is the cache span.
func TestRouterCacheHitTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	db := buildRouterDB(t, rng, 2)
	topo := startShardNodes(t, db, 2)
	rt, ts := newTestRouter(t, Config{Topology: topo, CacheEntries: 8})

	get(t, ts.URL+"/join?anc=section&desc=figure")
	resp, err := http.Get(ts.URL + "/join?anc=section&desc=figure")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second join: status %d cache %q, want 200/hit", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	// The hit's trace ID differs from the miss's; look it up in the ring.
	hit := rt.traces.Get(resp.Header.Get("X-Trace-Id"))
	if hit == nil || len(hit.Spans) != 1 || len(hit.Spans[0].Children) != 1 ||
		hit.Spans[0].Children[0].Name != "cache" {
		t.Fatalf("no cache-hit trace in the ring: %+v", hit)
	}
	if hit.Node != "router" || hit.Query != "//section//figure" {
		t.Fatalf("cache-hit record: node=%q query=%q", hit.Node, hit.Query)
	}
}

// TestRouterQuerySpans checks span export and stitching on the path-query
// endpoint: one node subtree per shard, each carrying one tree per join
// step.
func TestRouterQuerySpans(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const nShards = 2
	db := buildRouterDB(t, rng, nShards)
	topo := startShardNodes(t, db, nShards)
	_, ts := newTestRouter(t, Config{Topology: topo})

	status, body, _ := get(t, ts.URL+"/query?path=//section//para//figure&spans=1")
	if status != 200 {
		t.Fatalf("spans query: status %d: %s", status, body)
	}
	var qr qserv.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.TraceID == "" || len(qr.Spans) != 1 {
		t.Fatalf("spans query: trace_id=%q spans=%d", qr.TraceID, len(qr.Spans))
	}
	root := qr.Spans[0]
	if root.Name != "query" || root.Node != "router" {
		t.Fatalf("root = %s @%s, want query @router", root.Name, root.Node)
	}
	for _, c := range root.Children {
		if c.Name != "fanout" {
			continue
		}
		if len(c.Children) != nShards {
			t.Fatalf("fanout children %d, want %d", len(c.Children), nShards)
		}
		for _, nd := range c.Children {
			// A 2-step chain produces 2 trees per node.
			if len(nd.Children) != 2 {
				t.Fatalf("node %s: %d step trees, want 2", nd.Node, len(nd.Children))
			}
		}
	}
	if root.Pages() != qr.PageIO {
		t.Errorf("root pages %d != merged PageIO %d", root.Pages(), qr.PageIO)
	}
}

// memSink collects telemetry lines in memory.
type memSink struct {
	mu    sync.Mutex
	lines [][]byte
}

func (m *memSink) add(line []byte) error {
	m.mu.Lock()
	m.lines = append(m.lines, append([]byte(nil), line...))
	m.mu.Unlock()
	return nil
}

// TestRouterTelemetry checks that the router emits exactly one sidecar
// record per routed /join and /query — Node "router", the shared outcome
// vocabulary, merged I/O totals — and none for introspection endpoints.
func TestRouterTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	db := buildRouterDB(t, rng, 2)
	topo := startShardNodes(t, db, 2)
	sink := &memSink{}
	tw := telemetry.NewWithSink(telemetry.Config{Dir: "mem"}, telemetry.SinkFunc(sink.add))
	_, ts := newTestRouter(t, Config{Topology: topo, CacheEntries: 8, Telemetry: tw})

	get(t, ts.URL+"/join?anc=section&desc=figure") // executed
	get(t, ts.URL+"/join?anc=section&desc=figure") // cached
	get(t, ts.URL+"/query?path=//section//figure") // executed
	get(t, ts.URL+"/join?anc=section")             // 400
	get(t, ts.URL+"/stats")                        // not recorded
	get(t, ts.URL+"/metrics")                      // not recorded

	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.lines) != 4 {
		t.Fatalf("%d telemetry records, want 4", len(sink.lines))
	}
	var recs []telemetry.Record
	for _, line := range sink.lines {
		var rec telemetry.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad record %s: %v", line, err)
		}
		recs = append(recs, rec)
	}
	for i, rec := range recs {
		if rec.Node != "router" {
			t.Errorf("record %d: node %q, want router", i, rec.Node)
		}
		if rec.TraceID == "" {
			t.Errorf("record %d: empty trace_id", i)
		}
	}
	if recs[0].Outcome != "ok" || recs[0].Query != "//section//figure" || recs[0].PageIO <= 0 {
		t.Errorf("executed join record: %+v", recs[0])
	}
	if recs[0].PredictedIO <= 0 || recs[0].IORatio <= 0 {
		t.Errorf("executed join record lacks prediction: %+v", recs[0])
	}
	if len(recs[0].Phases) == 0 {
		t.Errorf("executed join record has no phases")
	}
	if recs[1].Outcome != "cached" {
		t.Errorf("cached join outcome %q", recs[1].Outcome)
	}
	if recs[2].Outcome != "ok" || recs[2].Endpoint != "/query" {
		t.Errorf("query record: %+v", recs[2])
	}
	if recs[3].Outcome != "error" || recs[3].Status != 400 {
		t.Errorf("bad-request record: %+v", recs[3])
	}
}
