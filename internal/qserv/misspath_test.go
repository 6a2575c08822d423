package qserv

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/ingest"
	"github.com/pbitree/pbitree/internal/serve/servetest"
	"github.com/pbitree/pbitree/internal/telemetry"
)

// The tests in this file pin the miss path: the allocations an executed
// answer costs, the trace a miss leaves in the ring, and what that ring
// keeps alive.

// missTargets are the executed requests the miss-path tests replay on a
// cache-less node: a join and a two-step path query.
var missTargets = []string{
	"/join?anc=section&desc=figure",
	"/query?path=%2F%2Fsection%2F%2Fpara%2F%2Ffigure",
}

// missServer returns a cache-less node over the server test database, so
// every request executes.
func missServer(tb testing.TB, tw *telemetry.Writer) *Server {
	tb.Helper()
	db, _ := buildServerDB(tb)
	s, err := New(Config{DBPath: db, Workers: 1, CacheEntries: -1, BufferPages: 32, Telemetry: tw})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() }) //nolint:errcheck // test teardown
	return s
}

// serveMiss runs r through h into w and reports whether it executed.
func serveMiss(h http.Handler, w *hitWriter, r *http.Request) bool {
	clear(w.h)
	w.status = http.StatusOK
	h.ServeHTTP(w, r)
	return w.status == http.StatusOK && w.h.Get("X-Cache") == "miss"
}

// TestMissPathAllocs bounds the allocations of an executed answer through
// the whole handler of a cache-less node (middleware, mux, endpoint, the
// join or the chain, the trace ring). Measured on linux/amd64 with go1.24:
// 35 for the join and 90 for the path query while the ring rendered every
// trace eagerly, a join allocated its state piecemeal and a chain grew its
// own match buffer; 25 and 58 since.
func TestMissPathAllocs(t *testing.T) {
	h := missServer(t, nil).Handler()
	w := &hitWriter{h: http.Header{}}
	for i, budget := range []float64{30, 74} {
		target := missTargets[i]
		r := httptest.NewRequest(http.MethodGet, target, nil)
		allocs := testing.AllocsPerRun(50, func() {
			if !serveMiss(h, w, r) {
				t.Fatalf("GET %s: status %d, X-Cache %q: not an executed answer", target, w.status, w.h.Get("X-Cache"))
			}
		})
		t.Logf("GET %s: %.0f allocs", target, allocs)
		if allocs > budget {
			t.Errorf("GET %s: %.0f allocations per executed answer, budget %.0f", target, allocs, budget)
		}
	}
}

// BenchmarkHandlerMiss times an executed answer through the whole handler
// of a cache-less node.
func BenchmarkHandlerMiss(b *testing.B) {
	for _, bc := range []struct{ name, target string }{
		{"join", missTargets[0]},
		{"query", missTargets[1]},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := missServer(b, nil).Handler()
			w := &hitWriter{h: http.Header{}}
			r := httptest.NewRequest(http.MethodGet, bc.target, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveMiss(h, w, r)
			}
		})
	}
}

// ringRecord fetches GET /debug/trace/{id} from h, checks it names id, and
// returns it decoded and masked.
func ringRecord(t *testing.T, h http.Handler, id string) map[string]any {
	t.Helper()
	rec := serveOnce(h, "/debug/trace/"+id)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/trace/%s: status %d: %s", id, rec.Code, rec.Body)
	}
	var v map[string]any
	mustDecode(t, rec.Body.Bytes(), &v)
	if v["trace_id"] != id {
		t.Fatalf("GET /debug/trace/%s: record names %v", id, v["trace_id"])
	}
	servetest.MaskTrace(v)
	return v
}

// TestTraceRingEquivalence pins what GET /debug/trace/{id} returns for a
// miss: the JSON an eager rendering gives, ts and walls aside. Two
// cache-less nodes over one database serve the same requests in the same
// order, so their executions do equal work. One of them has a telemetry
// sidecar capturing span trees, which makes it render every trace as the
// request finishes; the other renders only what a request asked for. Their
// ring records must agree, each telemetry record must hold the spans its
// ring record renders, and a ?spans=1 request's record must hold the spans
// its response carried.
func TestTraceRingEquivalence(t *testing.T) {
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
	plain, eager := missServer(t, nil).Handler(), missServer(t, tw).Handler()
	kept := map[string]any{} // trace ID → spans of its ring record, on the telemetry node
	for _, target := range []string{
		"/join?anc=section&desc=figure",
		"/query?path=//section//para//figure",
		"/join?anc=para&desc=figure&algo=stacktree&spans=1",
		"/query?path=//section//figure&spans=1",
	} {
		p, e := serveOnce(plain, target), serveOnce(eager, target)
		if p.Code != http.StatusOK || e.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d and %d", target, p.Code, e.Code)
		}
		got := ringRecord(t, plain, p.Header().Get("X-Trace-Id"))
		want := ringRecord(t, eager, e.Header().Get("X-Trace-Id"))
		if !reflect.DeepEqual(got, want) {
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			t.Errorf("GET %s: ring record\n%s\nwant the eager rendering\n%s", target, g, w)
		}
		kept[e.Header().Get("X-Trace-Id")] = want["spans"]
		if !strings.Contains(target, "spans=1") {
			continue
		}
		var resp map[string]any
		mustDecode(t, p.Body.Bytes(), &resp)
		spans := servetest.MaskTrace(resp["spans"])
		if strings.HasPrefix(target, "/join") {
			spans = []any{spans}
		}
		if !reflect.DeepEqual(got["spans"], spans) {
			g, _ := json.Marshal(got["spans"])
			w, _ := json.Marshal(spans)
			t.Errorf("GET %s: ring spans\n%s\nwant the response's\n%s", target, g, w)
		}
	}
	tw.Close() //nolint:errcheck // flushes every record to the sink
	for id, spans := range kept {
		if !reflect.DeepEqual(rendered[id], spans) {
			g, _ := json.Marshal(spans)
			w, _ := json.Marshal(rendered[id])
			t.Errorf("trace %s: ring spans\n%s\nwant the telemetry record's\n%s", id, g, w)
		}
	}
}

// TestTraceRingDoesNotPinEngine checks that the trace ring keeps a retired
// engine collectable: traces are kept as the measured span trees and
// results of their joins, none of which may reach back into the engine's
// buffer pool or working memory. It fills the ring with misses on one
// worker, publishes an epoch and compacts it — a new base, so the worker's
// engine is swapped out and closed rather than advanced — and waits for the
// old engine's finalizer with the ring still full of its traces.
func TestTraceRingDoesNotPinEngine(t *testing.T) {
	db := buildIngestDB(t, t.TempDir(), ingestBaseDocs())
	st, err := ingest.Open(ingest.Config{DBPath: db, GapAware: true, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close() //nolint:errcheck // test teardown
	s, err := New(Config{DBPath: db, Ingest: st, Workers: 1, CacheEntries: -1, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	collected := make(chan struct{})
	s.poolMu.Lock()
	runtime.SetFinalizer(s.all[0].(*soloWorker).eng, func(*containment.Engine) { close(collected) })
	s.poolMu.Unlock()

	const ring = 256
	for i := 0; i < ring; i++ {
		target := "/join?anc=book&desc=title"
		if i%2 == 1 {
			target = "/query?path=//lib//book//title"
		}
		if rec := serveOnce(h, target); rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(
		`{"ops":[{"op":"insert_doc","doc":"n0","xml":"<lib><book><title>t</title></book></lib>"}]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", rec.Code, rec.Body)
	}
	if err := st.CompactNow(); err != nil {
		t.Fatal(err)
	}
	// The next acquire swaps the stale worker, closing its engine; this
	// request's trace evicts one of the old engine's.
	if rec := serveOnce(h, "/join?anc=book&desc=title"); rec.Code != http.StatusOK || rec.Header().Get("X-Epoch") != "2" {
		t.Fatalf("post-ingest join: status %d epoch %q", rec.Code, rec.Header().Get("X-Epoch"))
	}
	if n := s.traces.Len(); n != ring {
		t.Fatalf("ring holds %d traces, want %d", n, ring)
	}

	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatal("the retired engine was never collected: the trace ring pins it")
		}
	}
	runtime.KeepAlive(s)
}

// TestTraceRingConcurrentReads serves misses from several goroutines while
// each reads back its own traces and the ones the others just left, so the
// race detector sees ring entries rendered while more are stored and while
// other readers render the same entry.
func TestTraceRingConcurrentReads(t *testing.T) {
	db, _ := buildServerDB(t)
	s, err := New(Config{DBPath: db, Workers: 2, CacheEntries: -1, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	ids := make(chan string, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				rec := serveOnce(h, missTargets[(g+i)%len(missTargets)])
				if rec.Code != http.StatusOK {
					t.Errorf("miss: status %d: %s", rec.Code, rec.Body)
					return
				}
				ids <- rec.Header().Get("X-Trace-Id")
				for _, id := range []string{rec.Header().Get("X-Trace-Id"), <-ids} {
					if got := serveOnce(h, "/debug/trace/"+id); got.Code != http.StatusOK {
						t.Errorf("GET /debug/trace/%s: status %d", id, got.Code)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
