package qserv

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pbitree/pbitree/internal/serve/servetest"
	"github.com/pbitree/pbitree/internal/telemetry"
	"github.com/pbitree/pbitree/internal/trace"
)

// TestSpansExportAndTraceRing covers the span-export wire path end to end:
// ?spans=1 returns the span tree (bypassing the cache), the trace lands in
// the ring, and GET /debug/trace/{id} retrieves it with counter deltas and
// PredictedIO intact.
func TestSpansExportAndTraceRing(t *testing.T) {
	db, _ := buildServerDB(t)
	s, err := New(Config{DBPath: db, Workers: 2, CacheEntries: 64, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	status, body, _ := get(t, client, ts.URL+"/join?anc=section&desc=figure&spans=1")
	if status != http.StatusOK {
		t.Fatalf("join?spans=1 status = %d: %s", status, body)
	}
	var jr JoinResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.TraceID == "" || jr.Spans == nil {
		t.Fatalf("spans=1 response missing trace: %+v", jr)
	}
	if jr.Spans.Name != "join" {
		t.Fatalf("root span = %q, want join", jr.Spans.Name)
	}
	if jr.Spans.PredictedIO != jr.PredictedIO {
		t.Fatalf("root span predicted = %d, envelope says %d", jr.Spans.PredictedIO, jr.PredictedIO)
	}
	if jr.Spans.Pages() != jr.PageIO {
		t.Fatalf("root span pages = %d, envelope says %d", jr.Spans.Pages(), jr.PageIO)
	}

	// A spans=1 request must never be served from (or populate) the result
	// cache: a second call gets a fresh trace ID and X-Cache: miss.
	resp, err := client.Get(ts.URL + "/join?anc=section&desc=figure&spans=1")
	if err != nil {
		t.Fatal(err)
	}
	var jr2 JoinResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("second spans=1 request X-Cache = %q, want miss", got)
	}
	if jr2.TraceID == jr.TraceID {
		t.Fatal("two spans=1 requests shared a trace ID")
	}

	// Ring retrieval by ID, for both executions.
	for _, id := range []string{jr.TraceID, jr2.TraceID} {
		status, body, _ = get(t, client, ts.URL+"/debug/trace/"+id)
		if status != http.StatusOK {
			t.Fatalf("debug/trace/%s status = %d: %s", id, status, body)
		}
		var rec trace.Record
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.TraceID != id || len(rec.Spans) != 1 {
			t.Fatalf("record = %+v", rec)
		}
		if rec.Spans[0].Pages() != jr.PageIO || rec.Spans[0].PredictedIO != jr.PredictedIO {
			t.Fatalf("ring lost counters: %+v", rec.Spans[0])
		}
	}

	// Unknown ID → 404.
	status, _, _ = get(t, client, ts.URL+"/debug/trace/nope")
	if status != http.StatusNotFound {
		t.Fatalf("unknown trace id status = %d, want 404", status)
	}

	// Plain requests (no spans=1) keep the lean envelope but still deposit
	// their trace in the ring under the response's X-Trace-Id.
	resp, err = client.Get(ts.URL + "/query?path=//section//para//figure")
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Header.Get("X-Trace-Id")
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if qr.TraceID != "" || qr.Spans != nil {
		t.Fatalf("plain query leaked spans: %+v", qr)
	}
	status, body, _ = get(t, client, ts.URL+"/debug/trace/"+id)
	if status != http.StatusOK {
		t.Fatalf("plain query not in ring: %d %s", status, body)
	}
	var rec trace.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Spans) != 2 { // two join steps
		t.Fatalf("path query spans = %d, want 2", len(rec.Spans))
	}

	// Query spans=1 returns per-step trees inline.
	status, body, _ = get(t, client, ts.URL+"/query?path=//section//para//figure&spans=1")
	if status != http.StatusOK {
		t.Fatalf("query?spans=1 status = %d", status)
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.TraceID == "" || len(qr.Spans) != 2 {
		t.Fatalf("query spans=1 response: trace=%q spans=%d", qr.TraceID, len(qr.Spans))
	}
}

// TestTelemetrySidecarRecords asserts the acceptance shape: with telemetry
// enabled, every completed query appends exactly one valid JSONL record
// with trace ID and actual/predicted ratios, including cache hits and
// 404s.
func TestTelemetrySidecarRecords(t *testing.T) {
	db, _ := buildServerDB(t)
	dir := t.TempDir()
	tw, err := telemetry.New(telemetry.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DBPath: db, Workers: 2, CacheEntries: 64, BufferPages: 32, Telemetry: tw})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	urls := []string{
		"/join?anc=section&desc=figure", // executes
		"/join?anc=section&desc=figure", // cache hit
		"/query?path=//section//figure", // executes
		"/join?anc=section&desc=nosuch", // 404
	}
	for _, u := range urls {
		resp, err := client.Get(ts.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// /metrics and /stats must not produce records.
	get(t, client, ts.URL+"/metrics")
	get(t, client, ts.URL+"/stats")
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(dir, "telemetry-*.jsonl"))
	if err != nil || len(files) != 1 {
		t.Fatalf("telemetry files = %v (%v)", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(urls) {
		t.Fatalf("records = %d, want %d:\n%s", len(lines), len(urls), data)
	}
	var recs []telemetry.Record
	for i, ln := range lines {
		var rec telemetry.Record
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %d invalid: %v", i, err)
		}
		if rec.TraceID == "" {
			t.Fatalf("line %d has no trace ID: %s", i, ln)
		}
		recs = append(recs, rec)
	}
	if recs[0].Outcome != "ok" || recs[0].Algorithm == "" || len(recs[0].Phases) == 0 {
		t.Fatalf("executed join record: %+v", recs[0])
	}
	if recs[0].PredictedIO <= 0 || recs[0].IORatio <= 0 {
		t.Fatalf("executed join record has no prediction ratio: %+v", recs[0])
	}
	if recs[1].Outcome != "cached" {
		t.Fatalf("cache hit outcome = %q", recs[1].Outcome)
	}
	if recs[2].Outcome != "ok" || recs[2].Query != "//section//figure" {
		t.Fatalf("query record: %+v", recs[2])
	}
	if recs[3].Outcome != "not_found" || recs[3].Status != http.StatusNotFound {
		t.Fatalf("404 record: %+v", recs[3])
	}
}

// TestBlockedTelemetryNeverStallsQueries is the acceptance -race test: a
// deliberately wedged telemetry sink drops records (counter incremented)
// while queries keep answering at full speed.
func TestBlockedTelemetryNeverStallsQueries(t *testing.T) {
	db, _ := buildServerDB(t)
	bs := telemetry.NewBlockedSink()
	tw := telemetry.NewWithSink(telemetry.Config{QueueDepth: 2}, bs)
	defer func() {
		bs.Release()
		tw.Close()
	}()
	s, err := New(Config{DBPath: db, Workers: 2, CacheEntries: 64, BufferPages: 32, Telemetry: tw})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	const workers, per = 4, 25
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				status, body, _ := get(t, client, ts.URL+"/join?anc=section&desc=figure")
				if status != http.StatusOK {
					t.Errorf("query failed under blocked sink: %d %s", status, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	if dropped := tw.Dropped(); dropped < workers*per-3 {
		t.Fatalf("dropped = %d, want ≈%d (queue=2 + one in flight)", dropped, workers*per)
	}
	if tw.Written() != 0 {
		t.Fatalf("written = %d through a wedged sink", tw.Written())
	}
	// 100 cache-mostly queries finish in well under a second when nothing
	// blocks; a stalled request path would pin this at the sink's mercy.
	if elapsed > 30*time.Second {
		t.Fatalf("queries took %v under a blocked sink", elapsed)
	}
	// The dropped counter surfaces on /metrics.
	_, body, _ := get(t, client, ts.URL+"/metrics")
	if !strings.Contains(string(body), "pbiserve_telemetry_dropped_total") {
		t.Fatal("metrics missing pbiserve_telemetry_dropped_total")
	}
}

// TestOpenMetricsExemplars checks content negotiation: the default
// exposition stays exactly two fields per sample, while an OpenMetrics
// Accept header gets exemplars carrying trace IDs and the # EOF terminator.
func TestOpenMetricsExemplars(t *testing.T) {
	db, _ := buildServerDB(t)
	s, err := New(Config{DBPath: db, Workers: 1, CacheEntries: -1, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	resp, err := client.Get(ts.URL + "/join?anc=section&desc=figure")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	traceID := resp.Header.Get("X-Trace-Id")

	// Default exposition: no exemplar syntax anywhere.
	_, body, _ := get(t, client, ts.URL+"/metrics")
	if strings.Contains(string(body), "# {") {
		t.Fatal("default exposition contains exemplars")
	}
	servetest.Lint(t, body, false)

	// OpenMetrics negotiation: exemplars present, trace ID attached, EOF
	// terminator last.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	omResp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	omBody := new(strings.Builder)
	if _, err := fmt.Fprint(omBody, readAll(t, omResp)); err != nil {
		t.Fatal(err)
	}
	om := omBody.String()
	if ct := omResp.Header.Get("Content-Type"); !strings.Contains(ct, "application/openmetrics-text") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(om, fmt.Sprintf("# {trace_id=%q}", traceID)) {
		t.Fatalf("OpenMetrics exposition missing exemplar for %s", traceID)
	}
	if !strings.HasSuffix(strings.TrimRight(om, "\n"), "# EOF") {
		t.Fatal("OpenMetrics exposition missing # EOF terminator")
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}
