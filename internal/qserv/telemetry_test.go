package qserv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pbitree/pbitree/internal/serve"
	"github.com/pbitree/pbitree/internal/serve/servetest"
)

func TestLatencySnapshotEmptyRing(t *testing.T) {
	m := newMetrics()
	s := m.lat.Snapshot()
	if s.Samples != 0 || s.P50US != 0 || s.P95US != 0 || s.P99US != 0 || s.MaxUS != 0 {
		t.Fatalf("empty ring snapshot = %+v, want all zero", s)
	}
	if got := serve.Percentile(nil, 0.99); got != 0 {
		t.Fatalf("percentile(nil) = %v, want 0", got)
	}
}

// TestObserveHistogram checks that a served request's latency lands in the
// request counter, the /stats window and the /metrics histogram, with its
// trace ID as the bucket's exemplar.
func TestObserveHistogram(t *testing.T) {
	m := newMetrics()
	m.observe(50*time.Microsecond, "t1")  // ≤ 0.0001 → first bucket
	m.observe(400*time.Microsecond, "t2") // ≤ 0.0005 → third bucket
	m.observe(20*time.Second, "t3")       // beyond the last bound → +Inf only
	if got := m.requests.Load(); got != 3 {
		t.Fatalf("requests = %d, want 3", got)
	}
	var buf bytes.Buffer
	serve.Family(&buf, "h", "test histogram", "histogram")
	m.lat.WriteHistogram(&buf, "h", "", true)
	buf.WriteString("# EOF\n")
	samples, _ := servetest.Lint(t, buf.Bytes(), true)
	for series, want := range map[string]float64{
		`h_bucket{le="0.0001"}`:  1,
		`h_bucket{le="0.00025"}`: 1,
		`h_bucket{le="0.0005"}`:  2,
		`h_bucket{le="10"}`:      2,
		`h_bucket{le="+Inf"}`:    3,
		"h_count":                3,
	} {
		if samples[series] != want {
			t.Errorf("%s = %v, want %v", series, samples[series], want)
		}
	}
	if want := (50*time.Microsecond + 400*time.Microsecond + 20*time.Second).Seconds(); samples["h_sum"] != want {
		t.Errorf("h_sum = %v, want %v", samples["h_sum"], want)
	}
	for _, id := range []string{"t1", "t2", "t3"} {
		if !strings.Contains(buf.String(), fmt.Sprintf("# {trace_id=%q}", id)) {
			t.Errorf("no exemplar for %s:\n%s", id, buf.String())
		}
	}
	s := m.lat.Snapshot()
	if s.Samples != 3 || s.MaxUS != (20*time.Second).Microseconds() {
		t.Fatalf("snapshot after observe = %+v", s)
	}
}

// labelValue extracts one label's value from a series name like
// name{algorithm="MHCJ",phase="partition"}.
func labelValue(series, label string) string {
	i := strings.Index(series, label+`="`)
	if i < 0 {
		return ""
	}
	rest := series[i+len(label)+2:]
	j := strings.Index(rest, `"`)
	if j < 0 {
		return ""
	}
	return rest[:j]
}

// TestMetricsExposition drives real traffic through the server and checks
// the /metrics page: well-formed text format, the expected families, and —
// the acceptance invariant — per-phase page-I/O counters that sum exactly
// to the per-algorithm totals.
func TestMetricsExposition(t *testing.T) {
	db, _ := buildServerDB(t)
	s, err := New(Config{DBPath: db, Workers: 2, CacheEntries: 64, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	for _, url := range []string{
		ts.URL + "/join?anc=section&desc=figure&algo=mhcj",
		ts.URL + "/join?anc=section&desc=figure&algo=mhcj", // cache hit
		ts.URL + "/join?anc=para&desc=figure&algo=stacktree",
		ts.URL + "/query?path=//section//para//figure",
		ts.URL + "/debug/trace?anc=section&desc=para",
	} {
		if code, body, _ := get(t, client, url); code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", url, code, body)
		}
	}

	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	samples, families := servetest.Lint(t, buf.Bytes(), false)

	for fam, typ := range map[string]string{
		"pbiserve_uptime_seconds":                   "gauge",
		"pbiserve_requests_total":                   "counter",
		"pbiserve_errors_total":                     "counter",
		"pbiserve_cache_hits_total":                 "counter",
		"pbiserve_request_latency_seconds":          "histogram",
		"pbiserve_join_requests_total":              "counter",
		"pbiserve_join_page_io_total":               "counter",
		"pbiserve_join_phase_page_io_total":         "counter",
		"pbiserve_join_phase_virtual_seconds_total": "counter",
	} {
		if families[fam] != typ {
			t.Errorf("family %s: TYPE %q, want %q", fam, families[fam], typ)
		}
	}
	if samples["pbiserve_requests_total"] < 4 {
		t.Errorf("requests_total = %v, want ≥ 4", samples["pbiserve_requests_total"])
	}
	if samples["pbiserve_cache_hits_total"] < 1 {
		t.Errorf("cache_hits_total = %v, want ≥ 1", samples["pbiserve_cache_hits_total"])
	}
	if samples["pbiserve_errors_total"] != 0 {
		t.Errorf("errors_total = %v, want 0", samples["pbiserve_errors_total"])
	}

	// Acceptance invariant: per-phase self-attributed page I/O sums to the
	// per-algorithm total, for every algorithm that served traffic.
	perAlg := map[string]float64{}
	phaseSum := map[string]float64{}
	for series, v := range samples {
		if strings.HasPrefix(series, "pbiserve_join_page_io_total{") {
			perAlg[labelValue(series, "algorithm")] = v
		}
		if strings.HasPrefix(series, "pbiserve_join_phase_page_io_total{") {
			phaseSum[labelValue(series, "algorithm")] += v
		}
	}
	if len(perAlg) == 0 {
		t.Fatal("no pbiserve_join_page_io_total series after join traffic")
	}
	for alg, total := range perAlg {
		if phaseSum[alg] != total {
			t.Errorf("algorithm %s: phase page I/O sums to %v, join total is %v", alg, phaseSum[alg], total)
		}
	}
}

// syncWriter is a mutex-guarded buffer for capturing the access log: the
// server writes log lines after the response is sent, so reads must be
// synchronized and may need to wait.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) lines() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := strings.TrimRight(w.buf.String(), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

func TestTraceIDAndAccessLog(t *testing.T) {
	db, _ := buildServerDB(t)
	logw := &syncWriter{}
	s, err := New(Config{DBPath: db, Workers: 1, CacheEntries: 16, BufferPages: 32, AccessLog: logw})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	urls := []string{
		ts.URL + "/join?anc=section&desc=figure",
		ts.URL + "/join?anc=section&desc=figure",
		ts.URL + "/query?path=//section//figure",
	}
	ids := map[string]bool{}
	for _, url := range urls {
		resp, err := ts.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Trace-Id")
		if id == "" {
			t.Fatalf("GET %s: no X-Trace-Id header", url)
		}
		if ids[id] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		ids[id] = true
	}

	// The log line is written after the response; poll briefly.
	var lines []string
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if lines = logw.lines(); len(lines) >= len(urls) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(lines) != len(urls) {
		t.Fatalf("access log has %d lines, want %d: %q", len(lines), len(urls), lines)
	}
	for _, line := range lines {
		var rec struct {
			TS         string `json:"ts"`
			TraceID    string `json:"trace_id"`
			Method     string `json:"method"`
			Path       string `json:"path"`
			Status     int    `json:"status"`
			DurationUS int64  `json:"duration_us"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line is not JSON: %q: %v", line, err)
		}
		if !ids[rec.TraceID] {
			t.Errorf("log line trace ID %q not seen in any response header", rec.TraceID)
		}
		if rec.Method != "GET" || rec.Status != http.StatusOK || rec.TS == "" {
			t.Errorf("unexpected log record: %+v", rec)
		}
	}
}

func TestDebugTraceEndpoint(t *testing.T) {
	db, _ := buildServerDB(t)
	s, err := New(Config{DBPath: db, Workers: 1, CacheEntries: 16, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	type spanNode struct {
		Name     string      `json:"name"`
		Reads    int64       `json:"reads"`
		Writes   int64       `json:"writes"`
		Pairs    int64       `json:"pairs"`
		Children []*spanNode `json:"children"`
	}
	var resp struct {
		TraceID string `json:"trace_id"`
		Query   string `json:"query"`
		Joins   []struct {
			Algorithm string    `json:"algorithm"`
			Count     int64     `json:"count"`
			PageIO    int64     `json:"page_io"`
			Spans     *spanNode `json:"spans"`
		} `json:"joins"`
	}

	code, body, _ := get(t, client, ts.URL+"/debug/trace?anc=section&desc=figure")
	if code != http.StatusOK {
		t.Fatalf("debug/trace join: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID == "" || len(resp.Joins) != 1 {
		t.Fatalf("unexpected trace response: %s", body)
	}
	j := resp.Joins[0]
	if j.Spans == nil || j.Spans.Name != "join" || len(j.Spans.Children) == 0 {
		t.Fatalf("span tree missing or rootless: %s", body)
	}
	if got := j.Spans.Reads + j.Spans.Writes; got != j.PageIO {
		t.Errorf("root span I/O %d != reported page_io %d", got, j.PageIO)
	}
	if j.Spans.Pairs != j.Count {
		t.Errorf("root span pairs %d != count %d", j.Spans.Pairs, j.Count)
	}

	code, body, _ = get(t, client, ts.URL+"/debug/trace?query=//section//para//figure")
	if code != http.StatusOK {
		t.Fatalf("debug/trace query: %d %s", code, body)
	}
	resp.Joins = nil
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Joins) != 2 {
		t.Fatalf("path trace: got %d joins, want 2: %s", len(resp.Joins), body)
	}
	for _, j := range resp.Joins {
		if j.Spans == nil || j.Spans.Name != "join" {
			t.Fatalf("path trace step missing span tree: %s", body)
		}
	}

	if code, _, _ := get(t, client, ts.URL+"/debug/trace"); code != http.StatusBadRequest {
		t.Fatalf("debug/trace without params: %d, want 400", code)
	}
}

// TestConcurrentMetricsScrape races /metrics and /stats scrapes against
// live join and path traffic; run under -race (the CI race step does).
func TestConcurrentMetricsScrape(t *testing.T) {
	db, _ := buildServerDB(t)
	s, err := New(Config{DBPath: db, Workers: 4, QueueDepth: 32, CacheEntries: 64, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	queryURLs := []string{
		ts.URL + "/join?anc=section&desc=figure",
		ts.URL + "/join?anc=para&desc=figure&algo=rollup",
		ts.URL + "/query?path=//section//para//figure",
		ts.URL + "/debug/trace?anc=section&desc=para",
	}
	scrapeURLs := []string{ts.URL + "/metrics", ts.URL + "/stats"}

	const rounds = 10
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < rounds; i++ {
				url := queryURLs[(w+i)%len(queryURLs)]
				resp, err := client.Get(url)
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("GET %s: %d", url, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < rounds; i++ {
				url := scrapeURLs[(w+i)%len(scrapeURLs)]
				resp, err := client.Get(url)
				if err != nil {
					errc <- err
					return
				}
				var buf bytes.Buffer
				_, cerr := buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if cerr != nil || resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("scrape %s: %d %v", url, resp.StatusCode, cerr)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// After the dust settles the exposition must still parse cleanly.
	code, body, _ := get(t, ts.Client(), ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("final scrape: %d", code)
	}
	samples, _ := servetest.Lint(t, body, false)
	if samples["pbiserve_errors_total"] != 0 {
		t.Errorf("errors_total = %v after clean run", samples["pbiserve_errors_total"])
	}
}
