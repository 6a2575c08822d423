package qserv

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/pbitree/pbitree/internal/ingest"
	"github.com/pbitree/pbitree/internal/serve/servetest"
)

// The tests in this file pin the hit path: the header surface of every
// kind of answer, the allocations a cached answer costs, and the cache
// keys path queries are stored under.

// nodeIDRE is the shape of a node-minted trace ID: the process prefix, then
// the request's sequence number, both hex.
var nodeIDRE = regexp.MustCompile(`^[0-9a-f]{8}-[0-9a-f]{8,}$`)

// headerKeys returns the header keys a handler set, sorted.
func headerKeys(h http.Header) []string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// serveOnce runs one GET through h and returns the recorded response.
func serveOnce(h http.Handler, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

// hitWriter is a ResponseWriter reused across requests, as a server
// connection reuses its own: the header map is cleared, not reallocated,
// so an allocation count sees only the handler's.
type hitWriter struct {
	h      http.Header
	status int
}

func (w *hitWriter) Header() http.Header         { return w.h }
func (w *hitWriter) WriteHeader(code int)        { w.status = code }
func (w *hitWriter) Write(p []byte) (int, error) { return len(p), nil }

// serveHit runs r through h into w and reports whether it was a cache hit.
func serveHit(h http.Handler, w *hitWriter, r *http.Request) bool {
	clear(w.h)
	w.status = http.StatusOK
	h.ServeHTTP(w, r)
	return w.status == http.StatusOK && w.h.Get("X-Cache") == "hit"
}

// hitTargets are the cached requests the hit-path tests replay: a join, a
// join naming its algorithm, and a path query URL-escaped the way
// net/url clients send it.
var hitTargets = []string{
	"/join?anc=section&desc=figure",
	"/join?anc=section&desc=figure&algo=stacktree",
	"/query?path=%2F%2Fsection%2F%2Fpara%2F%2Ffigure",
}

// hitServer returns the handler of a node with every hit target cached.
func hitServer(tb testing.TB) http.Handler {
	tb.Helper()
	db, _ := buildServerDB(tb)
	s, err := New(Config{DBPath: db, Workers: 1, CacheEntries: 16, BufferPages: 32})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() }) //nolint:errcheck // test teardown
	w := &hitWriter{h: http.Header{}}
	for _, target := range hitTargets {
		r := httptest.NewRequest(http.MethodGet, target, nil)
		serveHit(s.Handler(), w, r)
		if !serveHit(s.Handler(), w, r) {
			tb.Fatalf("GET %s: status %d, X-Cache %q: not a hit", target, w.status, w.h.Get("X-Cache"))
		}
	}
	return s.Handler()
}

// TestHitPathAllocs bounds the allocations of a cached answer through the
// whole handler (middleware, mux, endpoint): 8 or 9 measured, budget 12.
// When every parameter parsed the URL again they were 29, 34 and 32.
func TestHitPathAllocs(t *testing.T) {
	h := hitServer(t)
	w := &hitWriter{h: http.Header{}}
	for _, target := range hitTargets {
		r := httptest.NewRequest(http.MethodGet, target, nil)
		allocs := testing.AllocsPerRun(200, func() {
			if !serveHit(h, w, r) {
				t.Fatalf("GET %s: not a hit", target)
			}
		})
		t.Logf("GET %s: %.0f allocs", target, allocs)
		if allocs > 12 {
			t.Errorf("GET %s: %.0f allocations per cached answer, budget 12", target, allocs)
		}
	}
}

// BenchmarkHandlerHit times a cached answer through the whole handler.
func BenchmarkHandlerHit(b *testing.B) {
	for _, bc := range []struct{ name, target string }{
		{"join", hitTargets[0]},
		{"query", hitTargets[2]},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := hitServer(b)
			w := &hitWriter{h: http.Header{}}
			r := httptest.NewRequest(http.MethodGet, bc.target, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveHit(h, w, r)
			}
		})
	}
}

// TestResponseHeaders pins the header keys a miss, a hit, a 400, a 404 and
// a 504 carry — X-Epoch only on answers of an ingest-serving node — and the
// shape of the trace IDs the node mints.
func TestResponseHeaders(t *testing.T) {
	const escaped = "/query?path=%2F%2Fsection%2F%2Fpara%2F%2Ffigure"
	type step struct {
		target string
		status int
		cache  string // X-Cache; "" when the answer carries none
		epoch  bool   // answered against an epoch: a hit, or past acquire
	}
	steps := []step{
		{"/join?anc=section&desc=figure", http.StatusOK, "miss", true},
		{"/join?anc=section&desc=figure", http.StatusOK, "hit", true},
		{"/join?anc=section&desc=figure&algo=stacktree", http.StatusOK, "miss", true},
		{"/join?anc=section&desc=figure&algo=stacktree", http.StatusOK, "hit", true},
		{escaped, http.StatusOK, "miss", true},
		{escaped, http.StatusOK, "hit", true},
		{"/join?anc=section", http.StatusBadRequest, "", false},
		{"/join?anc=section&desc=figure&algo=bogus", http.StatusBadRequest, "", false},
		{"/query?path=/section//para", http.StatusBadRequest, "", false},
		{"/query?path=//section&limit=0", http.StatusBadRequest, "", false},
		{"/join?anc=section&desc=nosuch", http.StatusNotFound, "", true},
		{"/join?anc=section&desc=figure&timeout=1ns", http.StatusGatewayTimeout, "", false},
		{"/query?path=//section//figure&timeout=1ns", http.StatusGatewayTimeout, "", false},
	}
	check := func(t *testing.T, h http.Handler, ingesting bool) {
		for _, st := range steps {
			rec := serveOnce(h, st.target)
			if rec.Code != st.status {
				t.Fatalf("GET %s: status %d, want %d: %s", st.target, rec.Code, st.status, rec.Body)
			}
			want := []string{"Content-Type", "X-Trace-Id"}
			if st.cache != "" {
				want = append(want, "X-Cache")
			}
			if ingesting && st.epoch {
				want = append(want, "X-Epoch")
			}
			slices.Sort(want)
			if got := headerKeys(rec.Header()); !slices.Equal(got, want) {
				t.Errorf("GET %s: header keys %q, want %q", st.target, got, want)
			}
			if got := rec.Header().Get("X-Cache"); got != st.cache {
				t.Errorf("GET %s: X-Cache %q, want %q", st.target, got, st.cache)
			}
			if got := rec.Header().Get("Content-Type"); got != "application/json" {
				t.Errorf("GET %s: Content-Type %q", st.target, got)
			}
			if id := rec.Header().Get("X-Trace-Id"); !nodeIDRE.MatchString(id) {
				t.Errorf("GET %s: minted trace ID %q does not match %s", st.target, id, nodeIDRE)
			}
		}
	}

	t.Run("solo", func(t *testing.T) {
		db, _ := buildServerDB(t)
		s, err := New(Config{DBPath: db, Workers: 1, CacheEntries: 16, BufferPages: 32})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		check(t, s.Handler(), false)
	})

	t.Run("ingest", func(t *testing.T) {
		db := buildIngestDB(t, t.TempDir(), map[string]string{
			"d0": `<doc><section><title>t</title><para><figure/></para></section></doc>`,
		})
		st, err := ingest.Open(ingest.Config{DBPath: db, GapAware: true, BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close() //nolint:errcheck // test teardown
		s, err := New(Config{DBPath: db, Ingest: st, Workers: 1, CacheEntries: 16, BufferPages: 32})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		check(t, s.Handler(), true)
	})
}

// cacheEntries reads /stats cache.entries.
func cacheEntries(t *testing.T, h http.Handler) float64 {
	t.Helper()
	return servetest.Number(t, serveOnce(h, "/stats").Body.Bytes(), "cache.entries")
}

// TestPathCacheKeySpellings pins the /query cache key: the path value as
// sent (after URL decoding), never parsed on a hit. Each spelling misses
// once and then replays its own bytes, and every spelling answers the same
// query under the canonical path; rejected expressions are never stored;
// and an epoch-scoped hit is not served once a newer epoch is published.
func TestPathCacheKeySpellings(t *testing.T) {
	db, _ := buildServerDB(t)
	s, err := New(Config{DBPath: db, Workers: 1, CacheEntries: 16, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	const canon = "//section//para//figure"
	// answer is a payload without the cost fields two executions of one
	// query may differ in.
	answer := func(body []byte) QueryResponse {
		var resp QueryResponse
		mustDecode(t, body, &resp)
		resp.PageIO, resp.VirtualUS, resp.WallUS = 0, 0, 0
		return resp
	}
	var want QueryResponse
	for i, spelling := range []string{canon, " " + canon + " "} {
		target := "/query?path=" + url.QueryEscape(spelling)
		miss, hit := serveOnce(h, target), serveOnce(h, target)
		if miss.Code != http.StatusOK || miss.Header().Get("X-Cache") != "miss" ||
			hit.Code != http.StatusOK || hit.Header().Get("X-Cache") != "hit" {
			t.Fatalf("GET %s: %d %s then %d %s, want a miss then a hit", target,
				miss.Code, miss.Header().Get("X-Cache"), hit.Code, hit.Header().Get("X-Cache"))
		}
		if !bytes.Equal(hit.Body.Bytes(), miss.Body.Bytes()) {
			t.Errorf("GET %s: the hit replayed other bytes:\n%s\n%s", target, miss.Body, hit.Body)
		}
		if got := cacheEntries(t, h); got != float64(i+1) {
			t.Errorf("GET %s: cache.entries %v, want %d", target, got, i+1)
		}
		if i == 0 {
			want = answer(hit.Body.Bytes())
		} else if got := answer(hit.Body.Bytes()); !reflect.DeepEqual(got, want) || got.Path != canon {
			t.Errorf("GET %s: answer %+v, want %+v", target, got, want)
		}
	}
	// Escaping is undone before the key is built: the %2F spelling is the
	// plain one's entry.
	escaped := "/query?path=" + strings.ReplaceAll(canon, "/", "%2F")
	if rec := serveOnce(h, escaped); rec.Header().Get("X-Cache") != "hit" {
		t.Errorf("GET %s: X-Cache %q, want a hit on the plain spelling's entry", escaped, rec.Header().Get("X-Cache"))
	}

	before := cacheEntries(t, h)
	for _, expr := range []string{"/section//para", "//section[title=t]//para"} {
		for i := 0; i < 3; i++ {
			if rec := serveOnce(h, "/query?path="+url.QueryEscape(expr)); rec.Code != http.StatusBadRequest {
				t.Fatalf("GET %s (repeat %d): status %d, want 400: %s", expr, i, rec.Code, rec.Body)
			}
		}
	}
	if got := cacheEntries(t, h); got != before {
		t.Errorf("rejected expressions: cache.entries %v, want %v", got, before)
	}

	t.Run("epoch", func(t *testing.T) {
		db := buildIngestDB(t, t.TempDir(), ingestBaseDocs())
		st, err := ingest.Open(ingest.Config{DBPath: db, GapAware: true, BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close() //nolint:errcheck // test teardown
		s, err := New(Config{DBPath: db, Ingest: st, Workers: 1, CacheEntries: 16, BufferPages: 32})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		h := s.Handler()
		// Epoch E holds 3+E book/title pairs (ingestBaseDocs).
		expect := func(target, epoch, cache string, count int) {
			t.Helper()
			rec := serveOnce(h, target)
			var resp struct {
				Count int `json:"count"`
			}
			mustDecode(t, rec.Body.Bytes(), &resp)
			if rec.Code != http.StatusOK || rec.Header().Get("X-Epoch") != epoch ||
				rec.Header().Get("X-Cache") != cache || resp.Count != count {
				t.Fatalf("GET %s: %d epoch %q %s count %d, want epoch %s %s count %d",
					target, rec.Code, rec.Header().Get("X-Epoch"), rec.Header().Get("X-Cache"),
					resp.Count, epoch, cache, count)
			}
		}
		targets := []string{"/query?path=//book//title", "/join?anc=book&desc=title"}
		for _, target := range targets {
			expect(target, "0", "miss", 3)
			expect(target, "0", "hit", 3)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(
			`{"ops":[{"op":"insert_doc","doc":"n0","xml":"<lib><book><title>t</title></book></lib>"}]}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest: %d: %s", rec.Code, rec.Body)
		}
		for _, target := range targets {
			expect(target, "1", "miss", 4)
			expect(target, "1", "hit", 4)
		}
	})
}
