package router

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"testing"

	"github.com/pbitree/pbitree/internal/qserv"
)

// The tests in this file pin the router's hit path: the header surface of
// every kind of answer and the allocations a cached answer costs.

// routerIDRE is the shape of a router-minted trace ID: "r", the process
// prefix, then the request's sequence number, both hex.
var routerIDRE = regexp.MustCompile(`^r[0-9a-f]{7}-[0-9a-f]{8,}$`)

// headerKeys returns the header keys a handler set, sorted.
func headerKeys(h http.Header) []string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// hitRouter routes over two scripted shard nodes with its cache on.
func hitRouter(t *testing.T) *Router {
	t.Helper()
	var topo [][]string
	for i := 0; i < 2; i++ {
		n := newFakeNode(t,
			qserv.JoinResponse{Algorithm: "mpmgjn", Count: 3, PageIO: 10},
			qserv.QueryResponse{Count: 1, Codes: []uint64{uint64(2*i + 1)}, PageIO: 5,
				Steps: []qserv.PathStep{{Anc: "a", Desc: "b", Algorithm: "stacktree", Matches: 1}}})
		topo = append(topo, []string{n.ts.URL})
	}
	rt, _ := newTestRouter(t, Config{Topology: topo, CacheEntries: 8})
	return rt
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

// TestRouterHitPathAllocs bounds the allocations of a cached answer
// through the router's whole handler: 10 and 9 measured, plus 3. While
// the ring stitched each hit's trace eagerly they were 15 and 14; when
// every parameter parsed the URL again, 36 and 30.
func TestRouterHitPathAllocs(t *testing.T) {
	h := hitRouter(t).Handler()
	w := &hitWriter{h: http.Header{}}
	serve := func(r *http.Request) bool {
		clear(w.h)
		w.status = http.StatusOK
		h.ServeHTTP(w, r)
		return w.status == http.StatusOK && w.h.Get("X-Cache") == "hit"
	}
	for _, c := range []struct {
		target string
		budget float64
	}{
		{"/join?anc=a&desc=b", 13},
		{"/query?path=%2F%2Fa%2F%2Fb", 12},
	} {
		r := httptest.NewRequest(http.MethodGet, c.target, nil)
		serve(r)
		allocs := testing.AllocsPerRun(200, func() {
			if !serve(r) {
				t.Fatalf("GET %s: not a hit", c.target)
			}
		})
		t.Logf("GET %s: %.0f allocs", c.target, allocs)
		if allocs > c.budget {
			t.Errorf("GET %s: %.0f allocations per cached answer, budget %.0f", c.target, allocs, c.budget)
		}
	}
}

// TestResponseHeaders pins the header keys a miss, a hit, a 400, a 504 and
// a 503 carry — Retry-After only on the 503 — and the shape of the trace
// IDs the router mints.
func TestResponseHeaders(t *testing.T) {
	live := hitRouter(t).Handler()
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	dead, _ := newTestRouter(t, Config{Topology: [][]string{{gone.URL}}, CacheEntries: 8})

	const escaped = "/query?path=%2F%2Fa%2F%2Fb"
	answer := []string{"Content-Type", "X-Cache", "X-Trace-Id"}
	plain := []string{"Content-Type", "X-Trace-Id"}
	for _, st := range []struct {
		h      http.Handler
		target string
		status int
		keys   []string
		cache  string
	}{
		{live, "/join?anc=a&desc=b", http.StatusOK, answer, "miss"},
		{live, "/join?anc=a&desc=b", http.StatusOK, answer, "hit"},
		{live, "/join?anc=a&desc=b&algo=stacktree", http.StatusOK, answer, "miss"},
		{live, "/join?anc=a&desc=b&algo=stacktree", http.StatusOK, answer, "hit"},
		{live, escaped, http.StatusOK, answer, "miss"},
		{live, escaped, http.StatusOK, answer, "hit"},
		{live, "/join?anc=a", http.StatusBadRequest, plain, ""},
		{live, "/join?anc=a&desc=b&algo=bogus", http.StatusBadRequest, plain, ""},
		{live, "/query?path=/a//b", http.StatusBadRequest, plain, ""},
		{live, "/join?anc=a&desc=b&timeout=1ns", http.StatusGatewayTimeout, plain, ""},
		{live, "/query?path=//a//b&timeout=1ns", http.StatusGatewayTimeout, plain, ""},
		{dead.Handler(), "/join?anc=a&desc=b", http.StatusServiceUnavailable,
			[]string{"Content-Type", "Retry-After", "X-Trace-Id"}, ""},
	} {
		rec := httptest.NewRecorder()
		st.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, st.target, nil))
		if rec.Code != st.status {
			t.Fatalf("GET %s: status %d, want %d: %s", st.target, rec.Code, st.status, rec.Body)
		}
		if got := headerKeys(rec.Header()); !slices.Equal(got, st.keys) {
			t.Errorf("GET %s: header keys %q, want %q", st.target, got, st.keys)
		}
		if got := rec.Header().Get("X-Cache"); got != st.cache {
			t.Errorf("GET %s: X-Cache %q, want %q", st.target, got, st.cache)
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Errorf("GET %s: Content-Type %q", st.target, got)
		}
		if id := rec.Header().Get("X-Trace-Id"); !routerIDRE.MatchString(id) {
			t.Errorf("GET %s: minted trace ID %q does not match %s", st.target, id, routerIDRE)
		}
	}
}
