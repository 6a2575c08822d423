package qserv

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pbitree/pbitree/internal/serve"
)

// TestCancellationDrainsPool fires a burst of concurrent requests,
// cancels half of them mid-flight, and asserts the failure containment
// invariants: every worker returns to the pool, the busy/queued gauges
// drain to zero, no engine holds temporary pages, and the server keeps
// answering 200 afterwards. Run under -race (the CI race step does).
func TestCancellationDrainsPool(t *testing.T) {
	db, _ := buildServerDB(t)
	// Cache disabled so every request actually borrows an engine.
	s, err := New(Config{DBPath: db, Workers: 2, QueueDepth: 16, CacheEntries: -1, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	urls := []string{
		ts.URL + "/join?anc=section&desc=figure",
		ts.URL + "/join?anc=section&desc=para",
		ts.URL + "/join?anc=para&desc=figure",
		ts.URL + "/query?path=//section//para//figure",
	}

	const requests = 24
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%2 == 0 {
				// Cancel half the requests mid-flight: some while queued,
				// some while executing, some after completion — all must be
				// absorbed without leaking pool state.
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				time.AfterFunc(time.Duration(i%5)*200*time.Microsecond, cancel)
				defer cancel()
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, urls[i%len(urls)], nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return // canceled client side; the server's cleanup is what we assert below
			}
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK, serve.StatusClientClosedRequest,
				http.StatusGatewayTimeout, http.StatusServiceUnavailable:
			default:
				t.Errorf("request %d: unexpected status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	// Canceled handlers may still be releasing their worker when the client
	// sees the failure; give the pool a bounded moment to settle.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.workers) != s.cfg.Workers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := len(s.workers); got != s.cfg.Workers {
		t.Fatalf("pool has %d workers, want %d", got, s.cfg.Workers)
	}
	if busy := s.met.busy.Load(); busy != 0 {
		t.Fatalf("busy gauge = %d after drain, want 0", busy)
	}
	if queued := s.met.queued.Load(); queued != 0 {
		t.Fatalf("queued gauge = %d after drain, want 0", queued)
	}
	for _, wk := range s.all {
		if n := wk.tempPages(); n != 0 {
			t.Fatalf("worker holds %d temp pages after drain", n)
		}
	}

	status, body, _ := get(t, &http.Client{}, urls[0])
	if status != http.StatusOK {
		t.Fatalf("follow-up request: status %d: %s", status, body)
	}
}

// TestQueryTimeout asserts the per-request deadline path: an absurdly
// small ?timeout= answers 504 deterministically (expired contexts are
// rejected before the cache can serve a hit), a generous one answers 200,
// and a malformed one 400.
func TestQueryTimeout(t *testing.T) {
	db, _ := buildServerDB(t)
	s, err := New(Config{DBPath: db, Workers: 1, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{}

	status, body, _ := get(t, client, ts.URL+"/join?anc=section&desc=figure&timeout=1ns")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("timeout=1ns: status %d, want 504: %s", status, body)
	}
	if !strings.Contains(string(body), "timed out") {
		t.Fatalf("timeout=1ns: body %q lacks timeout wording", body)
	}
	if got := s.met.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts counter = %d, want 1", got)
	}

	status, _, _ = get(t, client, ts.URL+"/join?anc=section&desc=figure&timeout=30s")
	if status != http.StatusOK {
		t.Fatalf("timeout=30s: status %d, want 200", status)
	}
	status, _, _ = get(t, client, ts.URL+"/join?anc=section&desc=figure&timeout=banana")
	if status != http.StatusBadRequest {
		t.Fatalf("timeout=banana: status %d, want 400", status)
	}
}

// TestPanicQuarantine injects a panic into one request's execution and
// asserts the blast radius: that request alone answers 500, the poisoned
// engine is discarded and replaced (engine_recycles = 1), concurrent
// requests on other workers keep completing, and the pool heals back to
// full capacity.
func TestPanicQuarantine(t *testing.T) {
	db, _ := buildServerDB(t)
	s, err := New(Config{DBPath: db, Workers: 2, QueueDepth: 8, CacheEntries: -1, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var fired atomic.Bool
	s.testHook = func() {
		if fired.CompareAndSwap(false, true) {
			panic("injected: engine poisoned")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Concurrent load across both workers while one of them panics.
	const requests = 12
	var wg sync.WaitGroup
	var got500, got200 atomic.Int64
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, _ := get(t, &http.Client{}, fmt.Sprintf("%s/join?anc=section&desc=figure&algo=%s",
				ts.URL, []string{"auto", "stacktree", "mhcj"}[i%3]))
			switch status {
			case http.StatusOK:
				got200.Add(1)
			case http.StatusInternalServerError:
				got500.Add(1)
			case http.StatusServiceUnavailable:
			default:
				t.Errorf("request %d: unexpected status %d", i, status)
			}
		}(i)
	}
	wg.Wait()

	if n := got500.Load(); n != 1 {
		t.Fatalf("%d requests answered 500, want exactly 1 (the poisoned one)", n)
	}
	if n := got200.Load(); n == 0 {
		t.Fatal("no request completed while the poisoned engine was quarantined")
	}
	if n := s.met.panics.Load(); n != 1 {
		t.Fatalf("panics counter = %d, want 1", n)
	}
	if n := s.met.engineRecycles.Load(); n != 1 {
		t.Fatalf("engine_recycles counter = %d, want 1", n)
	}

	// The replacement engine lands asynchronously; the pool must heal back
	// to full capacity.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.workers) != s.cfg.Workers && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := len(s.workers); got != s.cfg.Workers {
		t.Fatalf("pool healed to %d workers, want %d", got, s.cfg.Workers)
	}
	s.poolMu.Lock()
	alive := len(s.all)
	s.poolMu.Unlock()
	if alive != s.cfg.Workers {
		t.Fatalf("s.all holds %d workers, want %d", alive, s.cfg.Workers)
	}

	status, body, _ := get(t, &http.Client{}, ts.URL+"/join?anc=para&desc=figure")
	if status != http.StatusOK {
		t.Fatalf("post-quarantine request: status %d: %s", status, body)
	}
}
