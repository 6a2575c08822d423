package qserv

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/xmltree"
)

// buildServerDB persists a database with three tag relations and returns
// its path plus the document it came from.
func buildServerDB(t testing.TB) (string, *xmltree.Document) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < 60; i++ {
		sb.WriteString("<section><title>t</title><figure/>")
		sb.WriteString("<para><figure/><para><figure/></para></para>")
		sb.WriteString("</section>")
	}
	sb.WriteString("</doc>")
	doc, err := xmltree.ParseString(sb.String(), xmltree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "serve.db")
	eng, err := containment.NewEngine(containment.Config{Path: path, TreeHeight: doc.Height})
	if err != nil {
		t.Fatal(err)
	}
	var rels []*containment.Relation
	for _, tag := range []string{"section", "figure", "para", "title"} {
		r, err := eng.Load("tag:"+tag, doc.Codes(tag))
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, r)
	}
	if err := eng.Save(rels...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return path, doc
}

// singleEngineAnswers computes the ground truth with one private engine.
func singleEngineAnswers(t *testing.T, db string) (joinCounts map[string]int64, pathCount int) {
	t.Helper()
	eng, rels, err := containment.Open(containment.Config{Path: db, ReadOnly: true, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	joinCounts = map[string]int64{}
	for _, q := range [][2]string{{"section", "figure"}, {"section", "para"}, {"para", "figure"}} {
		res, err := eng.Join(rels["tag:"+q[0]], rels["tag:"+q[1]], containment.JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		joinCounts[q[0]+"/"+q[1]] = res.Count
	}
	// //section//para//figure ground truth via the same chain logic.
	wk := &soloWorker{eng: eng, rels: rels}
	codes, _, _, err := wk.evalPath(context.Background(), []string{"section", "para", "figure"})
	if err != nil {
		t.Fatal(err)
	}
	return joinCounts, len(codes)
}

func get(t *testing.T, client *http.Client, url string) (int, []byte, string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, body, resp.Header.Get("X-Cache")
}

// TestConcurrentServing is the subsystem's race test: many goroutines fire
// overlapping containment and path queries at one server and every answer
// must match the single-engine ground truth; cache hits must return
// byte-identical payloads. Run under -race (the CI race step does).
func TestConcurrentServing(t *testing.T) {
	db, _ := buildServerDB(t)
	want, wantPath := singleEngineAnswers(t, db)

	s, err := New(Config{DBPath: db, Workers: 4, QueueDepth: 32, CacheEntries: 128, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type req struct {
		url  string
		kind string // "join" key or "path"
	}
	var reqs []req
	for _, algo := range []string{"auto", "rollup", "stacktree", "mhcj"} {
		for _, q := range [][2]string{{"section", "figure"}, {"section", "para"}, {"para", "figure"}} {
			reqs = append(reqs, req{
				url:  fmt.Sprintf("%s/join?anc=%s&desc=%s&algo=%s", ts.URL, q[0], q[1], algo),
				kind: q[0] + "/" + q[1],
			})
		}
	}
	reqs = append(reqs, req{url: ts.URL + "/query?path=//section//para//figure", kind: "path"})

	const goroutines = 8
	const rounds = 6
	var (
		mu       sync.Mutex
		computed = map[string]map[string]bool{} // url -> bodies of its misses
		replayed = map[string]map[string]bool{} // url -> bodies of its hits
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*len(reqs))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{}
			for round := 0; round < rounds; round++ {
				for i, rq := range reqs {
					// Stagger the order per goroutine so requests overlap
					// in varied interleavings.
					rq = reqs[(i+g+round)%len(reqs)]
					status, body, xcache := get(t, client, rq.url)
					if status != http.StatusOK {
						errs <- fmt.Errorf("%s: status %d: %s", rq.url, status, body)
						continue
					}
					var parsed struct {
						Count int64 `json:"count"`
					}
					if err := json.Unmarshal(body, &parsed); err != nil {
						errs <- fmt.Errorf("%s: bad body: %v", rq.url, err)
						continue
					}
					var wantCount int64
					if rq.kind == "path" {
						wantCount = int64(wantPath)
					} else {
						wantCount = want[rq.kind]
					}
					if parsed.Count != wantCount {
						errs <- fmt.Errorf("%s: count = %d, want %d", rq.url, parsed.Count, wantCount)
						continue
					}
					mu.Lock()
					bodies := computed
					if xcache == "hit" {
						bodies = replayed
					}
					if bodies[rq.url] == nil {
						bodies[rq.url] = map[string]bool{}
					}
					bodies[rq.url][string(body)] = true
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The cache replays bytes: every hit body is the body of one of the
	// URL's misses. (There may be several of those — workers that missed
	// the same key at the same moment each computed an answer, with its own
	// wall time in it.)
	for url, hits := range replayed {
		for body := range hits {
			if !computed[url][body] {
				t.Errorf("%s: a cache hit returned a payload no miss produced: %s", url, body)
			}
		}
	}

	// /stats must show nonzero cache hits and consistent totals.
	status, body, _ := get(t, &http.Client{}, ts.URL+"/stats")
	if status != http.StatusOK {
		t.Fatalf("/stats: status %d", status)
	}
	var stats statsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	if stats.Cache == nil || stats.Cache.Hits == 0 {
		t.Fatalf("/stats: no cache hits recorded: %+v", stats.Cache)
	}
	if stats.Requests == 0 || stats.Latency.Samples == 0 {
		t.Fatalf("/stats: missing request/latency accounting: %s", body)
	}
	if len(stats.Algorithms) == 0 {
		t.Fatalf("/stats: no per-algorithm totals: %s", body)
	}
	if stats.Errors != 0 {
		t.Fatalf("/stats: errors = %d, want 0", stats.Errors)
	}
}

func TestServerErrors(t *testing.T) {
	db, _ := buildServerDB(t)
	s, err := New(Config{DBPath: db, Workers: 1, QueueDepth: 4, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{}

	for url, wantStatus := range map[string]int{
		"/join":                         http.StatusBadRequest,
		"/join?anc=section&desc=nosuch": http.StatusNotFound,
		"/join?anc=section&desc=figure&algo=bogus": http.StatusBadRequest,
		"/query?path=/section":                     http.StatusBadRequest,
		"/query?path=//section[title=x]//figure":   http.StatusBadRequest,
		"/query?path=//nosuch//figure":             http.StatusNotFound,
		"/query":                                   http.StatusBadRequest,
	} {
		status, body, _ := get(t, client, ts.URL+url)
		if status != wantStatus {
			t.Errorf("%s: status = %d, want %d (%s)", url, status, wantStatus, body)
		}
	}

	// Single-step paths and the tag: prefix resolve.
	status, body, _ := get(t, client, ts.URL+"/query?path=//figure")
	if status != http.StatusOK {
		t.Fatalf("//figure: status %d: %s", status, body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count == 0 || !resp.Truncated && len(resp.Codes) != resp.Count {
		t.Fatalf("//figure: inconsistent response: %s", body)
	}
}

func TestRelationsEndpoint(t *testing.T) {
	db, _ := buildServerDB(t)
	s, err := New(Config{DBPath: db, Workers: 1, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status, body, _ := get(t, &http.Client{}, ts.URL+"/relations")
	if status != http.StatusOK {
		t.Fatalf("/relations: status %d", status)
	}
	var rels []RelationInfo
	if err := json.Unmarshal(body, &rels); err != nil {
		t.Fatal(err)
	}
	if len(rels) != 4 {
		t.Fatalf("relations = %d, want 4", len(rels))
	}
	for _, r := range rels {
		if r.Elements == 0 || r.Tag == r.Name {
			t.Errorf("relation %+v: missing metadata or unstripped tag", r)
		}
		if !r.Ordered {
			t.Errorf("relation %+v: bulk-loaded in document order, reported unordered", r)
		}
	}
}
