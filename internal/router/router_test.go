package router

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/qserv"
	"github.com/pbitree/pbitree/internal/shard"
	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// routerTags are the relations every test database stores.
var routerTags = []string{"section", "figure", "para", "title"}

// buildRouterDB persists a randomized multi-document database (SaveDocs,
// so it carries the catalog shard.Split needs), splits it into nShards,
// and returns the database path; the split lives at path+".shards".
func buildRouterDB(t *testing.T, rng *rand.Rand, nShards int) string {
	t.Helper()
	coll := xmltree.NewCollection()
	nDocs := 3 + rng.Intn(3)
	for d := 0; d < nDocs; d++ {
		var sb strings.Builder
		sb.WriteString("<doc>")
		for i, n := 0, 5+rng.Intn(25); i < n; i++ {
			sb.WriteString("<section>")
			if rng.Intn(2) == 0 {
				sb.WriteString("<title>t</title>")
			}
			for j, m := 0, rng.Intn(4); j < m; j++ {
				sb.WriteString("<para><figure/>")
				if rng.Intn(2) == 0 {
					sb.WriteString("<para><figure/></para>")
				}
				sb.WriteString("</para>")
			}
			sb.WriteString("</section>")
		}
		sb.WriteString("</doc>")
		doc, err := xmltree.ParseString(sb.String(), xmltree.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := coll.AddTree(fmt.Sprintf("doc-%d", d), doc.Root); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "router.db")
	eng, err := containment.NewEngine(containment.Config{Path: path, TreeHeight: coll.Height()})
	if err != nil {
		t.Fatal(err)
	}
	var rels []*containment.Relation
	for _, tag := range routerTags {
		r, err := eng.Load("tag:"+tag, coll.Codes(tag))
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, r)
	}
	var docs []containment.DocInfo
	for _, name := range coll.Names() {
		roots, err := coll.CodesIn(name, "doc")
		if err != nil || len(roots) != 1 {
			t.Fatalf("doc root of %s: codes=%d err=%v", name, len(roots), err)
		}
		var elems int64
		for _, tag := range routerTags {
			codes, err := coll.CodesIn(name, tag)
			if err != nil {
				t.Fatal(err)
			}
			elems += int64(len(codes))
		}
		docs = append(docs, containment.DocInfo{Name: name, Root: roots[0], Elements: elems})
	}
	if err := eng.SaveDocs(docs, rels...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Split(path, nShards, path+".shards"); err != nil {
		t.Fatal(err)
	}
	return path
}

// startShardNodes runs one pbiserve-equivalent qserv server per shard
// file of the split and returns their base URLs as single-replica groups.
func startShardNodes(t *testing.T, db string, nShards int) [][]string {
	t.Helper()
	topo := make([][]string, nShards)
	for i := 0; i < nShards; i++ {
		qs, err := qserv.New(qserv.Config{
			DBPath:       filepath.Join(db+".shards", fmt.Sprintf("shard-%d.db", i)),
			Workers:      1,
			CacheEntries: -1,
			BufferPages:  64,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(qs.Handler())
		t.Cleanup(func() { ts.Close(); qs.Close() }) //nolint:errcheck // test teardown
		topo[i] = []string{ts.URL}
	}
	return topo
}

// newTestRouter builds a router with probing and hedging off (tests drive
// health transitions explicitly for determinism) unless cfg overrides.
func newTestRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = -1
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { ts.Close(); rt.Close() }) //nolint:errcheck // test teardown
	return rt, ts
}

// get issues one GET and returns status, body and the X-Cache header.
func get(t *testing.T, url string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get("X-Cache")
}

// TestRouterEquivalence fans randomized joins and path queries through a
// router over per-shard HTTP nodes and requires the same counts and codes
// an in-process shard.Engine over the same split produces.
func TestRouterEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nShards = 3
	db := buildRouterDB(t, rng, nShards)
	topo := startShardNodes(t, db, nShards)
	_, ts := newTestRouter(t, Config{Topology: topo, CacheEntries: -1, MaxCodes: 100000})

	oracle, err := shard.Open(filepath.Join(db+".shards", shard.ManifestName), shard.Config{
		ReadOnly: true, BufferPages: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	// Joins: every ordered tag pair, plus random repeats (cache off, so
	// every request exercises the merge).
	var pairs [][2]string
	for _, a := range routerTags {
		for _, d := range routerTags {
			if a != d {
				pairs = append(pairs, [2]string{a, d})
			}
		}
	}
	for i := 0; i < 6; i++ {
		pairs = append(pairs, pairs[rng.Intn(len(pairs))])
	}
	for _, p := range pairs {
		anc, desc := p[0], p[1]
		st, body, _ := get(t, ts.URL+fmt.Sprintf("/join?anc=%s&desc=%s", anc, desc))
		if st != http.StatusOK {
			t.Fatalf("/join %s//%s: status %d: %s", anc, desc, st, body)
		}
		var jr qserv.JoinResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatal(err)
		}
		a, ok := oracle.Relation("tag:" + anc)
		if !ok {
			t.Fatalf("oracle missing tag:%s", anc)
		}
		d, _ := oracle.Relation("tag:" + desc)
		want, err := oracle.Join(a, d, containment.JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if jr.Count != want.Count {
			t.Errorf("join %s//%s: router count %d, oracle %d", anc, desc, jr.Count, want.Count)
		}
		if jr.Algorithm != want.Algorithm {
			t.Errorf("join %s//%s: router algorithm %q, oracle %q", anc, desc, jr.Algorithm, want.Algorithm)
		}
	}

	// Path queries: fixed chains plus random ones; codes must match the
	// oracle's document-order list exactly.
	paths := [][]string{
		{"section", "para", "figure"},
		{"section", "title"},
		{"section", "figure"},
		{"para", "figure"},
	}
	for i := 0; i < 4; i++ {
		n := 2 + rng.Intn(2)
		var chain []string
		for j := 0; j < n; j++ {
			chain = append(chain, routerTags[rng.Intn(len(routerTags))])
		}
		paths = append(paths, chain)
	}
	for _, chain := range paths {
		expr := "//" + strings.Join(chain, "//")
		st, body, _ := get(t, ts.URL+"/query?path="+expr)
		stored := make([]string, len(chain))
		for i, tag := range chain {
			stored[i] = "tag:" + tag
		}
		wantCodes, _, _, err := oracle.PathContext(t.Context(), stored)
		if err != nil {
			t.Fatalf("oracle path %s: %v", expr, err)
		}
		if st != http.StatusOK {
			t.Fatalf("/query %s: status %d: %s", expr, st, body)
		}
		var qr qserv.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Count != len(wantCodes) {
			t.Errorf("path %s: router count %d, oracle %d", expr, qr.Count, len(wantCodes))
		}
		if qr.Truncated {
			t.Errorf("path %s: truncated despite huge MaxCodes", expr)
		}
		if len(qr.Codes) != len(wantCodes) {
			t.Fatalf("path %s: router returned %d codes, oracle %d", expr, len(qr.Codes), len(wantCodes))
		}
		for i := range wantCodes {
			if pbicode.Code(qr.Codes[i]) != wantCodes[i] {
				t.Fatalf("path %s: code[%d] = %d, oracle %d", expr, i, qr.Codes[i], uint64(wantCodes[i]))
			}
		}
	}

	// Merged /relations agrees with the oracle catalog.
	st, body, _ := get(t, ts.URL+"/relations")
	if st != http.StatusOK {
		t.Fatalf("/relations: status %d", st)
	}
	var rels []qserv.RelationInfo
	if err := json.Unmarshal(body, &rels); err != nil {
		t.Fatal(err)
	}
	if len(rels) != len(routerTags) {
		t.Fatalf("/relations: %d entries, want %d", len(rels), len(routerTags))
	}
	for _, ri := range rels {
		or, ok := oracle.Relation(ri.Name)
		if !ok {
			t.Errorf("/relations has %q, oracle does not", ri.Name)
			continue
		}
		if ri.Elements != or.Len() {
			t.Errorf("/relations %s: elements %d, oracle %d", ri.Name, ri.Elements, or.Len())
		}
		if ri.Ordered != or.Ordered() || !ri.Ordered {
			t.Errorf("/relations %s: ordered %v, oracle %v; every bulk-loaded relation is", ri.Name, ri.Ordered, or.Ordered())
		}
	}

	// The 404 vocabulary is the nodes' own, forwarded verbatim.
	st, body, _ = get(t, ts.URL+"/join?anc=nosuch&desc=figure")
	if st != http.StatusNotFound || !strings.Contains(string(body), `no stored relation for tag \"nosuch\"`) {
		t.Fatalf("unknown tag: status %d body %s", st, body)
	}
	st, _, _ = get(t, ts.URL+"/query?path=//section//nosuch")
	if st != http.StatusNotFound {
		t.Fatalf("unknown path tag: status %d", st)
	}
}

// TestRouterTruncation asserts the exactness of merged truncation: nodes
// are asked for the router's budget, and the merged first-K list equals
// the oracle's global first K in document order.
func TestRouterTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const nShards, limit = 3, 7
	db := buildRouterDB(t, rng, nShards)
	topo := startShardNodes(t, db, nShards)
	_, ts := newTestRouter(t, Config{Topology: topo, CacheEntries: -1, MaxCodes: limit})

	oracle, err := shard.Open(filepath.Join(db+".shards", shard.ManifestName), shard.Config{
		ReadOnly: true, BufferPages: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	st, body, _ := get(t, ts.URL+"/query?path=//section//figure")
	if st != http.StatusOK {
		t.Fatalf("/query: status %d: %s", st, body)
	}
	var qr qserv.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	want, _, _, err := oracle.PathContext(t.Context(), []string{"tag:section", "tag:figure"})
	if err != nil {
		t.Fatal(err)
	}
	if qr.Count != len(want) {
		t.Errorf("count %d, oracle %d (count must be pre-truncation)", qr.Count, len(want))
	}
	if len(want) <= limit {
		t.Fatalf("test needs >%d matches to exercise truncation, got %d", limit, len(want))
	}
	if !qr.Truncated || len(qr.Codes) != limit {
		t.Fatalf("truncated=%v codes=%d, want true/%d", qr.Truncated, len(qr.Codes), limit)
	}
	for i := 0; i < limit; i++ {
		if pbicode.Code(qr.Codes[i]) != want[i] {
			t.Fatalf("code[%d] = %d, oracle %d: truncation is not the global first-%d",
				i, qr.Codes[i], uint64(want[i]), limit)
		}
	}
}

// TestRouterTraceAndTimeout covers the request plumbing: trace IDs
// propagate (and unsafe ones are re-minted), bad timeouts 400.
func TestRouterTraceAndTimeout(t *testing.T) {
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`[]`)) //nolint:errcheck // test stub
	}))
	defer node.Close()
	_, ts := newTestRouter(t, Config{Topology: [][]string{{node.URL}}, CacheEntries: -1})

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/relations", nil)
	req.Header.Set("X-Trace-Id", "trace-abc.123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "trace-abc.123" {
		t.Errorf("propagated trace ID = %q, want trace-abc.123", got)
	}

	req.Header.Set("X-Trace-Id", "bad id with spaces!")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); !strings.HasPrefix(got, "r") || strings.Contains(got, "bad") {
		t.Errorf("unsafe trace ID not re-minted: %q", got)
	}

	st, _, _ := get(t, ts.URL+"/join?anc=a&desc=b&timeout=bogus")
	if st != http.StatusBadRequest {
		t.Errorf("bogus timeout: status %d, want 400", st)
	}
}

// TestRouterReadyz exercises readiness: ready with all shards covered,
// 503 when a shard group loses every replica, 503 while draining.
func TestRouterReadyz(t *testing.T) {
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`)) //nolint:errcheck // test stub
	}))
	defer node.Close()
	rt, ts := newTestRouter(t, Config{Topology: [][]string{{node.URL}, {node.URL}}})

	if st, _, _ := get(t, ts.URL+"/readyz"); st != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", st)
	}
	epoch := rt.Epoch()
	rt.demoteNow(rt.shards[1][0], "test")
	if st, body, _ := get(t, ts.URL+"/readyz"); st != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "shard 1") {
		t.Fatalf("/readyz with shard 1 down: status %d body %s", st, body)
	}
	if rt.Epoch() == epoch {
		t.Error("demotion did not bump the epoch")
	}
	rt.setHealthy(rt.shards[1][0], true, "")
	if st, _, _ := get(t, ts.URL+"/readyz"); st != http.StatusOK {
		t.Fatal("/readyz after promotion should be 200")
	}
	rt.Drain()
	if st, body, _ := get(t, ts.URL+"/readyz"); st != http.StatusServiceUnavailable ||
		!strings.Contains(string(body), "draining") {
		t.Fatalf("/readyz while draining: status %d body %s", st, body)
	}
	if st, _, _ := get(t, ts.URL+"/healthz"); st != http.StatusOK {
		t.Error("/healthz must stay 200 while draining (liveness != readiness)")
	}
}
