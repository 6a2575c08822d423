package qserv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/serve/servetest"
	"github.com/pbitree/pbitree/internal/shard"
	"github.com/pbitree/pbitree/xmltree"
)

// buildShardedServerDB persists a multi-document database (SaveDocs, so
// it carries the document catalog shard.Split needs), splits it into n
// shards at the pbidb-shard default location, and returns the database
// path. The returned path serves both solo (DBPath alone) and sharded
// (Config.Shards = n) — the equivalence tests compare the two.
func buildShardedServerDB(t *testing.T, n int) string {
	t.Helper()
	coll := xmltree.NewCollection()
	for d := 0; d < 4; d++ {
		var sb strings.Builder
		sb.WriteString("<doc>")
		for i := 0; i < 15+10*d; i++ {
			sb.WriteString("<section><title>t</title><figure/>")
			sb.WriteString("<para><figure/><para><figure/></para></para>")
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
	path := filepath.Join(t.TempDir(), "serve.db")
	eng, err := containment.NewEngine(containment.Config{Path: path, TreeHeight: coll.Height()})
	if err != nil {
		t.Fatal(err)
	}
	tags := []string{"section", "figure", "para", "title"}
	var rels []*containment.Relation
	for _, tag := range tags {
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
		for _, tag := range tags {
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
	if _, err := shard.Split(path, n, path+".shards"); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestShardedServingEquivalence starts a solo and a sharded server over
// the same split database and requires identical answers from /join and
// /query, plus per-shard counters on /stats and /metrics.
func TestShardedServingEquivalence(t *testing.T) {
	const nShards = 2
	db := buildShardedServerDB(t, nShards)

	solo, err := New(Config{DBPath: db, Workers: 1, CacheEntries: -1, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	sharded, err := New(Config{DBPath: db, Shards: nShards, Workers: 2, CacheEntries: -1, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	tsSolo := httptest.NewServer(solo.Handler())
	defer tsSolo.Close()
	tsShard := httptest.NewServer(sharded.Handler())
	defer tsShard.Close()
	client := &http.Client{}

	urls := []string{
		"/join?anc=section&desc=figure",
		"/join?anc=section&desc=para",
		"/join?anc=para&desc=figure&algo=stacktree",
		"/query?path=//section//para//figure",
		"/query?path=//section//title",
	}
	for _, u := range urls {
		st1, body1, _ := get(t, client, tsSolo.URL+u)
		st2, body2, _ := get(t, client, tsShard.URL+u)
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("%s: solo=%d sharded=%d (%s / %s)", u, st1, st2, body1, body2)
		}
		var r1, r2 map[string]any
		if err := json.Unmarshal(body1, &r1); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body2, &r2); err != nil {
			t.Fatal(err)
		}
		if r1["count"] != r2["count"] {
			t.Errorf("%s: count solo=%v sharded=%v", u, r1["count"], r2["count"])
		}
		// Path queries echo the match codes — the sharded merge must
		// produce the same document-order list, not just the same count.
		if c1, ok := r1["codes"]; ok {
			if !jsonEqual(c1, r2["codes"]) {
				t.Errorf("%s: codes differ between solo and sharded", u)
			}
		}
	}

	// The 404 vocabulary must match solo serving.
	st, body, _ := get(t, client, tsShard.URL+"/join?anc=nosuch&desc=figure")
	if st != http.StatusNotFound || !bytes.Contains(body, []byte(`no stored relation for tag \"nosuch\"`)) {
		t.Fatalf("unknown tag: status %d body %s", st, body)
	}

	// /relations agrees with the solo catalog on the logical fields.
	// (Pages may differ: a split stores each relation across N partially
	// filled per-shard page files.)
	_, soloRels, _ := get(t, client, tsSolo.URL+"/relations")
	_, shardRels, _ := get(t, client, tsShard.URL+"/relations")
	var rl1, rl2 []RelationInfo
	if err := json.Unmarshal(soloRels, &rl1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(shardRels, &rl2); err != nil {
		t.Fatal(err)
	}
	if len(rl1) != len(rl2) {
		t.Fatalf("/relations: solo has %d entries, sharded %d", len(rl1), len(rl2))
	}
	for i := range rl1 {
		a, b := rl1[i], rl2[i]
		if a.Name != b.Name || a.Tag != b.Tag || a.Elements != b.Elements || a.Ordered != b.Ordered {
			t.Errorf("/relations[%d] differs: solo %+v sharded %+v", i, a, b)
		}
	}

	// /stats exposes one entry per shard with the work accounted somewhere.
	_, statsBody, _ := get(t, client, tsShard.URL+"/stats")
	var stats struct {
		Shards []shardStat `json:"shards"`
	}
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Shards) != nShards {
		t.Fatalf("/stats shards = %d entries, want %d: %s", len(stats.Shards), nShards, statsBody)
	}
	var reads int64
	for i, st := range stats.Shards {
		if st.Shard != i {
			t.Errorf("shard stat %d has index %d", i, st.Shard)
		}
		reads += st.Reads + st.PoolHits
	}
	if reads == 0 {
		t.Errorf("no shard accounted any page access after %d queries: %s", len(urls), statsBody)
	}

	// /metrics carries the shard gauge and per-shard labelled series.
	_, metBody, _ := get(t, client, tsShard.URL+"/metrics")
	servetest.Lint(t, metBody, false)
	for _, want := range []string{
		fmt.Sprintf("pbiserve_shards %d\n", nShards),
		`pbiserve_shard_page_reads_total{shard="0"}`,
		fmt.Sprintf("pbiserve_shard_pool_hits_total{shard=\"%d\"}", nShards-1),
	} {
		if !bytes.Contains(metBody, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Solo serving keeps the families but reports zero shards, no samples.
	_, soloMet, _ := get(t, client, tsSolo.URL+"/metrics")
	if !bytes.Contains(soloMet, []byte("pbiserve_shards 0\n")) {
		t.Errorf("solo /metrics missing pbiserve_shards 0")
	}
	if bytes.Contains(soloMet, []byte(`pbiserve_shard_page_reads_total{`)) {
		t.Errorf("solo /metrics has shard-labelled samples")
	}
}

// TestShardedManifestMismatch asserts the startup validation: asking for
// a different shard count than the split provides must fail loudly.
func TestShardedManifestMismatch(t *testing.T) {
	db := buildShardedServerDB(t, 2)
	if _, err := New(Config{DBPath: db, Shards: 3, Workers: 1}); err == nil {
		t.Fatal("New accepted Shards=3 over a 2-shard split")
	}
}

// jsonEqual compares two decoded JSON values structurally.
func jsonEqual(a, b any) bool {
	ab, err1 := json.Marshal(a)
	bb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ab, bb)
}
