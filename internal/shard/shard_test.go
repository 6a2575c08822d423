package shard_test

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/shard"
	"github.com/pbitree/pbitree/internal/workload"
	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// buildCollection generates n small DBLP-shaped documents and hangs them
// under one collection (disjoint code regions per document).
func buildCollection(t *testing.T, n int) *xmltree.Collection {
	t.Helper()
	coll := xmltree.NewCollection()
	for i := 0; i < n; i++ {
		doc, err := workload.GenerateDBLP(workload.DBLPParams{
			Articles: 60 + 25*i, Inproceedings: 40 + 10*i, Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := coll.AddTree(docName(i), doc.Root); err != nil {
			t.Fatal(err)
		}
	}
	return coll
}

func docName(i int) string { return "doc-" + string(rune('a'+i)) }

// loadSharded distributes each document's codes to its assigned shard.
func loadSharded(t *testing.T, se *shard.Engine, coll *xmltree.Collection, shardOf []int, tag string) *shard.Relation {
	t.Helper()
	perShard := make([][]pbicode.Code, se.NumShards())
	for i, name := range coll.Names() {
		codes, err := coll.CodesIn(name, tag)
		if err != nil {
			t.Fatal(err)
		}
		g := shardOf[i]
		perShard[g] = append(perShard[g], codes...)
	}
	for g, codes := range perShard {
		if len(codes) == 0 {
			continue
		}
		if err := se.LoadShard(g, tag, codes); err != nil {
			t.Fatal(err)
		}
	}
	r, ok := se.Relation(tag)
	if !ok {
		t.Fatalf("relation %q not registered", tag)
	}
	return r
}

func sortPairs(ps []containment.Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].D < ps[j].D
	})
}

// TestShardJoinEquivalence: for every algorithm, a randomized document
// split joined through shard.Engine yields the same pair multiset as the
// single-engine join over the whole collection.
func TestShardJoinEquivalence(t *testing.T) {
	coll := buildCollection(t, 5)
	rng := rand.New(rand.NewSource(7))
	const nShards = 3
	shardOf := make([]int, coll.NumDocuments())
	for i := range shardOf {
		shardOf[i] = rng.Intn(nShards)
	}

	pairsToTest := [][2]string{
		{"article", "author"},
		{"inproceedings", "pages"},
	}
	for _, tags := range pairsToTest {
		anc, desc := tags[0], tags[1]

		single, err := containment.NewEngine(containment.Config{
			PageSize: 512, BufferPages: 64, TreeHeight: coll.Height(),
		})
		if err != nil {
			t.Fatal(err)
		}
		sa, err := single.Load(anc, coll.Codes(anc))
		if err != nil {
			t.Fatal(err)
		}
		sd, err := single.Load(desc, coll.Codes(desc))
		if err != nil {
			t.Fatal(err)
		}

		se, err := shard.New(shard.Config{
			PageSize: 512, BufferPages: 64, TreeHeight: coll.Height(),
		}, nShards)
		if err != nil {
			t.Fatal(err)
		}
		ra := loadSharded(t, se, coll, shardOf, anc)
		rd := loadSharded(t, se, coll, shardOf, desc)
		if ra.Len() != sa.Len() || rd.Len() != sd.Len() {
			t.Fatalf("//%s//%s: sharded sizes %d/%d, single %d/%d",
				anc, desc, ra.Len(), rd.Len(), sa.Len(), sd.Len())
		}

		for _, alg := range []containment.Algorithm{
			containment.Auto, containment.NestedLoop, containment.MHCJ,
			containment.MHCJRollup, containment.VPJ, containment.INLJN,
			containment.StackTree, containment.StackTreeAnc,
			containment.MPMGJN, containment.ADBPlus,
		} {
			want, err := single.Join(sa, sd, containment.JoinOptions{Algorithm: alg, Collect: true})
			if err != nil {
				t.Fatalf("single //%s//%s %v: %v", anc, desc, alg, err)
			}
			got, err := se.Join(ra, rd, containment.JoinOptions{Algorithm: alg, Collect: true})
			if err != nil {
				t.Fatalf("sharded //%s//%s %v: %v", anc, desc, alg, err)
			}
			if got.Count != want.Count {
				t.Fatalf("//%s//%s %v: sharded count %d, single %d", anc, desc, alg, got.Count, want.Count)
			}
			sortPairs(want.Pairs)
			sortPairs(got.Pairs)
			if len(got.Pairs) != len(want.Pairs) {
				t.Fatalf("//%s//%s %v: %d pairs, want %d", anc, desc, alg, len(got.Pairs), len(want.Pairs))
			}
			for i := range want.Pairs {
				if got.Pairs[i] != want.Pairs[i] {
					t.Fatalf("//%s//%s %v: pair %d = %v, want %v", anc, desc, alg, i, got.Pairs[i], want.Pairs[i])
				}
			}
		}
		if err := se.Close(); err != nil {
			t.Fatal(err)
		}
		if err := single.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardAnalyzeMergesSpans: EXPLAIN ANALYZE across the fan-out shows a
// merged root with one child span per participating shard, and the merged
// counters obey the self-attribution invariant.
func TestShardAnalyzeMergesSpans(t *testing.T) {
	coll := buildCollection(t, 4)
	const nShards = 4
	shardOf := []int{0, 1, 2, 3}
	se, err := shard.New(shard.Config{PageSize: 512, BufferPages: 64, TreeHeight: coll.Height()}, nShards)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close() //nolint:errcheck // test cleanup
	ra := loadSharded(t, se, coll, shardOf, "article")
	rd := loadSharded(t, se, coll, shardOf, "author")

	an, err := se.Analyze(ra, rd, containment.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	root := an.Root()
	if root == nil {
		t.Fatal("no root span")
	}
	if root.Name != "join" || root.Detail != "sharded n=4" {
		t.Fatalf("root = %q [%q]", root.Name, root.Detail)
	}
	if len(root.Children) != nShards {
		t.Fatalf("%d shard spans, want %d", len(root.Children), nShards)
	}
	var sum trace0 // child totals must sum to the root's
	for i, c := range root.Children {
		if c.Detail == "" || c.Detail[:6] != "shard=" {
			t.Fatalf("child %d detail %q lacks shard annotation", i, c.Detail)
		}
		sum.reads += c.Total.Reads
		sum.pairs += c.Total.Pairs
	}
	if root.Total.Reads != sum.reads || root.Total.Pairs != sum.pairs {
		t.Fatalf("root total (reads=%d pairs=%d) != child sum (reads=%d pairs=%d)",
			root.Total.Reads, root.Total.Pairs, sum.reads, sum.pairs)
	}
	if an.Result.Count != root.Total.Pairs {
		t.Fatalf("result count %d != span pairs %d", an.Result.Count, root.Total.Pairs)
	}
	if an.Result.IO.WallTime > 0 && root.Wall == 0 {
		t.Fatal("merged root has no wall time")
	}
}

type trace0 struct{ reads, pairs int64 }

// TestSplitOpenEquivalence: build a file-backed database with a document
// catalog, split it, reopen the shards read-only, and check joins and path
// evaluation match the unsharded engine — with no leaked temp pages.
func TestSplitOpenEquivalence(t *testing.T) {
	coll := buildCollection(t, 5)
	dir := t.TempDir()
	srcPath := filepath.Join(dir, "corpus.db")

	src, err := containment.NewEngine(containment.Config{
		Path: srcPath, PageSize: 512, TreeHeight: coll.Height(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tags := []string{"article", "author", "title"}
	var loaded []*containment.Relation
	for _, tag := range tags {
		r, err := src.Load(tag, coll.Codes(tag))
		if err != nil {
			t.Fatal(err)
		}
		loaded = append(loaded, r)
	}
	var docs []containment.DocInfo
	for _, name := range coll.Names() {
		var elems int64
		var root pbicode.Code
		for _, tag := range tags {
			codes, err := coll.CodesIn(name, tag)
			if err != nil {
				t.Fatal(err)
			}
			elems += int64(len(codes))
		}
		// The document root's code bounds the region.
		got, err := coll.CodesIn(name, "dblp")
		if err != nil || len(got) != 1 {
			t.Fatalf("doc root of %s: %v (%d codes)", name, err, len(got))
		}
		root = got[0]
		docs = append(docs, containment.DocInfo{Name: name, Root: root, Elements: elems})
	}
	if err := src.SaveDocs(docs, loaded...); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	outDir := filepath.Join(dir, "shards")
	man, err := shard.Split(srcPath, 3, outDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Shards) != 3 {
		t.Fatalf("%d manifest shards, want 3", len(man.Shards))
	}
	var manDocs int
	for _, s := range man.Shards {
		manDocs += len(s.Documents)
	}
	if manDocs != coll.NumDocuments() {
		t.Fatalf("manifest assigns %d documents, want %d", manDocs, coll.NumDocuments())
	}

	se, err := shard.Open(filepath.Join(outDir, shard.ManifestName), shard.Config{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close() //nolint:errcheck // test cleanup

	single, rels, err := containment.Open(containment.Config{Path: srcPath, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close() //nolint:errcheck // test cleanup

	ra, _ := se.Relation("article")
	rd, _ := se.Relation("author")
	got, err := se.JoinContext(context.Background(), ra, rd, containment.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Join(rels["article"], rels["author"], containment.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != want.Count {
		t.Fatalf("sharded count %d, single %d", got.Count, want.Count)
	}

	// Path chain //article//author across shards matches the single-engine
	// matched-descendant set.
	codes, steps, analyses, err := se.PathContext(context.Background(), []string{"article", "author"})
	if err != nil {
		t.Fatal(err)
	}
	matched := map[pbicode.Code]bool{}
	_, err = single.Join(rels["article"], rels["author"], containment.JoinOptions{
		Emit: func(p containment.Pair) error { matched[p.D] = true; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != len(matched) {
		t.Fatalf("path matches %d codes, single %d", len(codes), len(matched))
	}
	for _, c := range codes {
		if !matched[c] {
			t.Fatalf("path match %v absent from single-engine result", c)
		}
	}
	if len(steps) != 1 || steps[0].Matches != int64(len(matched)) {
		t.Fatalf("steps = %+v, want 1 step with %d matches", steps, len(matched))
	}
	if len(analyses) == 0 {
		t.Fatal("no per-shard analyses")
	}

	// Unknown tags 404 cleanly.
	if _, _, _, err := se.PathContext(context.Background(), []string{"article", "nosuch"}); err == nil {
		t.Fatal("unknown tag accepted")
	}

	// No leaked temp pages after release (read-only shards hold overlays).
	if err := se.ReleaseTemp(); err != nil {
		t.Fatal(err)
	}
	if n := se.TempPages(); n != 0 {
		t.Fatalf("%d temp pages leaked", n)
	}

	// Totals were accumulated for at least one shard.
	var any bool
	for _, s := range se.Totals() {
		if s.Reads > 0 || s.PoolHits > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no per-shard totals accumulated")
	}
}

// TestShardCancelMidFanout cancels the context from inside the Emit
// callback while shards are mid-join; the fan-out must stop with a
// cancellation error, return a partial result, and release all temps.
// Run under -race: it exercises the concurrent emit serialization.
func TestShardCancelMidFanout(t *testing.T) {
	coll := buildCollection(t, 4)
	const nShards = 4
	shardOf := []int{0, 1, 2, 3}
	se, err := shard.New(shard.Config{
		PageSize: 512, BufferPages: 64, TreeHeight: coll.Height(),
	}, nShards)
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close() //nolint:errcheck // test cleanup
	ra := loadSharded(t, se, coll, shardOf, "article")
	rd := loadSharded(t, se, coll, shardOf, "author")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n int32
	res, err := se.JoinContext(ctx, ra, rd, containment.JoinOptions{
		Emit: func(p containment.Pair) error {
			if atomic.AddInt32(&n, 1) == 5 {
				cancel()
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("canceled fan-out returned no error")
	}
	if cls := containment.Classify(err); cls != containment.FailCanceled {
		t.Fatalf("Classify = %v, want canceled", cls)
	}
	if res == nil {
		t.Fatal("no partial result")
	}
	if n := se.TempPages(); n != 0 {
		t.Fatalf("%d temp pages leaked after cancellation", n)
	}

	// A deadline classifies as such.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	time.Sleep(time.Millisecond)
	_, err = se.JoinContext(dctx, ra, rd, containment.JoinOptions{})
	if cls := containment.Classify(err); cls != containment.FailDeadline {
		t.Fatalf("deadline Classify = %v (err=%v)", cls, err)
	}
}

// TestPack checks the LPT packer: a partition of the indices with balanced
// loads.
func TestPack(t *testing.T) {
	weights := []int64{10, 8, 5, 3, 2, 1}
	groups := shard.Pack(weights, 3)
	if len(groups) != 3 {
		t.Fatalf("%d groups", len(groups))
	}
	seen := map[int]bool{}
	var maxLoad int64
	for _, g := range groups {
		var load int64
		for _, i := range g {
			if seen[i] {
				t.Fatalf("index %d assigned twice", i)
			}
			seen[i] = true
			load += weights[i]
		}
		if load > maxLoad {
			maxLoad = load
		}
	}
	if len(seen) != len(weights) {
		t.Fatalf("%d of %d indices assigned", len(seen), len(weights))
	}
	if maxLoad > 10 {
		t.Fatalf("max load %d; LPT should reach 10", maxLoad)
	}

	// More shards than items: empties allowed, nothing lost.
	groups = shard.Pack([]int64{5}, 3)
	if len(groups) != 3 || len(groups[0])+len(groups[1])+len(groups[2]) != 1 {
		t.Fatalf("overprovisioned pack = %v", groups)
	}
}

// TestDiscover recovers maximal disjoint regions from bare code sets:
// disjoint, sorted, covering every input code exactly once — so no
// containment pair can span two of them.
func TestDiscover(t *testing.T) {
	coll := buildCollection(t, 4)
	regions := shard.Discover(coll.Codes("article"), coll.Codes("author"))
	if len(regions) < 4 {
		t.Fatalf("%d regions, want at least one per document", len(regions))
	}
	for i := 1; i < len(regions); i++ {
		if regions[i].Start <= regions[i-1].End {
			t.Fatalf("regions %d and %d overlap: %+v %+v", i-1, i, regions[i-1], regions[i])
		}
	}
	// Every input code falls entirely within exactly one region.
	for _, c := range append(coll.Codes("article"), coll.Codes("author")...) {
		var hits int
		cr := c.Region()
		for _, r := range regions {
			// Region.Contains is proper containment; a maximal group may BE
			// the code's own region.
			if r == cr || r.Contains(cr) {
				hits++
			}
		}
		if hits != 1 {
			t.Fatalf("code %v in %d regions", c, hits)
		}
	}

	// With the document roots in the input, the maximal groups ARE the
	// documents: the root regions envelope everything beneath them.
	regions = shard.Discover(coll.Codes("dblp"), coll.Codes("article"), coll.Codes("author"))
	if len(regions) != 4 {
		t.Fatalf("%d regions with doc roots present, want 4", len(regions))
	}
}

// TestSplitReportsCorruptDocuments: a document catalog that does not decode
// is reported as such, not as a database without one.
func TestSplitReportsCorruptDocuments(t *testing.T) {
	srcPath := filepath.Join(t.TempDir(), "corpus.db")
	src, err := containment.NewEngine(containment.Config{Path: srcPath, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	r, err := src.Load("a", []pbicode.Code{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SaveDocs([]containment.DocInfo{{Name: "d", Root: 3, Elements: 2}}, r); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(srcPath + ".catalog")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(srcPath+".catalog", bytes.Replace(data, []byte(`"names":[`), []byte(`"names":[7,`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = shard.Split(srcPath, 2, filepath.Join(t.TempDir(), "shards"))
	if err == nil || strings.Contains(err.Error(), "has no document catalog") || !strings.Contains(err.Error(), "document catalog") {
		t.Fatalf("split over a corrupt document catalog: %v", err)
	}
}
