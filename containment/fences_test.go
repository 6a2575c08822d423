package containment

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// fencedDoc is a document of nested a/b/c elements — many more b and c than
// a, and a run of a near its start only — stored in document order, one
// relation per tag.
func fencedDoc(t *testing.T) *xmltree.Document {
	t.Helper()
	rng := rand.New(rand.NewSource(45))
	var sb strings.Builder
	var build func(depth int, tags []string)
	build = func(depth int, tags []string) {
		tag := tags[rng.Intn(len(tags))]
		sb.WriteString("<" + tag + ">")
		if depth < 5 {
			for i := 0; i < rng.Intn(4); i++ {
				build(depth+1, tags)
			}
		}
		sb.WriteString("</" + tag + ">")
	}
	sb.WriteString("<root>")
	for i := 0; i < 400; i++ {
		tags := []string{"b", "c"}
		if i < 20 {
			tags = []string{"a", "b", "c"}
		}
		build(0, tags)
	}
	sb.WriteString("</root>")
	doc, err := xmltree.ParseString(sb.String(), xmltree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// saveTags stores doc's a, b and c relations as a database at path.
func saveTags(t *testing.T, doc *xmltree.Document, path string) {
	t.Helper()
	e, err := NewEngine(Config{Path: path, PageSize: 512, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	var rels []*Relation
	for _, tag := range []string{"a", "b", "c"} {
		r, err := e.LoadDoc(doc, tag)
		if err != nil {
			t.Fatal(err)
		}
		if r.rel.Fences() == nil {
			t.Fatalf("relation %s, loaded in document order, has no fences", tag)
		}
		rels = append(rels, r)
	}
	if err := e.SaveDocs(nil, rels...); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// editEntries rewrites the catalog of the database at path, passing each
// relation entry to edit.
func editEntries(t *testing.T, path string, edit func(ent map[string]any)) {
	t.Helper()
	data, err := os.ReadFile(catalogPath(path))
	if err != nil {
		t.Fatal(err)
	}
	var cat map[string]any
	if err := json.Unmarshal(data, &cat); err != nil {
		t.Fatal(err)
	}
	for _, r := range cat["relations"].([]any) {
		edit(r.(map[string]any))
	}
	if data, err = json.Marshal(cat); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(catalogPath(path), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCatalogWithoutFencesAnswersAlike: a database whose catalog records
// its fences reopens with them, as the loader made them; the same database
// under a catalog without them — as earlier versions wrote it — reopens
// with order claims taken on trust. Both answer every join and path alike,
// and the oracle's; a selective STACKTREE join seeks over the fences and
// reads D to its end without them.
func TestCatalogWithoutFencesAnswersAlike(t *testing.T) {
	doc := fencedDoc(t)
	dir := t.TempDir()
	fenced, legacy := filepath.Join(dir, "fenced.db"), filepath.Join(dir, "legacy.db")
	saveTags(t, doc, fenced)
	saveTags(t, doc, legacy)
	editEntries(t, legacy, func(ent map[string]any) { delete(ent, "fences") })
	type answers struct {
		counts map[string]int64
		paths  map[string][]pbicode.Code
		reads  int64
	}
	run := func(path string, wantFences bool) answers {
		e, rels, err := Open(Config{Path: path, BufferPages: 16, ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for name, r := range rels {
			if got := r.rel.Fences() != nil; got != wantFences || r.rel.OrderTrusted() == wantFences {
				t.Fatalf("%s: relation %s has fences %v, order trusted %v", path, name, got, r.rel.OrderTrusted())
			}
		}
		ans := answers{counts: map[string]int64{}, paths: map[string][]pbicode.Code{}}
		for _, alg := range []Algorithm{Auto, StackTree, ADBPlus, INLJN, MPMGJN, NestedLoop} {
			for _, pair := range [][2]string{{"a", "c"}, {"b", "c"}, {"a", "b"}} {
				if err := e.DropCache(); err != nil {
					t.Fatal(err)
				}
				res, err := e.Join(rels[pair[0]], rels[pair[1]], JoinOptions{Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				ans.counts[alg.String()+"/"+pair[0]+"/"+pair[1]] = res.Count
				if alg == StackTree && pair == [2]string{"a", "c"} {
					ans.reads = res.IO.Reads
					want := rels["a"].Pages() + rels["c"].Pages()
					if wantFences == (res.IO.Reads >= want) {
						t.Errorf("%s: STACKTREE a//c read %d of ‖A‖+‖D‖ = %d pages", path, res.IO.Reads, want)
					}
				}
			}
		}
		for _, steps := range [][]string{{"a", "b", "c"}, {"b", "c", "c"}, {"a", "c"}} {
			anchor := rels[steps[0]]
			var chain []ChainStep
			for _, tag := range steps[1:] {
				chain = append(chain, ChainStep{Desc: rels[tag]})
			}
			got, _, err := e.Chain(t.Context(), anchor, chain)
			if err != nil {
				t.Fatal(err)
			}
			ans.paths[strings.Join(steps, "//")] = got
			want := bruteForcePath(doc, steps)
			if len(got) != len(want) {
				t.Fatalf("%s: //%s: %d matches, want %d", path, strings.Join(steps, "//"), len(got), len(want))
			}
			for _, c := range got {
				if !want[c] {
					t.Fatalf("%s: //%s: %v is no match", path, strings.Join(steps, "//"), c)
				}
			}
		}
		return ans
	}
	f, l := run(fenced, true), run(legacy, false)
	for k, n := range l.counts {
		if f.counts[k] != n {
			t.Errorf("%s: %d pairs with fences, %d without", k, f.counts[k], n)
		}
	}
	for k, p := range l.paths {
		if !slices.Equal(f.paths[k], p) {
			t.Errorf("//%s: %d matches with fences, %d without", k, len(f.paths[k]), len(p))
		}
	}
	t.Logf("STACKTREE a//c: %d pages with fences, %d without", f.reads, l.reads)
}

// TestPackFencesRoundTrips: the catalog's packed fences give back exactly
// the fences packed, whatever they are — ascending below the relation's
// End as the loader writes them, past it, out of order — and packed bytes
// that do not decode fail instead of giving fences.
func TestPackFencesRoundTrips(t *testing.T) {
	const end = 70000
	for _, fences := range [][]uint64{
		nil,
		{1},
		{3, 3200, 6500, 65566},
		{1, 1, 69999, 70000},
		{5, math.MaxUint64},
		{9, 2, 7},
		{math.MaxUint64, 0},
	} {
		packed := packFences(fences, end)
		got, err := unpackFences(packed, end)
		if err != nil || !slices.Equal(got, fences) {
			t.Errorf("fences %v packed as %q unpack to %v, %v", fences, packed, got, err)
		}
	}
	if n := len(packFences([]uint64{62000, 65566}, 65919)); n > 4 {
		t.Errorf("two fences near the End pack into %d bytes, want at most 4", n)
	}
	for _, bad := range [][]byte{{0x80}, {5, 0xff}, bytes.Repeat([]byte{0xff}, 11)} {
		if got, err := unpackFences(bad, end); err == nil {
			t.Errorf("%x unpacks to %v, want an error", bad, got)
		}
	}
}

// TestAddFencesBackfillsOlderCatalogs: AddFences gives a catalog written
// without fences exactly the fences the loader records, so its relations
// reopen with the loader's claim and STACKTREE seeks over them; it adds
// nothing twice, and it refuses a database whose order claim is false,
// leaving its catalog as it was.
func TestAddFencesBackfillsOlderCatalogs(t *testing.T) {
	doc := fencedDoc(t)
	dir := t.TempDir()
	fenced, legacy, bad := filepath.Join(dir, "fenced.db"), filepath.Join(dir, "legacy.db"), filepath.Join(dir, "bad.db")
	for _, path := range []string{fenced, legacy, bad} {
		saveTags(t, doc, path)
	}
	editEntries(t, legacy, func(ent map[string]any) { delete(ent, "fences") })
	n, err := AddFences(legacy)
	if err != nil || n != 3 {
		t.Fatalf("AddFences: %d relations, %v; want 3", n, err)
	}
	want, err := readCatalog(fenced)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readCatalog(legacy)
	if err != nil {
		t.Fatal(err)
	}
	for i, ent := range want.Relations {
		if g := got.Relations[i]; g.Name != ent.Name || !slices.Equal(g.Fences, ent.Fences) {
			t.Fatalf("relation %s: backfilled fences %v, the loader's %v", ent.Name, g.Fences, ent.Fences)
		}
	}
	if n, err := AddFences(legacy); n != 0 || err != nil {
		t.Fatalf("AddFences again: %d relations, %v; want none", n, err)
	}
	reads := func(path string) int64 {
		e, rels, err := Open(Config{Path: path, BufferPages: 16, ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for name, r := range rels {
			if r.rel.Fences() == nil || r.rel.OrderTrusted() {
				t.Fatalf("%s: relation %s reopens without fences", path, name)
			}
		}
		res, err := e.Join(rels["a"], rels["c"], JoinOptions{Algorithm: StackTree})
		if err != nil {
			t.Fatal(err)
		}
		return res.IO.Reads
	}
	if f, l := reads(fenced), reads(legacy); f != l {
		t.Errorf("STACKTREE a//c reads %d pages over the backfilled catalog, %d over the loader's", l, f)
	}

	// The pages of c listed out of order: a claim its records leave.
	editEntries(t, bad, func(ent map[string]any) {
		delete(ent, "fences")
		if ent["name"] == "c" {
			slices.Reverse(ent["pages"].([]any))
		}
	})
	before, err := os.ReadFile(catalogPath(bad))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := AddFences(bad); err == nil {
		t.Fatalf("AddFences over a false order claim: %d relations, no error", n)
	}
	if after, err := os.ReadFile(catalogPath(bad)); err != nil || string(after) != string(before) {
		t.Fatalf("AddFences rewrote the catalog of a database that does not verify (%v)", err)
	}
}

// TestLoadOverCarriesLoadFences: a relation LoadOver re-stores over old
// carries exactly the fences a fresh Load of the same codes records, and
// so does its catalog entry once an epoch is saved and folded.
func TestLoadOverCarriesLoadFences(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	codes, _ := docOrdered(t, rng, randCodes(rng, 1200, 14))
	e, err := NewEngine(Config{PageSize: 512, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	old, err := e.Load("R", codes[:900])
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range []int{900, 880, 450, 0} {
		next := slices.Clone(codes[:from])
		next = append(next, codes[from:]...)
		if from == 450 {
			next = append(next[:600:600], next[700:]...) // a deletion
		}
		r, err := e.LoadOver(old, "R", min(from, len(next)), next[min(from, len(next)):])
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := e.Load("F", next)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := r.rel.Fences(), fresh.rel.Fences(); want == nil || !slices.Equal(got, want) {
			t.Fatalf("from %d: LoadOver (%d shared pages) has fences %v, Load %v", from, r.SharedPages(), got, want)
		}
		if r.rel.OrderTrusted() {
			t.Fatalf("from %d: the order LoadOver checked is taken on trust", from)
		}
	}

	// Through a diff catalog: an epoch that re-stores the relation over a
	// saved one folds to the fences of the relation it saved.
	path := filepath.Join(t.TempDir(), "base.db")
	b, err := NewEngine(Config{Path: path, PageSize: 512, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	base, err := b.Load("R", codes[:900])
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Save(base); err != nil {
		t.Fatal(err)
	}
	b.Close()
	ro, rels, err := Open(Config{Path: path, BufferPages: 32, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	r, err := ro.LoadOver(rels["R"], "R", 900, codes[900:])
	if err != nil {
		t.Fatal(err)
	}
	ep := filepath.Join(filepath.Dir(path), "epoch-000001.db")
	if err := ro.SaveEpoch(ep, 1, nil, r); err != nil {
		t.Fatal(err)
	}
	want := r.rel.Fences()
	e2, rels2, err := Open(Config{Path: ep, BufferPages: 32, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if r.SharedPages() == 0 || len(want) != int(r.Pages()) || !slices.Equal(rels2["R"].rel.Fences(), want) {
		t.Fatalf("epoch over %d shared pages: reopens with fences %v, saved %v", r.SharedPages(), rels2["R"].rel.Fences(), want)
	}
	if rep, err := Fsck(ep); err != nil || !rep.OK() {
		t.Fatalf("epoch: Fsck %+v, %v", rep, err)
	}
}

// TestFsckChecksFences: Fsck names a relation whose catalog fences are not
// its pages' first Starts, or not one a page; Open then treats its order
// claim as taken on trust when the fences cannot be used, and every join
// gives the oracle's pairs or fails as corrupt.
func TestFsckChecksFences(t *testing.T) {
	doc := fencedDoc(t)
	for _, tc := range []struct {
		name string
		edit func(f []uint64) []uint64
		want string
	}{
		{"value", func(f []uint64) []uint64 { f[1]++; return f }, "fence of page 2"},
		{"count", func(f []uint64) []uint64 { return f[1:] }, "fences for"},
	} {
		path := filepath.Join(t.TempDir(), "db")
		saveTags(t, doc, path)
		if rep, err := Fsck(path); err != nil || !rep.OK() {
			t.Fatalf("%s: the database as saved: %+v, %v", tc.name, rep, err)
		}
		cat, err := readCatalog(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cat.Relations {
			if ent := &cat.Relations[i]; ent.Name == "c" {
				ent.Fences = tc.edit(ent.Fences)
			}
		}
		if err := writeCatalog(path, cat); err != nil {
			t.Fatal(err)
		}
		rep, err := Fsck(path)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() || len(rep.Entries) != 1 || rep.Entries[0].Relation != "c" || !strings.Contains(rep.Entries[0].Error, tc.want) {
			t.Fatalf("%s: Fsck entries %+v, want relation c named (%q)", tc.name, rep.Entries, tc.want)
		}
		e, rels, err := Open(Config{Path: path, BufferPages: 16, ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		want := oracle(doc.Codes("a"), doc.Codes("c"))
		for _, alg := range []Algorithm{Auto, StackTree, ADBPlus, INLJN} {
			res, err := e.Join(rels["a"], rels["c"], JoinOptions{Algorithm: alg, Collect: true})
			switch {
			case err != nil && Classify(err) != FailCorrupt:
				t.Errorf("%s: %v: %v, want the oracle's pairs or a corrupt error", tc.name, alg, err)
			case err == nil:
				sortPairs(res.Pairs)
				if !slices.Equal(res.Pairs, want) {
					t.Errorf("%s: %v: %d pairs, want the oracle's %d", tc.name, alg, len(res.Pairs), len(want))
				}
			}
		}
		e.Close()
	}
}

// TestExplainPricesSeeksOverFences: over inputs with fences, EXPLAIN's
// prediction for STACKTREE, ADB+ and INLJN is what they read cold — ‖A‖
// plus the pages of D that meet A's span — on inputs that fit the pool and
// on a selective pair, where that is a fraction of ‖D‖; AUTO still stars
// STACKTREE.
func TestExplainPricesSeeksOverFences(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const h = 16
	dCodes, _ := docOrdered(t, rng, randCodes(rng, 2500, h))
	x := pbicode.Root(h).LeftChild().RightChild().LeftChild()
	sub := []pbicode.Code{x}
	for _, c := range randCodes(rng, 4000, h) {
		if pbicode.IsAncestor(x, c) && len(sub) < 40 {
			sub = append(sub, c)
		}
	}
	sub, _ = docOrdered(t, rng, sub)
	wide, _ := docOrdered(t, rng, randCodes(rng, 1500, h))
	for _, fx := range []struct {
		name      string
		a         []pbicode.Code
		selective bool
	}{{"fits the pool", wide, false}, {"selective", sub, true}} {
		e, err := NewEngine(Config{PageSize: 512, BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := e.Load("A", fx.a)
		d, _ := e.Load("D", dCodes)
		if a.rel.Fences() == nil || d.rel.Fences() == nil || a.Pages()+d.Pages() > 62 {
			t.Fatalf("%s: fixture of %d+%d pages, fences %v %v", fx.name, a.Pages(), d.Pages(), a.rel.Fences() != nil, d.rel.Fences() != nil)
		}
		predicted := map[string]int64{}
		for _, p := range e.Explain(a, d) {
			predicted[p.Algorithm] = p.PredictedIO
			if p.Chosen && p.Algorithm != "STACKTREE" {
				t.Errorf("%s: Explain stars %s, want STACKTREE:\n%s", fx.name, p.Algorithm, e.ExplainString(a, d))
			}
		}
		want, err := e.Join(a, d, JoinOptions{Algorithm: NestedLoop})
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []Algorithm{StackTree, ADBPlus, INLJN} {
			if err := e.DropCache(); err != nil {
				t.Fatal(err)
			}
			an, err := e.Analyze(a, d, JoinOptions{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			res := an.Result
			io := res.IO.Reads + res.IO.Writes
			if res.PredictedIO != predicted[res.Algorithm] || io != res.PredictedIO || res.IO.Writes != 0 {
				t.Errorf("%s: %s: Explain predicted %d, Analyze %d; measured %d reads + %d writes",
					fx.name, res.Algorithm, predicted[res.Algorithm], res.PredictedIO, res.IO.Reads, res.IO.Writes)
			}
			if fx.selective && 2*io > a.Pages()+d.Pages() {
				t.Errorf("%s: %s read %d pages of ‖A‖+‖D‖ = %d", fx.name, res.Algorithm, io, a.Pages()+d.Pages())
			}
			if res.Count != want.Count {
				t.Errorf("%s: %s: %d pairs, the oracle has %d", fx.name, res.Algorithm, res.Count, want.Count)
			}
		}
		e.Close()
	}
}
