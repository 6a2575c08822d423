package containment

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/pbitree/pbitree/pbicode"
)

func TestSaveAndOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.pages")
	rng := rand.New(rand.NewSource(60))
	aCodes := randCodes(rng, 1500, 12)
	dCodes := randCodes(rng, 1500, 12)
	want := oracle(aCodes, dCodes)

	// Build, run a join (creating temp state), sort one input, save.
	e, err := NewEngine(Config{Path: path, PageSize: 512, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Load("A", aCodes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Load("D", dCodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Sort(d); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Join(a, d, JoinOptions{Algorithm: MHCJRollup}); err != nil {
		t.Fatal(err)
	}
	if err := e.Save(a, d); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and query.
	e2, rels, err := Open(Config{Path: path, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	a2, ok := rels["A"]
	if !ok {
		t.Fatal("relation A missing")
	}
	d2, ok := rels["D"]
	if !ok {
		t.Fatal("relation D missing")
	}
	if a2.Len() != int64(len(aCodes)) || d2.Len() != int64(len(dCodes)) {
		t.Fatalf("sizes %d/%d", a2.Len(), d2.Len())
	}
	if !d2.Ordered() || a2.Ordered() {
		t.Fatal("order claims lost")
	}
	for _, alg := range []Algorithm{Auto, VPJ, StackTree} {
		res, err := e2.Join(a2, d2, JoinOptions{Algorithm: alg, Collect: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		sortPairs(res.Pairs)
		if len(res.Pairs) != len(want) {
			t.Fatalf("%v after reopen: %d pairs, want %d", alg, len(res.Pairs), len(want))
		}
		for i := range want {
			if res.Pairs[i] != want[i] {
				t.Fatalf("%v: pair %d mismatch", alg, i)
			}
		}
	}
}

func TestSaveErrors(t *testing.T) {
	e, err := NewEngine(Config{}) // memory-backed
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Save(); err == nil {
		t.Fatal("saved a memory engine")
	}

	path := filepath.Join(t.TempDir(), "db.pages")
	ef, err := NewEngine(Config{Path: path, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer ef.Close()
	a, err := ef.Load("X", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ef.Load("X", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ef.Save(a, b); err == nil {
		t.Fatal("duplicate names accepted")
	}
}

func TestOpenErrors(t *testing.T) {
	if _, _, err := Open(Config{}); err == nil {
		t.Fatal("Open without path accepted")
	}
	if _, _, err := Open(Config{Path: filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Fatal("Open of missing catalog accepted")
	}
}

// TestOpenReadsEarlierCatalogs writes a catalog compactly, with height
// masks and columnar documents, then rewrites it the way earlier versions
// did — indented, max_height/single_height instead of heights, one object
// per document — and checks both open to the same documents and joins: a
// single-height relation's mask is recovered exactly, any other's is left
// to the join's pre-scan.
func TestOpenReadsEarlierCatalogs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.pages")
	rng := rand.New(rand.NewSource(61))
	aCodes, dCodes := randCodes(rng, 400, 10), randCodes(rng, 400, 10)
	single := []pbicode.Code{pbicode.G(1, 6, 10), pbicode.G(5, 6, 10), pbicode.G(9, 6, 10)}
	docs := []DocInfo{{Name: "d0", Root: 3, Elements: 7}, {Name: "d1", Root: 12, Elements: 9}}
	e, err := NewEngine(Config{Path: path, PageSize: 512, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	var saved []*Relation
	for name, codes := range map[string][]pbicode.Code{"A": aCodes, "D": dCodes, "S": single} {
		r, err := e.Load(name, codes)
		if err != nil {
			t.Fatal(err)
		}
		saved = append(saved, r)
	}
	if err := e.SaveDocs(docs, saved...); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(catalogPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsRune(data, '\n') || !bytes.Contains(data, []byte(`"heights"`)) || bytes.Contains(data, []byte(`"max_height"`)) {
		t.Fatalf("catalog not compact with height masks: %s", data)
	}

	check := func(what string, wantSingle, wantMulti bool) {
		t.Helper()
		e, rels, err := Open(Config{Path: path, BufferPages: 32})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if got, err := e.Documents(); err != nil || !slices.Equal(got, docs) {
			t.Fatalf("%s: documents %+v (%v), want %+v", what, got, err, docs)
		}
		if got := rels["S"].heights; got != 1<<3 {
			t.Fatalf("%s: single-height mask %b, want %b", what, got, 1<<3)
		}
		if known := rels["A"].heights != 0; known != wantMulti {
			t.Fatalf("%s: multi-height mask known = %v, want %v", what, known, wantMulti)
		}
		res, err := e.Join(rels["S"], rels["D"], JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if (res.Algorithm == SHCJ.String()) != wantSingle {
			t.Fatalf("%s: single-height set ran %s", what, res.Algorithm)
		}
		res, err = e.Join(rels["A"], rels["D"], JoinOptions{Algorithm: MHCJRollup, Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		want := oracle(aCodes, dCodes)
		sortPairs(res.Pairs)
		if !slices.Equal(res.Pairs, want) {
			t.Fatalf("%s: rollup answered %d pairs, oracle %d", what, len(res.Pairs), len(want))
		}
	}
	check("compact catalog", true, true)

	var cat map[string]any
	if err := json.Unmarshal(data, &cat); err != nil {
		t.Fatal(err)
	}
	for _, r := range cat["relations"].([]any) {
		entry := r.(map[string]any)
		h := uint64(entry["heights"].(float64))
		delete(entry, "heights")
		entry["max_height"] = bits.Len64(h) - 1
		entry["single_height"] = bits.OnesCount64(h) == 1
	}
	var objs []map[string]any
	for _, d := range docs {
		objs = append(objs, map[string]any{"name": d.Name, "root": uint64(d.Root), "elements": d.Elements})
	}
	cat["documents"] = objs
	if data, err = json.MarshalIndent(cat, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(catalogPath(path), data, 0o644); err != nil {
		t.Fatal(err)
	}
	check("earlier catalog", true, false)

	// An epoch as earlier versions wrote every one — a full version-2
	// catalog — followed by diffs: they fold onto it, the chain passes Fsck,
	// and an engine opened on the full catalog advances over the diffs.
	base, rels, err := Open(Config{Path: path, BufferPages: 32, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	grown := append(slices.Clone(aCodes), aCodes[:50]...)
	a1, err := loadOverList(t, base, rels["A"], "A", grown)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(path)
	ep1, ep2, ep3 := filepath.Join(dir, "epoch-000001.pbidb"), filepath.Join(dir, "epoch-000002.pbidb"), filepath.Join(dir, "epoch-000003.pbidb")
	if err := base.SaveEpoch(ep1, 1, docs, a1, rels["D"], rels["S"]); err != nil {
		t.Fatal(err)
	}
	base.Close()
	writeFullCatalog(t, ep1)
	e1, rels1, err := Open(Config{Path: ep1, BufferPages: 32, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	grownD := append(slices.Clone(dCodes), dCodes[:30]...)
	d2, err := loadOverList(t, e1, rels1["D"], "D", grownD)
	if err != nil {
		t.Fatal(err)
	}
	docs2 := append(slices.Clone(docs), DocInfo{Name: "d2", Root: 99, Elements: 1})
	if err := e1.SaveEpoch(ep2, 2, docs2, rels1["A"], d2, rels1["S"]); err != nil {
		t.Fatal(err)
	}
	if err := e1.SaveEpoch(ep3, 3, docs2[1:], rels1["A"], d2); err != nil { // drops S and d0
		t.Fatal(err)
	}
	e1.Close()
	want := oracle(grown, grownD)
	answer := func(what string, e *Engine, rels map[string]*Relation) {
		t.Helper()
		if got, err := e.Documents(); err != nil || !slices.Equal(got, docs2[1:]) {
			t.Fatalf("%s: documents %+v (%v), want %+v", what, got, err, docs2[1:])
		}
		if len(rels) != 2 || rels["S"] != nil {
			t.Fatalf("%s: %d relations, want A and D", what, len(rels))
		}
		res, err := e.Join(rels["A"], rels["D"], JoinOptions{Algorithm: MHCJRollup, Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		sortPairs(res.Pairs)
		if !slices.Equal(res.Pairs, want) {
			t.Fatalf("%s: rollup answered %d pairs, oracle %d", what, len(res.Pairs), len(want))
		}
	}
	e3, rels3, err := Open(Config{Path: ep3, BufferPages: 32, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	answer("diffs over a full epoch catalog", e3, rels3)
	e3.Close()
	if rep, err := Fsck(ep3); err != nil || !rep.OK() || len(rep.Deltas) != 3 {
		t.Fatalf("fsck of diffs over a full epoch catalog: %+v, %v", rep, err)
	}
	adv, _, err := Open(Config{Path: ep1, BufferPages: 32, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer adv.Close()
	advRels, err := adv.Advance(ep3)
	if err != nil {
		t.Fatalf("advance over diffs of a full epoch catalog: %v", err)
	}
	answer("advanced from a full epoch catalog", adv, advRels)
}

// writeFullCatalog rewrites the catalog of the epoch at path as the full
// version-2 catalog earlier versions wrote for every epoch: every relation's
// page list, the base and the whole delta chain, the documents as columns.
func writeFullCatalog(t testing.TB, path string) {
	t.Helper()
	at, err := readEpoch(path)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := (&Engine{at: *at}).documents()
	if err != nil {
		t.Fatal(err)
	}
	cat := &catalogFile{Version: catalogVersionEpoch, PageSize: at.pageSize, TreeHeight: at.treeHeight, Epoch: at.epoch, Checksums: at.checksums}
	rel := func(p string) string {
		r, err := filepath.Rel(filepath.Dir(path), p)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cat.Base = rel(at.base)
	for _, d := range at.deltas {
		cat.Deltas = append(cat.Deltas, rel(d))
	}
	for _, sr := range at.rels {
		cat.Relations = append(cat.Relations, sr.entry)
	}
	var cds catalogDocs
	for _, d := range docs {
		cds.Names, cds.Roots, cds.Elements = append(cds.Names, d.Name), append(cds.Roots, uint64(d.Root)), append(cds.Elements, d.Elements)
	}
	if cat.Documents, err = json.Marshal(&cds); err != nil {
		t.Fatal(err)
	}
	if err := writeCatalog(path, cat); err != nil {
		t.Fatal(err)
	}
}

// TestCatalogReadsLegacySortedKey: catalogs written before the key was
// retired carry "sorted", which an older Engine.Sort set. An entry with
// "sorted":true still opens, the key ignored: the same entry's "ordered"
// is the order claim, which Fsck checks, and a re-save no longer writes
// the key.
func TestCatalogReadsLegacySortedKey(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	ordCodes, shufCodes := docOrdered(t, rng, randCodes(rng, 600, 12))
	for _, tc := range []struct {
		name    string
		codes   []pbicode.Code
		ordered bool // the entry's "ordered", which stands
	}{
		{"sorted and ordered", ordCodes, true},
		{"sorted, not ordered", shufCodes, false},
	} {
		path := filepath.Join(t.TempDir(), "db.pages")
		cfg := Config{Path: path, PageSize: 512, BufferPages: 16}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Load("R", tc.codes)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Save(r); err != nil {
			t.Fatal(err)
		}
		e.Close()
		data, err := os.ReadFile(catalogPath(path))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte(`"sorted"`)) {
			t.Fatalf("%s: the catalog still writes \"sorted\": %s", tc.name, data)
		}
		legacy := bytes.Replace(data, []byte(`"count":`), []byte(`"sorted":true,"count":`), 1)
		if err := os.WriteFile(catalogPath(path), legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		if rep, err := Fsck(path); err != nil || !rep.OK() {
			t.Fatalf("%s: Fsck of the legacy catalog: OK %v, entries %+v (%v)", tc.name, rep.OK(), rep.Entries, err)
		}
		e, rels, err := Open(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := rels["R"].Ordered(); got != tc.ordered {
			t.Fatalf("%s: Ordered() = %v, want the entry's %v", tc.name, got, tc.ordered)
		}
		if codes, err := rels["R"].Codes(); err != nil || !slices.Equal(codes, tc.codes) {
			t.Fatalf("%s: reopened relation reads %d codes (%v)", tc.name, len(codes), err)
		}
		if err := e.Save(rels["R"]); err != nil {
			t.Fatal(err)
		}
		e.Close()
		if data, err = os.ReadFile(catalogPath(path)); err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte(`"sorted"`)) {
			t.Fatalf("%s: a re-save wrote \"sorted\" again: %s", tc.name, data)
		}
	}
}
