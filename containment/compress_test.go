package containment

import (
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/relation/relationtest"
	"github.com/pbitree/pbitree/pbicode"
)

// checkJoins runs a ◁ d under each algorithm and holds the pairs to the
// nested-loop oracle's.
func checkJoins(t *testing.T, e *Engine, a, d *Relation, want []Pair, algs ...Algorithm) {
	t.Helper()
	for _, alg := range algs {
		res, err := e.Join(a, d, JoinOptions{Algorithm: alg, Collect: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		sortPairs(res.Pairs)
		if !slices.Equal(res.Pairs, want) {
			t.Fatalf("%v: %d pairs, the oracle has %d", alg, len(res.Pairs), len(want))
		}
	}
}

// asVarint re-stores r's records as the varint pages earlier versions wrote
// under Compress: true, in place of the pages Load gave it.
func asVarint(t *testing.T, e *Engine, r *Relation) {
	t.Helper()
	recs, err := r.rel.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	v, err := relationtest.Varint(e.pool, r.Name(), recs)
	if err != nil {
		t.Fatal(err)
	}
	r.rel = v
}

// TestCompressedSaveOpenFsck round-trips a database through Save/Open in
// the layout every engine writes: reopened relations must scan identically
// (joins match the oracle), the layout report must show packed pages and
// the page savings, and Fsck must decode and tally them.
func TestCompressedSaveOpenFsck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.pages")
	rng := rand.New(rand.NewSource(61))
	aCodes := randCodes(rng, 1500, 12)
	dCodes := randCodes(rng, 1500, 12)
	// Sorted codes give small deltas — the density of the layout is what
	// this test asserts on, not just correctness.
	sort.Slice(aCodes, func(i, j int) bool { return aCodes[i] < aCodes[j] })
	sort.Slice(dCodes, func(i, j int) bool { return dCodes[i] < dCodes[j] })
	want := oracle(aCodes, dCodes)
	sortPairs(want)

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
	if err := e.Save(a, d); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, rels, err := Open(Config{Path: path, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	a2, d2 := rels["A"], rels["D"]
	if a2 == nil || d2 == nil {
		t.Fatal("relations missing after reopen")
	}
	li, err := a2.Layout()
	if err != nil {
		t.Fatal(err)
	}
	if li.PackedPages != li.Pages || li.Pages == 0 {
		t.Fatalf("layout = %+v, want all pages packed", li)
	}
	if li.Pages*4 > li.FixedEquivPages {
		t.Fatalf("%d packed pages against %d fixed-equivalent: under 4x denser", li.Pages, li.FixedEquivPages)
	}
	checkJoins(t, e2, a2, d2, want, MHCJ)

	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck not OK: %+v", rep)
	}
	if rep.PackedPages != a2.Pages()+d2.Pages() || rep.FixedPages+rep.VarintPages+rep.UnknownFormatPages != 0 {
		t.Fatalf("fsck format tally = fixed %d / varint %d / packed %d / unknown %d",
			rep.FixedPages, rep.VarintPages, rep.PackedPages, rep.UnknownFormatPages)
	}
}

// TestMixedFormatDatabase keeps one relation of each layout that ever
// reached disk in a single database — the fixed-width pages and the varint
// pages of earlier versions, and packed pages added after a reopen: the
// per-page format byte (no catalog flag, no option) must keep all three
// scannable, joins across formats must agree with the oracle, temporaries
// derived from any of them must work, and Fsck must decode and tally each.
func TestMixedFormatDatabase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.pages")
	rng := rand.New(rand.NewSource(62))
	aCodes := randCodes(rng, 900, 12)
	dCodes := randCodes(rng, 1100, 12)
	wantAD := oracle(aCodes, dCodes)
	wantDA := oracle(dCodes, aCodes)
	sortPairs(wantAD)
	sortPairs(wantDA)

	// Phase 1: what earlier versions wrote — A fixed-width, V (D's codes)
	// in the varint layout of their Compress option.
	e, err := NewEngine(Config{Path: path, PageSize: 512, BufferPages: 32, PaperLayout: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Load("A", aCodes)
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Load("V", dCodes)
	if err != nil {
		t.Fatal(err)
	}
	asVarint(t, e, v)
	if err := e.Save(a, v); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: reopen writable and add D, packed like everything written now.
	e2, rels, err := Open(Config{Path: path, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	d, err := e2.Load("D", dCodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Save(rels["A"], rels["V"], d); err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 3: the mixed database serves joins and passes fsck.
	e3, rels3, err := Open(Config{Path: path, BufferPages: 32, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	a3, v3, d3 := rels3["A"], rels3["V"], rels3["D"]
	pure := func(r *Relation, format func(relation.LayoutInfo) int64) {
		t.Helper()
		li, err := r.Layout()
		if err != nil {
			t.Fatal(err)
		}
		if format(li) != li.Pages || li.Pages == 0 {
			t.Fatalf("%s: layout %+v is not the one format it was written in", r.Name(), li)
		}
	}
	pure(a3, func(li relation.LayoutInfo) int64 { return li.FixedPages })
	pure(v3, func(li relation.LayoutInfo) int64 { return li.VarintPages })
	pure(d3, func(li relation.LayoutInfo) int64 { return li.PackedPages })
	if !(d3.Pages() < v3.Pages() && v3.Pages() < a3.Pages()*1100/900) {
		t.Fatalf("pages: fixed A %d, varint V %d, packed D %d", a3.Pages(), v3.Pages(), d3.Pages())
	}
	algs := []Algorithm{Auto, MHCJ, VPJ, StackTree, MPMGJN}
	checkJoins(t, e3, a3, d3, wantAD, algs...)
	checkJoins(t, e3, a3, v3, wantAD, algs...)
	checkJoins(t, e3, v3, a3, wantDA, algs...)

	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck not OK: %+v", rep)
	}
	if rep.FixedPages != a3.Pages() || rep.VarintPages != v3.Pages() || rep.PackedPages != d3.Pages() || rep.UnknownFormatPages != 0 {
		t.Fatalf("fsck format tally = fixed %d / varint %d / packed %d / unknown %d for relations of %d / %d / %d pages",
			rep.FixedPages, rep.VarintPages, rep.PackedPages, rep.UnknownFormatPages, a3.Pages(), v3.Pages(), d3.Pages())
	}
}

// TestLoadOverMixedFormats is an ingest commit on top of a database an
// earlier version wrote: LoadOver shares the old relation's fixed-width
// prefix by page ID and appends a packed suffix, so one relation holds both
// layouts; after a reopen its packed tail is resumed by a plain append, and
// a second LoadOver shares fixed and packed pages alike. At every step the
// joins equal the oracle and fsck decodes every page.
func TestLoadOverMixedFormats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.pages")
	rng := rand.New(rand.NewSource(63))
	sorted := func(n int) []pbicode.Code {
		codes := randCodes(rng, n, 16)
		slices.Sort(codes)
		return slices.Compact(codes)
	}
	all := sorted(4000)
	aCodes := all[:1200]
	dCodes := sorted(1500)

	e, err := NewEngine(Config{Path: path, PageSize: 512, BufferPages: 32, PaperLayout: true})
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
	if err := e.Save(a, d); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(e *Engine, a, d *Relation, aCodes []pbicode.Code, fixed, packed bool) {
		t.Helper()
		li, err := a.Layout()
		if err != nil {
			t.Fatal(err)
		}
		if (li.FixedPages > 0) != fixed || (li.PackedPages > 0) != packed || li.Records != int64(len(aCodes)) {
			t.Fatalf("layout %+v, want fixed pages %v, packed pages %v, %d records", li, fixed, packed, len(aCodes))
		}
		want := oracle(aCodes, dCodes)
		sortPairs(want)
		checkJoins(t, e, a, d, want, Auto, MHCJRollup, VPJ, StackTree, MPMGJN)
	}
	reopen := func() (*Engine, *Relation, *Relation) {
		t.Helper()
		rep, err := Fsck(path)
		if err != nil || !rep.OK() {
			t.Fatalf("fsck: %v, %+v", err, rep)
		}
		e, rels, err := Open(Config{Path: path, BufferPages: 32})
		if err != nil {
			t.Fatal(err)
		}
		return e, rels["A"], rels["D"]
	}

	// Commit 1: 800 more codes at the end. All of A's closed pages are
	// shared as they are; the rest is packed.
	e, a, d = reopen()
	aCodes = all[:2000]
	a1, err := loadOverList(t, e, a, "A", aCodes)
	if err != nil {
		t.Fatal(err)
	}
	if a1.SharedPages() != a.Pages()-1 {
		t.Fatalf("shared %d of A's %d fixed pages, want all but the tail", a1.SharedPages(), a.Pages())
	}
	check(e, a1, d, aCodes, true, true)
	if err := e.Save(a1, d); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// After a reopen the packed tail takes plain appends.
	e, a, d = reopen()
	pages := a.Pages()
	for i, c := range all[2000:2010] {
		if err := a.rel.Append(relation.Rec{Code: c, Aux: uint64(2000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	aCodes = all[:2010]
	if a.Pages() != pages {
		t.Fatalf("10 records after a reopen grew A from %d to %d pages: tail not resumed", pages, a.Pages())
	}
	check(e, a, d, aCodes, true, true)

	// Commit 2 shares across the format boundary: every fixed page and the
	// closed packed ones.
	aCodes = all
	a2, err := loadOverList(t, e, a, "A", aCodes)
	if err != nil {
		t.Fatal(err)
	}
	if a2.SharedPages() != a.Pages()-1 {
		t.Fatalf("shared %d of %d pages, want all but the tail", a2.SharedPages(), a.Pages())
	}
	check(e, a2, d, aCodes, true, true)
	if err := e.Save(a2, d); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, a, d = reopen()
	check(e, a, d, aCodes, true, true)
	e.Close()
}
