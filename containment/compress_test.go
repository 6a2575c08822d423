package containment

import (
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
)

// TestCompressedSaveOpenFsck round-trips a database built with
// Config.Compress through Save/Open: the catalog must carry the format
// flag, reopened relations must scan identically (joins match the
// oracle), the layout report must show the page savings, and Fsck must
// verify the compressed pages.
func TestCompressedSaveOpenFsck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.pages")
	rng := rand.New(rand.NewSource(61))
	aCodes := randCodes(rng, 1500, 12)
	dCodes := randCodes(rng, 1500, 12)
	// Sorted codes give small deltas — the layout compression is what
	// this test asserts on, not just correctness.
	sort.Slice(aCodes, func(i, j int) bool { return aCodes[i] < aCodes[j] })
	sort.Slice(dCodes, func(i, j int) bool { return dCodes[i] < dCodes[j] })
	want := oracle(aCodes, dCodes)

	e, err := NewEngine(Config{Path: path, PageSize: 512, BufferPages: 32, Compress: true})
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
	if !a.Compressed() || !d.Compressed() {
		t.Fatal("Config.Compress not honored by Load")
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
	if !a2.Compressed() || !d2.Compressed() {
		t.Fatal("catalog lost the compressed flag")
	}
	li, err := a2.Layout()
	if err != nil {
		t.Fatal(err)
	}
	if li.FixedPages != 0 || li.CompressedPages != li.Pages || li.Pages == 0 {
		t.Fatalf("layout = %+v, want all pages compressed", li)
	}
	if li.Pages >= li.FixedEquivPages {
		t.Fatalf("no page savings: %d compressed vs %d fixed-equivalent", li.Pages, li.FixedEquivPages)
	}
	res, err := e2.Join(a2, d2, JoinOptions{Algorithm: MHCJ, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	sortPairs(res.Pairs)
	if len(res.Pairs) != len(want) {
		t.Fatalf("%d pairs, want %d", len(res.Pairs), len(want))
	}
	for i := range want {
		if res.Pairs[i] != want[i] {
			t.Fatalf("pair %d mismatch", i)
		}
	}

	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck not OK: %+v", rep)
	}
	if rep.CompressedPages == 0 || rep.UnknownFormatPages != 0 {
		t.Fatalf("fsck format tally = fixed %d / compressed %d / unknown %d",
			rep.FixedPages, rep.CompressedPages, rep.UnknownFormatPages)
	}
}

// TestMixedFormatDatabase stores a legacy fixed-width relation and a
// compressed one in a single database: the per-page format byte (not any
// global flag) must keep both scannable, the catalog must round-trip
// each relation's own format, joins across the two formats must agree
// with the oracle, and Fsck must tally both layouts.
func TestMixedFormatDatabase(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.pages")
	rng := rand.New(rand.NewSource(62))
	aCodes := randCodes(rng, 900, 12)
	dCodes := randCodes(rng, 1100, 12)
	want := oracle(aCodes, dCodes)

	// Phase 1: fixed-width A, saved the way a pre-compression binary
	// would have written it.
	e, err := NewEngine(Config{Path: path, PageSize: 512, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Load("A", aCodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Save(a); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: reopen writable with compression on and add D.
	e2, rels, err := Open(Config{Path: path, BufferPages: 32, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := e2.Load("D", dCodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Save(rels["A"], d); err != nil {
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
	a3, d3 := rels3["A"], rels3["D"]
	if a3.Compressed() || !d3.Compressed() {
		t.Fatalf("format flags after reopen: A=%v D=%v", a3.Compressed(), d3.Compressed())
	}
	la, err := a3.Layout()
	if err != nil {
		t.Fatal(err)
	}
	ld, err := d3.Layout()
	if err != nil {
		t.Fatal(err)
	}
	if la.CompressedPages != 0 || ld.FixedPages != 0 {
		t.Fatalf("layouts mixed within relations: A=%+v D=%+v", la, ld)
	}
	for _, alg := range []Algorithm{Auto, MHCJ, VPJ, StackTree} {
		res, err := e3.Join(a3, d3, JoinOptions{Algorithm: alg, Collect: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		sortPairs(res.Pairs)
		if len(res.Pairs) != len(want) {
			t.Fatalf("%v: %d pairs, want %d", alg, len(res.Pairs), len(want))
		}
		for i := range want {
			if res.Pairs[i] != want[i] {
				t.Fatalf("%v: pair %d mismatch", alg, i)
			}
		}
	}

	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck not OK: %+v", rep)
	}
	if rep.FixedPages == 0 || rep.CompressedPages == 0 || rep.UnknownFormatPages != 0 {
		t.Fatalf("fsck format tally = fixed %d / compressed %d / unknown %d",
			rep.FixedPages, rep.CompressedPages, rep.UnknownFormatPages)
	}
}
