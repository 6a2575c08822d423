package containment

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/pbicode"
)

// pageImages reads the given pages through the engine's pool.
func pageImages(t *testing.T, e *Engine, ids []storage.PageID) [][]byte {
	t.Helper()
	out := make([][]byte, len(ids))
	for i, id := range ids {
		f, err := e.pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = bytes.Clone(f.Data)
		e.pool.Unpin(f, false)
	}
	return out
}

// closedPagesWithin is the test's own statement of what LoadOver may share:
// the leading pages of old, never the last, that lie wholly inside the
// first common records of old and new — counted from old's per-page record
// counts, read one page at a time.
func closedPagesWithin(t *testing.T, old *Relation, common int) int {
	t.Helper()
	pages, recs := 0, 0
	for ; pages < int(old.Pages())-1; pages++ {
		s := old.rel.BatchScanPages(pages, pages+1)
		n := 0
		for s.Next() {
			n += len(s.Codes())
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		if recs+n > common {
			break
		}
		recs += n
	}
	return pages
}

// loadOverList is LoadOver for a caller holding the whole new list: old's
// records that codes repeats from the start are the ones kept.
func loadOverList(t testing.TB, e *Engine, old *Relation, name string, codes []pbicode.Code) (*Relation, error) {
	t.Helper()
	from := commonPrefix(t, old, codes)
	return e.LoadOver(old, name, from, codes[from:])
}

// commonPrefix is how many of old's records, in storage order, codes
// repeats from the start (0 for a nil old).
func commonPrefix(t testing.TB, old *Relation, codes []pbicode.Code) int {
	t.Helper()
	if old == nil {
		return 0
	}
	oc, err := old.Codes()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for n < len(oc) && n < len(codes) && oc[n] == codes[n] {
		n++
	}
	return n
}

// TestLoadOverMatchesLoad is the loader's property test: for random code
// sequences and random edits, in both layouts an engine writes and at page
// sizes where a page holds 3 and 255 fixed records, LoadOver(old, …) stores
// exactly what a plain Load stores — records, ordinals, span, height
// statistics — while sharing exactly the closed pages inside the common
// prefix, as the compare-based SharedPrefix finds them, and writing to no
// page old owns. The caller's from is the common prefix or anything below
// it, and old comes with and without the per-page statistics LoadOver
// keeps and with an unknown height mask, as an earlier catalog leaves it.
func TestLoadOverMatchesLoad(t *testing.T) {
	edits := []struct {
		name string
		edit func(rng *rand.Rand, old []pbicode.Code) []pbicode.Code
	}{
		{"identical", func(_ *rand.Rand, old []pbicode.Code) []pbicode.Code { return slices.Clone(old) }},
		{"append", func(rng *rand.Rand, old []pbicode.Code) []pbicode.Code {
			return append(slices.Clone(old), randCodes(rng, 1+rng.Intn(40), 20)...)
		}},
		{"delete-middle", func(rng *rand.Rand, old []pbicode.Code) []pbicode.Code {
			if len(old) == 0 {
				return nil
			}
			i := rng.Intn(len(old))
			return slices.Delete(slices.Clone(old), i, min(len(old), i+1+rng.Intn(5)))
		}},
		{"insert-middle", func(rng *rand.Rand, old []pbicode.Code) []pbicode.Code {
			return slices.Insert(slices.Clone(old), rng.Intn(len(old)+1), randCodes(rng, 1+rng.Intn(5), 20)...)
		}},
		{"replace-tail", func(rng *rand.Rand, old []pbicode.Code) []pbicode.Code {
			keep := rng.Intn(len(old) + 1)
			return append(slices.Clone(old[:keep]), randCodes(rng, rng.Intn(60), 20)...)
		}},
		{"strict-prefix-of-old", func(rng *rand.Rand, old []pbicode.Code) []pbicode.Code {
			return slices.Clone(old[:rng.Intn(len(old)+1)])
		}},
		{"empty-new", func(*rand.Rand, []pbicode.Code) []pbicode.Code { return nil }},
		{"unrelated", func(rng *rand.Rand, old []pbicode.Code) []pbicode.Code {
			return randCodes(rng, len(old), 20)
		}},
	}
	// compress=true is the packed layout every engine writes, compress=false
	// the paper's fixed-width one.
	for _, compress := range []bool{false, true} {
		for _, pageSize := range []int{8 + 3*16, 4096} {
			t.Run(fmt.Sprintf("compress=%v/page=%d", compress, pageSize), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(pageSize)))
				perPage := (pageSize - 8) / 16
				var shared int64
				for _, n := range []int{0, 1, perPage, 4*perPage + 1, 7 * perPage} {
					for _, ed := range edits {
						// Three generations, each loaded over the last, so that
						// relations LoadOver produced are themselves loaded over.
						e, err := NewEngine(Config{PageSize: pageSize, BufferPages: 16, PaperLayout: !compress})
						if err != nil {
							t.Fatal(err)
						}
						codes := randCodes(rng, n, 20)
						if n == perPage {
							codes = randCodesFixedHeight(n, 2, 20) // a single-height set
						}
						old, err := e.Load("R", codes)
						if err != nil {
							t.Fatal(err)
						}
						for gen := 0; gen < 3; gen++ {
							next := ed.edit(rng, codes)
							from := commonPrefix(t, old, next)
							what := fmt.Sprintf("n=%d %s gen %d", n, ed.name, gen)
							switch rng.Intn(4) {
							case 0:
								from = rng.Intn(from + 1)
								what += fmt.Sprintf(" from %d", from)
							case 1:
								old.stats = nil // attached from a catalog
								what += " no stats"
							case 2:
								old.stats, old.heights = nil, 0 // an earlier catalog's entry
								what += " no mask"
							}
							old = checkLoadOver(t, e, old, next, from, what)
							codes = next
							shared += old.SharedPages()
						}
						e.Close()
					}
				}
				if shared == 0 {
					t.Fatal("no case shared a page: the property was never exercised")
				}
			})
		}
	}
}

// checkLoadOver loads next over old, keeping old's first from records,
// compares the result with a plain Load of next into an engine of its own,
// and returns it.
func checkLoadOver(t *testing.T, e *Engine, old *Relation, next []pbicode.Code, from int, what string) *Relation {
	t.Helper()
	oldPages := old.rel.Pages()
	before := pageImages(t, e, oldPages)
	oldRecs, err := old.rel.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := old.SharedPrefix(next)
	if err != nil {
		t.Fatal(err)
	}

	got, err := e.LoadOver(old, "R", from, next[from:])
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	ref, err := NewEngine(Config{PageSize: e.cfg.PageSize, BufferPages: 16, PaperLayout: e.cfg.PaperLayout})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := ref.Load("R", next)
	if err != nil {
		t.Fatal(err)
	}

	gotRecs, err := got.rel.ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	wantRecs, err := want.rel.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotRecs, wantRecs) {
		t.Fatalf("%s: records differ from a plain Load (%d vs %d records)", what, len(gotRecs), len(wantRecs))
	}
	gotCodes, err := got.Codes()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotCodes, next) {
		t.Fatalf("%s: Codes() is not the loaded sequence", what)
	}
	if got.Len() != want.Len() || got.Len() != int64(len(next)) {
		t.Fatalf("%s: Len %d, plain Load %d, loaded %d", what, got.Len(), want.Len(), len(next))
	}
	ge, we := got.entry(), want.entry()
	ge.Pages, we.Pages = nil, nil
	if !reflect.DeepEqual(ge, we) {
		t.Fatalf("%s: catalog entry %+v, plain Load's %+v", what, ge, we)
	}
	if got.rel.PaperLayout() != want.rel.PaperLayout() {
		t.Fatalf("%s: PaperLayout %v, plain Load %v", what, got.rel.PaperLayout(), want.rel.PaperLayout())
	}
	if e.TreeHeight() < ref.TreeHeight() {
		t.Fatalf("%s: tree height %d below a plain Load's %d", what, e.TreeHeight(), ref.TreeHeight())
	}
	// The per-page statistics the result keeps are what decoding its pages
	// gives.
	if kept := got.stats; len(kept) > 0 {
		fresh := &Relation{rel: got.rel}
		for k := 1; k <= len(kept); k++ {
			if s, err := fresh.statsThrough(k); err != nil || s != kept[k-1] {
				t.Fatalf("%s: statistics through page %d kept as %+v, decoded %+v (%v)", what, k, kept[k-1], s, err)
			}
		}
	}

	// Shares exactly the closed pages inside the common prefix...
	common := 0
	for common < len(oldRecs) && common < len(next) && oldRecs[common] == wantRecs[common] {
		common++
	}
	wantShared := closedPagesWithin(t, old, common)
	gotPages := got.rel.Pages()
	if int(got.SharedPages()) != wantShared || got.SharedPages() != oracle {
		t.Fatalf("%s: shares %d pages, want %d, SharedPrefix %d (old has %d pages, %d common records)",
			what, got.SharedPages(), wantShared, oracle, len(oldPages), common)
	}
	if !slices.Equal(gotPages[:wantShared], oldPages[:wantShared]) {
		t.Fatalf("%s: shared pages %v are not old's leading pages %v", what, gotPages[:wantShared], oldPages[:wantShared])
	}
	// ...and owns the rest: no other page of old is referenced, none written.
	for _, id := range gotPages[wantShared:] {
		if slices.Contains(oldPages, id) {
			t.Fatalf("%s: new page %d belongs to old", what, id)
		}
	}
	for i, img := range pageImages(t, e, oldPages) {
		if !bytes.Equal(img, before[i]) {
			t.Fatalf("%s: page %d of old was rewritten", what, oldPages[i])
		}
	}
	if again, err := old.rel.ReadAll(); err != nil || !slices.Equal(again, oldRecs) {
		t.Fatalf("%s: old no longer reads back its own records (%v)", what, err)
	}
	return got
}

// TestLoadOverComparesOrdinals: a page is shared only if its records carry
// the ordinals a load would give them. Engine.Sort's copy carries its own
// positions, as a load does, so loading its code sequence over it shares
// its pages below from and stores what a plain Load stores.
func TestLoadOverComparesOrdinals(t *testing.T) {
	e, err := NewEngine(Config{PageSize: 8 + 3*16, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	old, err := e.Load("R", randCodes(rand.New(rand.NewSource(5)), 40, 20))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Sort(old); err != nil {
		t.Fatal(err)
	}
	codes, err := old.Codes()
	if err != nil {
		t.Fatal(err)
	}
	from := len(codes) / 2
	if got := checkLoadOver(t, e, old, codes, from, "sorted old"); got.SharedPages() == 0 {
		t.Fatalf("shared no page of a sorted relation below ordinal %d", from)
	}
}

// TestLoadOverForeignRelation: old must be a relation of the same engine.
func TestLoadOverForeignRelation(t *testing.T) {
	a, _ := NewEngine(Config{})
	b, _ := NewEngine(Config{})
	defer a.Close()
	defer b.Close()
	r, err := a.Load("R", []pbicode.Code{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.LoadOver(r, "R", 3, nil); err == nil {
		t.Fatal("LoadOver accepted a relation of another engine")
	}
	if _, err := a.LoadOver(r, "R", 4, nil); err == nil {
		t.Fatal("LoadOver kept more records than the relation has")
	}
}

// TestLoadOverClaimsOrderAtPageSeam: when the shared pages end exactly at
// the first changed ordinal, LoadOver compares the last shared record with
// the first new one. An ordered relation re-stored so claims order when the
// tail continues it and does not when the tail starts before that record,
// whether the relation kept its per-page statistics or they are decoded.
func TestLoadOverClaimsOrderAtPageSeam(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	codes, _ := docOrdered(t, rng, randCodes(rng, 600, 20))
	codes = slices.Compact(codes)
	for _, keptStats := range []bool{false, true} {
		for _, continues := range []bool{true, false} {
			what := fmt.Sprintf("kept stats %v, tail continues %v", keptStats, continues)
			e, err := NewEngine(Config{PageSize: 512, BufferPages: 16})
			if err != nil {
				t.Fatal(err)
			}
			old, err := e.Load("R", codes)
			if err != nil {
				t.Fatal(err)
			}
			if keptStats {
				// A re-store of the same list keeps its pages' statistics.
				if old, err = e.LoadOver(old, "R", 0, codes); err != nil {
					t.Fatal(err)
				}
				if len(old.stats) != int(old.Pages()) {
					t.Fatalf("%s: %d of %d pages' statistics kept", what, len(old.stats), old.Pages())
				}
			}
			if !old.Ordered() || old.Pages() < 3 {
				t.Fatalf("%s: ordered %v over %d pages", what, old.Ordered(), old.Pages())
			}
			seam, err := old.rel.FirstRecord(2)
			if err != nil {
				t.Fatal(err)
			}
			// Drop the record that opens page 2: pages 0 and 1 are shared,
			// and the tail starts on a page of its own.
			from := int(seam.Aux)
			tail := codes[from+1:]
			if !continues {
				tail = append([]pbicode.Code{codes[from-2]}, tail...)
			}
			got := checkLoadOver(t, e, old, append(slices.Clone(codes[:from]), tail...), from, what)
			if got.SharedPages() != 2 || got.Ordered() != continues {
				t.Fatalf("%s: shares %d pages, ordered %v", what, got.SharedPages(), got.Ordered())
			}
			e.Close()
		}
	}
}
