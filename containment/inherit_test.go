package containment

import (
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/pbitree/pbitree/pbicode"
)

// TestInheritAdoptsSameBytes: an engine opened on a database that stores a
// relation anew with the same records — what a compaction does, at other
// page IDs — inherits the pages its predecessor held resident, and none of
// a relation of the same name and shape whose records differ. Its joins
// answer as a fresh engine's do, reading only what it did not inherit.
func TestInheritAdoptsSameBytes(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	aCodes, dCodes := randCodes(rng, 400, 14), randCodes(rng, 400, 14)
	other := randCodes(rng, len(dCodes), 14)
	save := func(path string, rels map[string][]pbicode.Code, order ...string) {
		// The fixed layout: as many records on as many pages, whatever
		// the codes.
		e, err := NewEngine(Config{Path: path, PageSize: 512, BufferPages: 16, PaperLayout: true})
		if err != nil {
			t.Fatal(err)
		}
		var loaded []*Relation
		for _, name := range order {
			r, err := e.Load(name, rels[name])
			if err != nil {
				t.Fatal(err)
			}
			loaded = append(loaded, r)
		}
		if err := e.Save(loaded...); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	p1, p2 := filepath.Join(dir, "one.pbidb"), filepath.Join(dir, "two.pbidb")
	save(p1, map[string][]pbicode.Code{"A": aCodes, "D": dCodes}, "A", "D")
	// In the second database Z comes first, so A's pages sit at other IDs,
	// and D holds other codes.
	save(p2, map[string][]pbicode.Code{"Z": dCodes[:50], "A": aCodes, "D": other}, "Z", "A", "D")

	open := func(path string) (*Engine, map[string]*Relation) {
		e, rels, err := Open(Config{Path: path, BufferPages: 64, ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e, rels
	}
	old, oldRels := open(p1)
	if _, err := old.Join(oldRels["A"], oldRels["D"], JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	warm, warmRels := open(p2)
	fresh, freshRels := open(p2)
	n := warm.Inherit(old)
	if want := int(warmRels["A"].Pages()); n != want {
		t.Fatalf("inherited %d pages, want A's %d", n, want)
	}
	for _, id := range warmRels["D"].rel.Pages() {
		if _, ok := warm.pool.Peek(id); ok {
			t.Fatalf("inherited page %d of D, which holds other records", id)
		}
	}
	got, err := warm.Join(warmRels["A"], warmRels["D"], JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Join(freshRels["A"], freshRels["D"], JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != want.Count {
		t.Fatalf("after inheriting, %d pairs; a fresh engine finds %d", got.Count, want.Count)
	}
	if got.IO.Reads >= want.IO.Reads {
		t.Fatalf("after inheriting, %d reads; a fresh engine needs %d", got.IO.Reads, want.IO.Reads)
	}
}
