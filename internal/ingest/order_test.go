package ingest

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// rootSlots returns the collection root's slot range.
func rootSlots(t *testing.T, s *Store) xmltree.SlotInfo {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	si, err := s.forest.Slots(s.forest.Root)
	if err != nil {
		t.Fatal(err)
	}
	return si
}

// rootSlot returns the root slot the named document's root takes.
func rootSlot(t *testing.T, s *Store, name string) uint64 {
	t.Helper()
	si := rootSlots(t, s)
	s.mu.Lock()
	defer s.mu.Unlock()
	alpha, level := s.byName[name].root.Code.TopDown(s.forest.Height)
	if level != si.Level {
		t.Fatalf("%s's root is at level %d, the root's slots at %d", name, level, si.Level)
	}
	return alpha - si.Base
}

// elementCodes returns the code of every element below the collection
// root, by identity.
func elementCodes(s *Store) map[*xmltree.Element]pbicode.Code {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[*xmltree.Element]pbicode.Code{}
	s.forest.Walk(func(e *xmltree.Element) bool {
		if e != s.forest.Root {
			out[e] = e.Code
		}
		return true
	})
	return out
}

// TestChurnKeepsDocumentOrder: documents are inserted one batch at a
// time, every fifth batch replacing an earlier document (delete_doc and
// insert_doc in one batch, the ingest_mix write), under the gap-aware
// coder, from a base whose collection root is full. Next-fit puts each new
// document after every live one and the root grows whenever that runs past
// its range, so through four grows and no re-encode every stored tag
// relation is in document order and claims it, every epoch is Fsck-clean,
// and its joins answer what the nested-loop oracle counts.
func TestChurnKeepsDocumentOrder(t *testing.T) {
	base := buildBaseDB(t, t.TempDir(), libraryDocs(4, 8))
	s, err := Open(Config{DBPath: base, GapAware: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	rng := rand.New(rand.NewSource(41))
	var live []string
	for i := 0; i < 40; i++ {
		var ops []Op
		if i%5 == 4 {
			j := rng.Intn(len(live))
			ops = append(ops, Op{Op: "delete_doc", Doc: live[j]})
			live = slices.Delete(live, j, j+1)
		}
		name := fmt.Sprintf("w%03d", i)
		ops = append(ops, Op{Op: "insert_doc", Doc: name, XML: smallDoc})
		live = append(live, name)
		if _, err := s.Apply(ops); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}

		what := fmt.Sprintf("after batch %d", i)
		_, path := s.CurrentEpoch()
		rep, err := containment.Fsck(path)
		if err != nil {
			t.Fatalf("%s: fsck: %v", what, err)
		}
		if !rep.OK() {
			t.Fatalf("%s: fsck not clean: %+v", what, rep)
		}
		eng, rels := openEpoch(t, path)
		for name, r := range rels {
			if !strings.HasPrefix(name, relPrefix) {
				continue
			}
			codes, err := r.Codes()
			if err != nil {
				t.Fatal(err)
			}
			if !r.Ordered() || !slices.IsSortedFunc(codes, func(a, b pbicode.Code) int { return cmp.Compare(a.Start(), b.Start()) }) {
				t.Fatalf("%s: %s is not stored in document order (Ordered() %v)", what, name, r.Ordered())
			}
		}
		checkEpochAnswers(t, what, eng, rels, forestTagCodes(s))
		eng.Close()
	}
	if st := s.Stats(); st.RootGrows < 4 || st.RenumbersGlobal != 0 || st.RenumbersScoped != 0 || st.OverflowInserts != 0 {
		t.Fatalf("the churn was not what the test set out to build: %+v", st)
	}
}

// TestRootSlotOrder pins the slot each document takes at the collection
// root: next-fit to the end of its range; then, with freed slots left
// behind as holes, a grow — a PBiTree level above the root, which doubles
// the range and moves no other code — and next-fit on in the new half. A
// global re-encode comes only for a document too deep for the root's
// slots, or from a forest at pbicode.MaxHeight.
func TestRootSlotOrder(t *testing.T) {
	open := func(docs map[string]string) (*Store, func(del ...string) string) {
		s, err := Open(Config{DBPath: buildBaseDB(t, t.TempDir(), docs), GapAware: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() }) //nolint:errcheck // test teardown
		n := 0
		return s, func(del ...string) string {
			t.Helper()
			var ops []Op
			for _, d := range del {
				ops = append(ops, Op{Op: "delete_doc", Doc: d})
			}
			name := fmt.Sprintf("d%02d", n)
			n++
			if _, err := s.Apply(append(ops, Op{Op: "insert_doc", Doc: name, XML: smallDoc})); err != nil {
				t.Fatal(err)
			}
			return name
		}
	}
	s, insert := open(libraryDocs(5, 2))
	// The base is packed: its root's slots are too shallow for the new
	// document, so the first insert re-encodes the collection, and the six
	// documents take the first slots of a range four times what they need.
	insert()
	si := rootSlots(t, s)
	if st := s.Stats(); st.RenumbersGlobal != 1 || st.RootGrows != 0 || si.Capacity != 32 || si.Used.Next() != 6 {
		t.Fatalf("after the re-encode: %d slots, next %d, %+v; want 32, 6, one global renumber", si.Capacity, si.Used.Next(), st)
	}
	var names []string
	for slot := si.Used.Next(); slot < si.Capacity; slot++ {
		name := insert()
		if got := rootSlot(t, s, name); got != slot {
			t.Fatalf("next-fit: %s took slot %d, want %d", name, got, slot)
		}
		names = append(names, name)
	}
	// The range is full to its end. The batch that frees two slots in it
	// grows the root instead of reusing them, and every element the batch
	// leaves in place keeps its code.
	before, height := elementCodes(s), s.Stats().TreeHeight
	name := insert(names[3], names[1])
	grown := rootSlots(t, s)
	if st := s.Stats(); st.RootGrows != 1 || st.RenumbersGlobal != 1 || st.TreeHeight != height+1 ||
		grown.Capacity != 2*si.Capacity || grown.Level != si.Level+1 {
		t.Fatalf("the grow: %d slots at level %d, %+v; want %d at %d, height %d, one grow, no second renumber",
			grown.Capacity, grown.Level, st, 2*si.Capacity, si.Level+1, height+1)
	}
	if got := rootSlot(t, s, name); got != si.Capacity {
		t.Fatalf("after the grow: took slot %d, want %d", got, si.Capacity)
	}
	after := elementCodes(s)
	kept := 0
	for e, c := range before {
		if now, ok := after[e]; ok {
			kept++
			if now != c {
				t.Fatalf("the grow moved %s from %v to %v", e.Tag, c, now)
			}
		}
	}
	if want := len(before) - 2*12; kept != want {
		t.Fatalf("%d elements kept through the batch, want %d", kept, want)
	}
	for slot := si.Capacity + 1; slot < si.Capacity+4; slot++ {
		if got := rootSlot(t, s, insert()); got != slot {
			t.Fatalf("next-fit in the new half: took slot %d, want %d", got, slot)
		}
	}
	if st := s.Stats(); st.RootGrows != 1 || st.RenumbersGlobal != 1 || st.OverflowInserts != 0 {
		t.Fatalf("after next-fit in the new half: %+v", st)
	}

	// A 60-element chain puts the forest two levels below MaxHeight with
	// its two-slot root range full: two grows reach MaxHeight, and once
	// that range is full too, the next insert re-encodes, packing the
	// documents the batch leaves.
	s, insert = open(map[string]string{
		"deep": strings.Repeat("<x>", 60) + strings.Repeat("</x>", 60),
		"lib":  libraryDocs(1, 1)["lib00"],
	})
	if st := s.Stats(); st.TreeHeight != pbicode.MaxHeight-2 {
		t.Fatalf("the deep base is %d high, want %d", st.TreeHeight, pbicode.MaxHeight-2)
	}
	names = names[:0]
	for range 6 {
		names = append(names, insert())
	}
	if st, si := s.Stats(), rootSlots(t, s); st.RootGrows != 2 || st.RenumbersGlobal != 0 || st.TreeHeight != pbicode.MaxHeight ||
		si.Used.Next() != si.Capacity {
		t.Fatalf("at MaxHeight: next %d of %d slots, %+v; want a full range, two grows, no renumber", si.Used.Next(), si.Capacity, st)
	}
	insert(names[:5]...)
	if st, si := s.Stats(), rootSlots(t, s); st.RootGrows != 2 || st.RenumbersGlobal != 1 || st.TreeHeight >= pbicode.MaxHeight ||
		si.Used.Len() != 4 || si.Used.Next() != 4 {
		t.Fatalf("a full range at MaxHeight: %d of %d slots taken, next %d, %+v; want one re-encode packing the four documents",
			si.Used.Len(), si.Capacity, si.Used.Next(), st)
	}
	assertStoreMatchesEpoch(t, s)
}
