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

// TestChurnKeepsDocumentOrder: documents are inserted one batch at a
// time, every fifth batch replacing an earlier document (delete_doc and
// insert_doc in one batch, the ingest_mix write), under the gap-aware
// coder. Next-fit puts each new document after every live one, so until
// the collection root's primary region wraps — through the global
// re-encode the base's packed root forces first — every stored tag
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
	commits := 0
	for i := 0; ; i++ {
		if si := rootSlots(t, s); si.Used.Next() >= si.Capacity-si.Capacity/4 && si.Used.Len() < int(si.Capacity) {
			break // the next insert takes a slot before the last document's
		}
		if i == 200 {
			t.Fatal("the primary region never wrapped")
		}
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
		commits++

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
	if st := s.Stats(); commits < 20 || st.RenumbersGlobal == 0 || st.OverflowInserts != 0 {
		t.Fatalf("the churn was not what the test set out to build: %d commits, %+v", commits, st)
	}
}

// TestRootSlotOrder drives a small collection root to exhaustion and pins
// the slot each document takes: next-fit up to the end of the primary
// region, then first-fit within it, then the overflow quarter, then a
// global re-encode. Only the slots of the overflow quarter count as
// overflow inserts.
func TestRootSlotOrder(t *testing.T) {
	base := buildBaseDB(t, t.TempDir(), libraryDocs(5, 2))
	s, err := Open(Config{DBPath: base, GapAware: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	n := 0
	insert := func(del ...string) string {
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
	// The base is packed: its free root slots are too shallow for a
	// document binarized with headroom, so the first insert re-encodes the
	// collection, and the six documents take the first slots of a range
	// four times what they need.
	insert()
	si := rootSlots(t, s)
	if st := s.Stats(); st.RenumbersGlobal != 1 || si.Capacity != 32 || si.Used.Next() != 6 {
		t.Fatalf("after the re-encode: %d slots, next %d, %+v; want 32, 6, one global renumber", si.Capacity, si.Used.Next(), st)
	}
	primary := si.Capacity - si.Capacity/4
	var names []string
	for slot := si.Used.Next(); slot < primary; slot++ {
		name := insert()
		if got := rootSlot(t, s, name); got != slot {
			t.Fatalf("next-fit: %s took slot %d, want %d", name, got, slot)
		}
		names = append(names, name)
	}
	// The primary region is full to its end: freed slots in it are taken
	// lowest first, before any of the overflow quarter.
	low, high := rootSlot(t, s, names[1]), rootSlot(t, s, names[3])
	if got := rootSlot(t, s, insert(names[3], names[1])); got != low {
		t.Fatalf("first-fit: took slot %d, want %d", got, low)
	}
	if got := rootSlot(t, s, insert()); got != high {
		t.Fatalf("first-fit: took slot %d, want %d", got, high)
	}
	if st := s.Stats(); st.OverflowInserts != 0 {
		t.Fatalf("%d overflow inserts before the primary region filled", st.OverflowInserts)
	}
	for slot := primary; slot < si.Capacity; slot++ {
		if got := rootSlot(t, s, insert()); got != slot {
			t.Fatalf("overflow: took slot %d, want %d", got, slot)
		}
		if st := s.Stats(); st.OverflowInserts != slot-primary+1 {
			t.Fatalf("after slot %d: %d overflow inserts, want %d", slot, st.OverflowInserts, slot-primary+1)
		}
	}
	insert()
	if st := s.Stats(); st.RenumbersGlobal != 2 || st.OverflowInserts != si.Capacity-primary {
		t.Fatalf("a full root: %+v; want a second global renumber and %d overflow inserts", st, si.Capacity-primary)
	}
}
