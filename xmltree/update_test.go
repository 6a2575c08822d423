package xmltree

import (
	"errors"
	"slices"
	"testing"

	"github.com/pbitree/pbitree/pbicode"
)

// checkInvariants verifies codes are unique, indexed, and ancestry-true.
func checkInvariants(t *testing.T, d *Document) {
	t.Helper()
	seen := map[pbicode.Code]bool{}
	n := 0
	d.Walk(func(e *Element) bool {
		n++
		if seen[e.Code] {
			t.Fatalf("duplicate code %v (%s)", e.Code, e.Tag)
		}
		seen[e.Code] = true
		if d.ByCode(e.Code) != e {
			t.Fatalf("index broken for %v", e.Code)
		}
		if e.Parent != nil && !pbicode.IsAncestor(e.Parent.Code, e.Code) {
			t.Fatalf("%v not under its parent %v", e.Code, e.Parent.Code)
		}
		return true
	})
	if n != d.NumElements() {
		t.Fatalf("count %d, walked %d", d.NumElements(), n)
	}
	checkSlots(t, d)
}

// checkSlots holds every SlotSet the document keeps to a walk of its
// parent's children.
func checkSlots(t testing.TB, d *Document) {
	t.Helper()
	for parent, taken := range d.slots {
		if d.ByCode(parent.Code) != parent {
			t.Fatalf("slot set kept for %v, no longer in the document", parent.Code)
		}
		var want []uint64
		if len(parent.Children) > 0 {
			pAlpha, pLevel := parent.Code.TopDown(d.Height)
			base := pAlpha << uint(parent.Children[0].Code.Level(d.Height)-pLevel)
			for _, c := range parent.Children {
				alpha, _ := c.Code.TopDown(d.Height)
				want = append(want, alpha-base)
			}
			slices.Sort(want)
		}
		if !slices.Equal(taken, want) {
			t.Fatalf("slot set of %v is %v, its children take %v", parent.Code, taken, want)
		}
	}
}

// graftSubtree grafts root under parent the way the naive ingest coder
// does: at the slot after the highest taken one, or else at the lowest
// free one.
func graftSubtree(d *Document, parent, root *Element, headroom int) error {
	si, err := d.Slots(parent)
	if err != nil {
		return err
	}
	slot := si.Used.Next()
	if slot >= si.Capacity {
		var ok bool
		if slot, ok = si.Used.FirstFree(0, si.Capacity); !ok {
			return ErrNoFreeSlot
		}
	}
	return d.InsertSubtreeSlot(parent, root, headroom, slot)
}

func TestInsertChildUsesVirtualSlots(t *testing.T) {
	// Three children placed in a 4-slot range: one insert must succeed
	// without changing any code, the next must fail.
	doc, err := ParseString(`<r><a/><b/><c/></r>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oldCodes := map[string]pbicode.Code{}
	doc.Walk(func(e *Element) bool { oldCodes[e.Tag] = e.Code; return true })

	e, err := doc.InsertChild(doc.Root, "d")
	if err != nil {
		t.Fatal(err)
	}
	if e.Code == 0 || !pbicode.IsAncestor(doc.Root.Code, e.Code) {
		t.Fatalf("bad new code %v", e.Code)
	}
	for tag, c := range oldCodes {
		if doc.Elements(tag)[0].Code != c {
			t.Fatalf("existing code of %s changed", tag)
		}
	}
	checkInvariants(t, doc)
	if len(doc.Elements("d")) != 1 {
		t.Fatal("new element not indexed")
	}

	// The 4-slot range is now full.
	if _, err := doc.InsertChild(doc.Root, "e"); !errors.Is(err, ErrNoFreeSlot) {
		t.Fatalf("insert into full range: %v", err)
	}

	// Re-encoding makes room again.
	if err := doc.Reencode(1); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, doc)
	if _, err := doc.InsertChild(doc.Root, "e"); err != nil {
		t.Fatalf("insert after reencode: %v", err)
	}
	checkInvariants(t, doc)
}

func TestInsertUnderLeaf(t *testing.T) {
	doc, err := ParseString(`<r><leaf/></r>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	leaf := doc.Elements("leaf")[0]
	// A childless element opens two slots one level down — if the tree
	// has that level. Height here is 2 (root + leaf), so the leaf is at
	// the bottom: insertion must fail, then succeed after re-encoding
	// grows the tree.
	if leaf.Code.Height() == 0 {
		if _, err := doc.InsertChild(leaf, "x"); !errors.Is(err, ErrNoFreeSlot) {
			t.Fatalf("insert below bottom: %v", err)
		}
		leaf.Children = append(leaf.Children, &Element{Tag: "x", Parent: leaf})
		if err := doc.Reencode(1); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, doc)
		return
	}
	t.Fatal("unexpected geometry")
}

func TestInsertDeeperDocument(t *testing.T) {
	doc, err := ParseString(`<r><s><t/></s><s/></r>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := doc.Elements("s")[1]
	// s2 is childless but the tree has depth below it.
	child, err := doc.InsertChild(s2, "u")
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, doc)
	// The new element supports further insertion below it while levels
	// remain.
	if child.Code.Height() > 0 {
		if _, err := doc.InsertChild(child, "v"); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, doc)
	}
	// Second child of s2 fills its 2-slot range.
	if _, err := doc.InsertChild(s2, "w"); err != nil {
		t.Fatal(err)
	}
	if _, err := doc.InsertChild(s2, "x"); !errors.Is(err, ErrNoFreeSlot) {
		t.Fatalf("third child under 2-slot parent: %v", err)
	}
}

func TestInsertErrors(t *testing.T) {
	doc, _ := ParseString(`<r/>`, Options{})
	other, _ := ParseString(`<q/>`, Options{})
	if _, err := doc.InsertChild(nil, "x"); err == nil {
		t.Fatal("nil parent accepted")
	}
	if _, err := doc.InsertChild(other.Root, "x"); err == nil {
		t.Fatal("foreign parent accepted")
	}
}

func TestDelete(t *testing.T) {
	doc, err := ParseString(`<r><a><b/><c/></a><a/></r>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := doc.Elements("a")[0]
	before := doc.NumElements()
	if err := doc.Delete(first); err != nil {
		t.Fatal(err)
	}
	if doc.NumElements() != before-3 { // a, b, c gone
		t.Fatalf("count = %d", doc.NumElements())
	}
	if len(doc.Elements("a")) != 1 || len(doc.Elements("b")) != 0 {
		t.Fatal("indexes not updated")
	}
	checkInvariants(t, doc)
	// Freed slots are reusable.
	if _, err := doc.InsertChild(doc.Root, "z"); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, doc)
	// Errors.
	if err := doc.Delete(doc.Root); err == nil {
		t.Fatal("root delete accepted")
	}
	if err := doc.Delete(first); err == nil {
		t.Fatal("double delete accepted")
	}
	if err := doc.Delete(nil); err == nil {
		t.Fatal("nil delete accepted")
	}
}

func TestInsertedElementsJoinCorrectly(t *testing.T) {
	doc, err := ParseString(`<lib><shelf><book/></shelf><shelf/></lib>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := doc.Elements("shelf")[1]
	if _, err := doc.InsertChild(s2, "book"); err != nil {
		t.Fatal(err)
	}
	// Both books are under exactly one shelf each via Lemma 1.
	books := doc.Codes("book")
	shelves := doc.Codes("shelf")
	pairs := 0
	for _, b := range books {
		for _, s := range shelves {
			if pbicode.IsAncestor(s, b) {
				pairs++
			}
		}
	}
	if pairs != 2 {
		t.Fatalf("join pairs = %d, want 2", pairs)
	}
}

// TestSlotsAfterRenumber: a scoped renumber packs a parent's children
// afresh, so the slot set the document kept for the parent does not
// survive it.
func TestSlotsAfterRenumber(t *testing.T) {
	doc, err := ParseString(`<r><a><p/><q/><s/></a><b><c><d><e><f/></e></d></c></b></r>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := doc.Elements("a")[0]
	if _, err := doc.Slots(a); err != nil {
		t.Fatal(err)
	}
	if err := doc.Delete(doc.Elements("p")[0]); err != nil {
		t.Fatal(err)
	}
	if err := doc.RenumberSubtree(a, 1); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, doc)
	si, err := doc.Slots(a)
	if err != nil {
		t.Fatal(err)
	}
	if si.Used.Len() != 2 || !si.Used.Has(0) || si.Used.Next() != 2 {
		t.Fatalf("after the renumber a's slots are %v, want 0 and 1", si.Used)
	}
}
