package xmltree

import (
	"errors"
	"fmt"
	"slices"
	"strings"
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

// TestGrowRoot: a level added above the root of a collection forest leaves
// every code but the root's, every kept slot set and every tag-index entry
// as it was, doubles the root's slot range with the old slots its first
// half, and is what FromCodes rebuilds from the stored codes at the taller
// height. At pbicode.MaxHeight there is no level to add.
func TestGrowRoot(t *testing.T) {
	col := NewCollection()
	for i, src := range []string{`<a><b/><c><d/></c></a>`, `<a><c/></a>`, `<e><b/><b/><b/></e>`} {
		if err := col.AddDocument(fmt.Sprintf("d%d", i), strings.NewReader(src), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	doc := col.Document()
	codes := map[*Element]pbicode.Code{}
	slots := map[*Element]SlotInfo{}
	doc.Walk(func(e *Element) bool {
		codes[e] = e.Code
		si, err := doc.Slots(e)
		if err != nil {
			t.Fatal(err)
		}
		slots[e] = si
		return true
	})
	tags := map[string][]*Element{}
	for tag := range doc.Tags() {
		tags[tag] = slices.Clone(doc.Elements(tag))
	}
	doc.ResetChanges()
	h := doc.Height

	if err := doc.GrowRoot(); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, doc)
	if doc.Height != h+1 || doc.Root.Code != pbicode.Root(h+1) || doc.ByCode(pbicode.Root(h+1)) != doc.Root {
		t.Fatalf("grown: height %d, root %v; want %d, %v", doc.Height, doc.Root.Code, h+1, pbicode.Root(h+1))
	}
	doc.Walk(func(e *Element) bool {
		si, err := doc.Slots(e)
		if err != nil {
			t.Fatal(err)
		}
		old := slots[e]
		switch {
		case e == doc.Root:
			if si.Level != old.Level+1 || si.Capacity != 2*old.Capacity || si.Base != 0 || si.Depth != old.Depth ||
				!slices.Equal(si.Used.taken, old.Used.taken) {
				t.Fatalf("root slots %+v, were %+v: want one level down, twice the range, the same slots taken", si, old)
			}
		case e.Code != codes[e]:
			t.Fatalf("%s moved from %v to %v", e.Tag, codes[e], e.Code)
		case si.Level != old.Level+1 || si.Base != old.Base || si.Capacity != old.Capacity || si.Depth != old.Depth ||
			!slices.Equal(si.Used.taken, old.Used.taken):
			t.Fatalf("%s's slots %+v, were %+v", e.Tag, si, old)
		}
		return true
	})
	for tag, es := range tags {
		if !slices.Equal(doc.Elements(tag), es) {
			t.Fatalf("tag index of %s changed", tag)
		}
	}
	if got := doc.ChangedTags(); !slices.Equal(got, []string{collectionRootTag}) {
		t.Fatalf("changed tags %v, want only the root's", got)
	}
	rebuilt, err := FromCodes(h+1, taggedCodes(doc))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameShape(doc.Root, rebuilt.Root); err != nil {
		t.Fatalf("FromCodes at the grown height: %v", err)
	}

	// The new half takes grafts after every document.
	si, _ := doc.Slots(doc.Root)
	sub, err := ParseString(`<f><g/></f>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.InsertSubtreeSlot(doc.Root, sub.Root, 0, si.Used.Next()); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, doc)
	if last := doc.Root.Children[len(doc.Root.Children)-2]; sub.Root.Code.Start() <= last.Code.End() {
		t.Fatalf("graft at %v does not follow the last document %v", sub.Root.Code, last.Code)
	}

	for doc.Height < pbicode.MaxHeight {
		if err := doc.GrowRoot(); err != nil {
			t.Fatalf("grow to height %d: %v", doc.Height+1, err)
		}
	}
	checkInvariants(t, doc)
	if err := doc.GrowRoot(); !errors.Is(err, ErrNoFreeSlot) || doc.Height != pbicode.MaxHeight {
		t.Fatalf("grow at MaxHeight: %v, height %d; want ErrNoFreeSlot at %d", err, doc.Height, pbicode.MaxHeight)
	}
}
