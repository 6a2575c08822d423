package xmltree

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/pbitree/pbitree/pbicode"
)

// taggedCodes flattens a document into its stored (tag, code) pairs,
// skipping the synthetic collection root — what a persisted database holds.
func taggedCodes(d *Document) []TaggedCode {
	var out []TaggedCode
	d.Walk(func(e *Element) bool {
		if e.Tag != collectionRootTag {
			out = append(out, TaggedCode{Tag: e.Tag, Code: e.Code})
		}
		return true
	})
	return out
}

// sameShape compares two trees structurally: tag, code, and child order.
func sameShape(a, b *Element) error {
	if a.Tag != b.Tag || a.Code != b.Code {
		return fmt.Errorf("node mismatch: %s/%v vs %s/%v", a.Tag, a.Code, b.Tag, b.Code)
	}
	if len(a.Children) != len(b.Children) {
		return fmt.Errorf("%s/%v child count %d vs %d", a.Tag, a.Code, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		if err := sameShape(a.Children[i], b.Children[i]); err != nil {
			return err
		}
	}
	return nil
}

func TestFromCodesRoundTrip(t *testing.T) {
	col := NewCollection()
	docs := []string{
		`<paper><title/><authors><author/><author/></authors><body><sec/><sec/><sec/></body></paper>`,
		`<paper><title/><body/></paper>`,
		`<misc><a><b><c/></b></a></misc>`,
	}
	for i, src := range docs {
		if err := col.AddDocument(fmt.Sprintf("d%d", i), strings.NewReader(src), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	orig := col.Document()

	// Shuffle the stored pairs: order must not matter.
	elems := taggedCodes(orig)
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(elems), func(i, j int) { elems[i], elems[j] = elems[j], elems[i] })

	rebuilt, err := FromCodes(orig.Height, elems)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameShape(orig.Root, rebuilt.Root); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, rebuilt)
	if got := len(rebuilt.DocumentRoots()); got != len(docs) {
		t.Fatalf("DocumentRoots = %d, want %d", got, len(docs))
	}
	// Tag index carries over.
	if len(rebuilt.Elements("paper")) != 2 || len(rebuilt.Elements("sec")) != 3 {
		t.Fatalf("tag index: paper=%d sec=%d", len(rebuilt.Elements("paper")), len(rebuilt.Elements("sec")))
	}
}

func TestFromCodesErrors(t *testing.T) {
	if _, err := FromCodes(0, nil); err == nil {
		t.Fatal("height 0 accepted")
	}
	h := 4
	root := pbicode.Root(h)
	if _, err := FromCodes(h, []TaggedCode{{Tag: "a", Code: root}}); err == nil {
		t.Fatal("collection-root collision accepted")
	}
	c := pbicode.G(0, 1, h)
	if _, err := FromCodes(h, []TaggedCode{{Tag: "a", Code: c}, {Tag: "b", Code: c}}); err == nil {
		t.Fatal("duplicate code accepted")
	}
	if _, err := FromCodes(h, []TaggedCode{{Tag: "a", Code: pbicode.Code(1 << uint(h))}}); err == nil {
		t.Fatal("out-of-range code accepted")
	}
}

func TestDocumentRootsNonCollection(t *testing.T) {
	doc, err := ParseString(`<a><b/></a>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if doc.DocumentRoots() != nil {
		t.Fatal("plain document reported collection roots")
	}
}

func TestInsertSubtreeGraft(t *testing.T) {
	// Reencode with headroom so the root has free slots, and keep a deep
	// branch so the PBiTree has levels to spare below the root's slot level.
	doc, err := ParseString(`<r><a><m><n/></m></a><b/></r>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Reencode(2); err != nil {
		t.Fatal(err)
	}
	oldCodes := map[*Element]pbicode.Code{}
	doc.Walk(func(e *Element) bool { oldCodes[e] = e.Code; return true })

	sub, err := ParseString(`<s><x/><y><z/></y></s>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	graft := sub.Root
	graft.Parent = nil
	if err := graftSubtree(doc, doc.Root, graft, 0); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, doc)
	for e, c := range oldCodes {
		if e.Code != c {
			t.Fatalf("existing code of %s changed: %v -> %v", e.Tag, c, e.Code)
		}
	}
	// Every grafted element is indexed and sits under the graft root.
	for _, tag := range []string{"s", "x", "y", "z"} {
		es := doc.Elements(tag)
		if len(es) != 1 {
			t.Fatalf("tag %s: %d elements", tag, len(es))
		}
		if !pbicode.IsAncestorOrSelf(graft.Code, es[0].Code) {
			t.Fatalf("grafted %s outside the graft region", tag)
		}
	}
	if doc.NumElements() != 5+4 {
		t.Fatalf("NumElements = %d, want 9", doc.NumElements())
	}
}

func TestInsertSubtreeDepthExhaustion(t *testing.T) {
	// A packed document: no headroom, root's slots full, leaves at the
	// bottom. A deep graft cannot fit anywhere.
	doc, err := ParseString(`<r><a/><b/></r>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := ParseString(`<s>`+strings.Repeat("<t>", 40)+strings.Repeat("</t>", 40)+`</s>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	deep.Root.Parent = nil
	if err := graftSubtree(doc, doc.Root, deep.Root, 0); !errors.Is(err, ErrNoFreeSlot) {
		t.Fatalf("deep graft: err = %v, want ErrNoFreeSlot", err)
	}
	// Attached roots are rejected outright.
	if err := doc.InsertSubtreeSlot(doc.Root, doc.Elements("a")[0], 0, 0); err == nil || errors.Is(err, ErrNoFreeSlot) {
		t.Fatalf("attached root: err = %v", err)
	}
	// With headroom the root has free slots, each one level above the
	// bottom: the deep subtree fits in none of them.
	if err := doc.Reencode(1); err != nil {
		t.Fatal(err)
	}
	si, err := doc.Slots(doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	if slot := si.Used.Next(); slot >= si.Capacity || si.Depth >= 40 {
		t.Fatalf("re-encoded root: next slot %d of %d, depth %d", slot, si.Capacity, si.Depth)
	}
	if err := doc.InsertSubtreeSlot(doc.Root, deep.Root, 0, si.Used.Next()); !errors.Is(err, ErrNoFreeSlot) {
		t.Fatalf("deep graft into a free slot: err = %v, want ErrNoFreeSlot", err)
	}
	checkInvariants(t, doc)
}

func TestSlots(t *testing.T) {
	doc, err := ParseString(`<r><a/><b/><c/></r>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	si, err := doc.Slots(doc.Root)
	if err != nil {
		t.Fatal(err)
	}
	if si.Capacity != 4 || si.Used.Len() != 3 {
		t.Fatalf("Slots: capacity %d used %d, want 4/3", si.Capacity, si.Used.Len())
	}
	free := uint64(0)
	for s := uint64(0); s < si.Capacity; s++ {
		if !si.Used.Has(s) {
			free++
		}
	}
	if free != 1 {
		t.Fatalf("free slots %d, want 1", free)
	}
	// A leaf at the bottom of the PBiTree reports zero capacity.
	leaf := doc.Elements("a")[0]
	for leaf.Code.Level(doc.Height) < doc.Height-1 {
		e, err := doc.InsertChild(leaf, "w")
		if err != nil {
			t.Fatal(err)
		}
		leaf = e
	}
	si, err = doc.Slots(leaf)
	if err != nil {
		t.Fatal(err)
	}
	if si.Capacity != 0 || si.Depth != 0 {
		t.Fatalf("bottom leaf: capacity %d depth %d, want 0/0", si.Capacity, si.Depth)
	}
}

// TestRenumberSubtreeScoped: a scoped renumber of a full parent reopens
// its slot range inside its own region. b's chain leaves the PBiTree a
// level to spare below a, room for a's children with headroom 1.
func TestRenumberSubtreeScoped(t *testing.T) {
	doc, err := ParseString(`<r><a><p/><q/></a><b><u><v><w/></v></u></b></r>`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := doc.Elements("a")[0]
	aCode := a.Code
	outside := map[string]pbicode.Code{}
	for _, tag := range []string{"r", "b", "u", "v", "w"} {
		outside[tag] = doc.Elements(tag)[0].Code
	}

	// Fill a's slot range, then renumber with headroom to reopen it.
	for {
		_, err := doc.InsertChild(a, "p")
		if errors.Is(err, ErrNoFreeSlot) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := doc.RenumberSubtree(a, 1); err != nil {
		t.Fatalf("scoped renumber with headroom 1 (height %d, a at level %d): %v", doc.Height, a.Code.Level(doc.Height), err)
	}
	if a.Code != aCode {
		t.Fatalf("renumber moved the subtree root: %v -> %v", aCode, a.Code)
	}
	for tag, c := range outside {
		if doc.Elements(tag)[0].Code != c {
			t.Fatalf("renumber touched %s outside the subtree", tag)
		}
	}
	checkInvariants(t, doc)
	doc.Walk(func(e *Element) bool {
		if e != a && e.Parent == a || (e.Parent != nil && pbicode.IsAncestorOrSelf(a.Code, e.Code) && e != a) {
			if !pbicode.IsAncestor(aCode, e.Code) {
				t.Fatalf("renumbered %s escaped a's region", e.Tag)
			}
		}
		return true
	})
	// Renumbering made room again.
	if _, err := doc.InsertChild(a, "p"); err != nil {
		t.Fatalf("insert after scoped renumber: %v", err)
	}
	checkInvariants(t, doc)
	// Root renumber is a Reencode, not a scoped call.
	if err := doc.RenumberSubtree(doc.Root, 0); err == nil {
		t.Fatal("RenumberSubtree accepted the root")
	}
}

// TestRandomizedUpdateSequences drives long random insert/delete/graft/
// renumber sequences against a collection forest and asserts the PBiTree
// containment invariant after every operation: codes are unique, every
// parent's code is a PBiTree ancestor of its children's, and the byCode /
// byTag indexes agree with the tree. This is the dynamic-maintenance
// counterpart of the static fuzz harness.
func TestRandomizedUpdateSequences(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			col := NewCollection()
			for i := 0; i < 3; i++ {
				src := `<doc><h/><b><s/><s/></b></doc>`
				if err := col.AddDocument(fmt.Sprintf("d%d", i), strings.NewReader(src), Options{}); err != nil {
					t.Fatal(err)
				}
			}
			doc := col.Document()
			tags := []string{"h", "b", "s", "p", "q"}

			pick := func() *Element {
				var all []*Element
				doc.Walk(func(e *Element) bool {
					if e.Tag != collectionRootTag {
						all = append(all, e)
					}
					return true
				})
				if len(all) == 0 {
					return nil
				}
				return all[rng.Intn(len(all))]
			}

			// Every 25 ops the tag indexes become the reference the change
			// record is checked against (checkChanges).
			var ref map[string][]pbicode.Code
			for op := 0; op < 300; op++ {
				if op%25 == 0 {
					ref = map[string][]pbicode.Code{}
					for tag := range doc.Tags() {
						ref[tag] = doc.Codes(tag)
					}
					doc.ResetChanges()
				}
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4: // insert a leaf child
					p := pick()
					if p == nil {
						continue
					}
					_, err := doc.InsertChild(p, tags[rng.Intn(len(tags))])
					if errors.Is(err, ErrNoFreeSlot) {
						// Scoped renumber first; escalate to a global
						// re-encode if the region is too shallow — the
						// ingest write path's exact fallback ladder.
						rErr := error(nil)
						if p.Parent != nil {
							rErr = doc.RenumberSubtree(p, 1)
						} else {
							rErr = ErrNoFreeSlot
						}
						if errors.Is(rErr, ErrNoFreeSlot) {
							if err := doc.Reencode(1); err != nil {
								t.Fatal(err)
							}
						} else if rErr != nil {
							t.Fatal(rErr)
						}
						if _, err := doc.InsertChild(p, tags[rng.Intn(len(tags))]); err != nil && !errors.Is(err, ErrNoFreeSlot) {
							t.Fatal(err)
						}
					} else if err != nil {
						t.Fatal(err)
					}
				case 5: // delete a subtree
					e := pick()
					if e == nil || e.Parent == nil {
						continue
					}
					if err := doc.Delete(e); err != nil {
						t.Fatal(err)
					}
				case 6, 7: // graft a small parsed subtree
					p := pick()
					if p == nil {
						continue
					}
					sub, err := ParseString(`<p><q/></p>`, Options{})
					if err != nil {
						t.Fatal(err)
					}
					sub.Root.Parent = nil
					err = graftSubtree(doc, p, sub.Root, 0)
					if err != nil && !errors.Is(err, ErrNoFreeSlot) {
						t.Fatal(err)
					}
				case 8: // update = delete + reinsert elsewhere
					e := pick()
					if e == nil || e.Parent == nil {
						continue
					}
					if err := doc.Delete(e); err != nil {
						t.Fatal(err)
					}
					p := pick()
					if p == nil || pbicode.IsAncestorOrSelf(e.Code, p.Code) {
						continue
					}
					e.Parent, e.Code = nil, 0
					var strip func(*Element)
					strip = func(x *Element) {
						x.Code = 0
						for _, c := range x.Children {
							strip(c)
						}
					}
					strip(e)
					err := graftSubtree(doc, p, e, 0)
					if err != nil && !errors.Is(err, ErrNoFreeSlot) {
						t.Fatal(err)
					}
				case 9: // global re-encode with random headroom
					if err := doc.Reencode(rng.Intn(2)); err != nil {
						t.Fatal(err)
					}
				}
				checkInvariants(t, doc)
				checkChanges(t, doc, ref)
			}

			// The surviving forest round-trips through FromCodes.
			rebuilt, err := FromCodes(doc.Height, taggedCodes(doc))
			if err != nil {
				t.Fatal(err)
			}
			if rebuilt.NumElements() != doc.NumElements() {
				t.Fatalf("round-trip count %d, want %d", rebuilt.NumElements(), doc.NumElements())
			}
			checkInvariants(t, rebuilt)
		})
	}
}

// checkChanges holds doc's change record to its contract against ref, the
// tag indexes at the last ResetChanges: a tag it does not name lists the
// same codes, and one it names from ordinal i lists the same first i.
func checkChanges(t *testing.T, doc *Document, ref map[string][]pbicode.Code) {
	t.Helper()
	for tag := range doc.Tags() {
		if _, ok := ref[tag]; !ok {
			ref[tag] = nil
		}
	}
	for tag, was := range ref {
		now := doc.Codes(tag)
		from, ok := doc.ChangedFrom(tag)
		if !ok {
			from = len(was)
			if len(now) != len(was) {
				t.Fatalf("tag %q: %d codes, %d at the last reset, and no change recorded", tag, len(now), len(was))
			}
		}
		if from > len(was) || from > len(now) || !slices.Equal(now[:from], was[:from]) {
			t.Fatalf("tag %q changed from %d (recorded: %v): %v, %v at the last reset", tag, from, ok, now, was)
		}
		if tail := doc.CodesFrom(tag, from); !slices.Equal(tail, now[from:]) {
			t.Fatalf("tag %q: CodesFrom(%d) = %v, want %v", tag, from, tail, now[from:])
		}
	}
}

// TestFromCodesKeepsTagOrder: FromCodes lists each tag's elements in the
// order its input does, not in document order, whatever the order across
// tags — rebuilt from stored relations, a tag's Codes are its relation's.
func TestFromCodesKeepsTagOrder(t *testing.T) {
	col := NewCollection()
	if err := col.AddDocument("d", strings.NewReader(`<r><a/><a/><b><a/></b></r>`), Options{}); err != nil {
		t.Fatal(err)
	}
	orig := col.Document()
	as := orig.Codes("a")
	in := []TaggedCode{{"a", as[2]}, {"b", orig.Codes("b")[0]}, {"a", as[0]}, {"r", orig.Codes("r")[0]}, {"a", as[1]}}
	doc, err := FromCodes(orig.Height, in)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := doc.Codes("a"), []pbicode.Code{as[2], as[0], as[1]}; !slices.Equal(got, want) {
		t.Fatalf("Codes(a) = %v, want the input's order %v", got, want)
	}
	if _, ok := doc.ChangedFrom("a"); ok {
		t.Fatal("a rebuilt document records a change")
	}
}
