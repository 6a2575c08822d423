package xmltree

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/pbitree/pbitree/pbicode"
)

// FuzzParse feeds arbitrary bytes through the parser; any accepted
// document must satisfy the encoding invariants and round-trip through the
// serializer.
// FuzzUpdates interprets arbitrary bytes as a stream of dynamic-update
// operations (insert, delete, subtree graft, scoped renumber, re-encode,
// root growth)
// against a parsed document and asserts the PBiTree containment invariant
// after every step: unique codes, parents strictly enclosing children, and
// indexes in agreement with the tree — the update-path counterpart of
// FuzzParse.
func FuzzUpdates(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{10, 10, 10, 40, 41, 42, 90, 10})
	f.Add(bytes.Repeat([]byte{7}, 64))
	f.Add([]byte{5, 0, 2, 0, 2, 0, 5, 0, 0, 0, 2, 1, 3, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		doc, err := ParseString(`<r><a><x/></a><b/><c><y/><z/></c></r>`, Options{})
		if err != nil {
			t.Fatal(err)
		}
		check := func() {
			seen := map[pbicode.Code]bool{}
			n := 0
			doc.Walk(func(e *Element) bool {
				n++
				if err := e.Code.Validate(doc.Height); err != nil {
					t.Fatalf("invalid code %v: %v", e.Code, err)
				}
				if seen[e.Code] {
					t.Fatalf("duplicate code %v", e.Code)
				}
				seen[e.Code] = true
				if doc.ByCode(e.Code) != e {
					t.Fatalf("byCode broken for %v", e.Code)
				}
				if e.Parent != nil && !pbicode.IsAncestor(e.Parent.Code, e.Code) {
					t.Fatalf("%v not under its parent %v", e.Code, e.Parent.Code)
				}
				return true
			})
			if n != doc.NumElements() {
				t.Fatalf("count %d, walked %d", doc.NumElements(), n)
			}
			checkSlots(t, doc)
		}
		// pick deterministically maps a byte to a live element.
		pick := func(b byte) *Element {
			var all []*Element
			doc.Walk(func(e *Element) bool { all = append(all, e); return true })
			return all[int(b)%len(all)]
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 6 {
			case 0: // insert a child; exhaustion walks the renumber ladder
				p := pick(arg)
				_, err := doc.InsertChild(p, "t")
				if errors.Is(err, ErrNoFreeSlot) {
					if p.Parent == nil || errors.Is(doc.RenumberSubtree(p, 1), ErrNoFreeSlot) {
						if err := doc.Reencode(1); err != nil {
							t.Fatal(err)
						}
					}
				} else if err != nil {
					t.Fatal(err)
				}
			case 1: // delete a subtree
				e := pick(arg)
				if e.Parent != nil {
					if err := doc.Delete(e); err != nil {
						t.Fatal(err)
					}
				}
			case 2: // graft a small subtree
				sub, err := ParseString(`<g><h/></g>`, Options{})
				if err != nil {
					t.Fatal(err)
				}
				err = graftSubtree(doc, pick(arg), sub.Root, 0)
				if err != nil && !errors.Is(err, ErrNoFreeSlot) {
					t.Fatal(err)
				}
			case 3: // scoped renumber
				e := pick(arg)
				if e.Parent != nil {
					if err := doc.RenumberSubtree(e, int(arg)%2); err != nil && !errors.Is(err, ErrNoFreeSlot) {
						t.Fatal(err)
					}
				}
			case 4: // global re-encode
				if err := doc.Reencode(int(arg) % 3); err != nil {
					t.Fatal(err)
				}
			case 5: // a level above the root
				if err := doc.GrowRoot(); err != nil && !errors.Is(err, ErrNoFreeSlot) {
					t.Fatal(err)
				}
			}
			check()
		}
		// Whatever survived round-trips through FromCodes (the doc root is
		// replaced by the synthetic collection root, so counts match).
		var stored []TaggedCode
		doc.Walk(func(e *Element) bool {
			if e.Parent != nil {
				stored = append(stored, TaggedCode{Tag: e.Tag, Code: e.Code})
			}
			return true
		})
		rebuilt, err := FromCodes(doc.Height, stored)
		if err != nil {
			t.Fatalf("FromCodes on surviving forest: %v", err)
		}
		if rebuilt.NumElements() != doc.NumElements() {
			t.Fatalf("round-trip count %d, want %d", rebuilt.NumElements(), doc.NumElements())
		}
	})
}

func FuzzParse(f *testing.F) {
	f.Add(`<a><b/><c>text</c></a>`)
	f.Add(`<a x="1"><a><a/></a></a>`)
	f.Add(`<x>&amp;&lt;</x>`)
	f.Add(`not xml at all`)
	f.Add(`<a>` + strings.Repeat("<b>", 40) + strings.Repeat("</b>", 40) + `</a>`)
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := ParseString(src, Options{TextNodes: len(src)%2 == 0})
		if err != nil {
			return // rejection is fine; crashes are not
		}
		seen := map[pbicode.Code]bool{}
		doc.Walk(func(e *Element) bool {
			if e.Code == 0 || seen[e.Code] {
				t.Fatalf("bad or duplicate code %v", e.Code)
			}
			seen[e.Code] = true
			if e.Parent != nil && !pbicode.IsAncestor(e.Parent.Code, e.Code) {
				t.Fatal("parent not an ancestor")
			}
			return true
		})
		if len(seen) != doc.NumElements() {
			t.Fatal("count mismatch")
		}
		// Serializing and re-parsing preserves structure.
		var sb strings.Builder
		if err := WriteDoc(&sb, doc); err != nil {
			t.Fatalf("serialize: %v", err)
		}
		doc2, err := ParseString(sb.String(), Options{})
		if err != nil {
			t.Fatalf("reparse: %v\n%s", err, sb.String())
		}
		// Element-node counts must agree (synthetic #text children of the
		// original fold back into character data).
		count := 0
		doc.Walk(func(e *Element) bool {
			if !strings.HasPrefix(e.Tag, "#") && !strings.HasPrefix(e.Tag, "@") {
				count++
			}
			return true
		})
		if doc2.NumElements() != count {
			t.Fatalf("reparse elements %d, want %d", doc2.NumElements(), count)
		}
	})
}
