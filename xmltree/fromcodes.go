package xmltree

import (
	"fmt"
	"sort"

	"github.com/pbitree/pbitree/pbicode"
)

// This file reconstructs an encoded document tree from nothing but its
// stored (tag, code) pairs — the inverse of flattening a collection into
// tag relations. The PBiTree code of every element pins its exact position
// in the embedding (Start order is document order, ancestors precede and
// enclose their descendants), so parent links rebuild with a single stack
// pass and the result is bit-identical to the collection that was stored:
// the live-ingest write path (internal/ingest) opens a database this way
// and then applies InsertChild/InsertSubtreeSlot/Delete to it directly.

// TaggedCode pairs an element's tag with its PBiTree code — one stored
// element of a persisted collection.
type TaggedCode struct {
	Tag  string
	Code pbicode.Code
}

// FromCodes rebuilds the encoded collection forest from stored elements:
// the result is a Document whose root is the synthetic collection root
// (code Root(height)) with every document subtree hanging beneath it, as
// xmltree.Collection encodes. The elements may arrive in any order; every
// element's parent must itself be present (a database that stored only a
// subset of tags cannot be reconstructed — parent chains would have gaps
// and containment-preserving grafts could not be guaranteed), except that
// document roots attach directly to the synthetic root.
//
// Each tag's index keeps the order in which elems lists that tag's
// elements, whatever the order across tags: rebuilt from stored tag
// relations, a tag's Codes are its relation's codes in storage order.
func FromCodes(height int, elems []TaggedCode) (*Document, error) {
	if height < 1 || height > pbicode.MaxHeight {
		return nil, fmt.Errorf("xmltree: tree height %d out of range [1,%d]", height, pbicode.MaxHeight)
	}
	rootCode := pbicode.Root(height)
	for _, tc := range elems {
		if err := tc.Code.Validate(height); err != nil {
			return nil, err
		}
		if tc.Code == rootCode {
			return nil, fmt.Errorf("xmltree: element code %v collides with the synthetic collection root", tc.Code)
		}
	}
	// The elements in document order with ancestors first: Start
	// ascending, and among equal Starts (a node and its leftmost-path
	// descendants) the higher node precedes.
	order := make([]int, len(elems))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		ci, cj := elems[order[i]].Code, elems[order[j]].Code
		if si, sj := ci.Start(), cj.Start(); si != sj {
			return si < sj
		}
		return ci.Height() > cj.Height()
	})

	root := &Element{Tag: collectionRootTag, Code: rootCode}
	doc := &Document{
		Root:   root,
		Height: height,
		byTag:  map[string][]*Element{collectionRootTag: {root}},
		byCode: map[pbicode.Code]*Element{rootCode: root},
		count:  1 + len(elems),
	}
	built := make([]*Element, len(elems))
	stack := []*Element{root}
	for _, i := range order {
		tc := elems[i]
		if doc.byCode[tc.Code] != nil {
			return nil, fmt.Errorf("xmltree: duplicate element code %v", tc.Code)
		}
		e := &Element{Tag: tc.Tag, Code: tc.Code}
		built[i] = e
		// Pop until the top encloses e; the synthetic root encloses every
		// valid code, so the stack never empties.
		for !pbicode.IsAncestor(stack[len(stack)-1].Code, e.Code) {
			stack = stack[:len(stack)-1]
		}
		p := stack[len(stack)-1]
		e.Parent = p
		p.Children = append(p.Children, e)
		doc.byCode[e.Code] = e
		stack = append(stack, e)
	}
	for _, e := range built {
		doc.byTag[e.Tag] = append(doc.byTag[e.Tag], e)
	}
	return doc, nil
}

// DocumentRoots returns the elements attached directly under the synthetic
// collection root, in document order — the per-document roots of a forest
// built by FromCodes (or by Collection encoding).
func (d *Document) DocumentRoots() []*Element {
	if d.Root == nil || d.Root.Tag != collectionRootTag {
		return nil
	}
	return append([]*Element(nil), d.Root.Children...)
}
