package xmltree

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/pbitree/pbitree/pbicode"
)

// This file implements dynamic updates on an encoded document, exploiting
// the paper's observation (§2.3.2) that the virtual nodes of the PBiTree
// embedding "serve as placeholders and thus be advantageous to update": a
// new element can take an unused sibling slot without renumbering anything.
// When a parent's slot range is exhausted, ErrNoFreeSlot is returned and
// the caller re-encodes (Reencode), the same trade-off durable numbering
// schemes make — except at the root, whose range GrowRoot doubles without
// changing any other code.

// ErrNoFreeSlot reports that a parent's sibling slot range is full (or the
// PBiTree has no level left below a leaf parent); Reencode the document to
// make room.
var ErrNoFreeSlot = errors.New("xmltree: no free sibling slot; re-encode the document")

// InsertChild adds a new element with the given tag under parent,
// assigning it the lowest free PBiTree slot next to its siblings. Existing
// codes never change. The new element is appended to parent.Children and
// indexed; it starts childless (fresh subtrees under it use the slots of
// its own virtual subtree).
func (d *Document) InsertChild(parent *Element, tag string) (*Element, error) {
	if parent == nil {
		return nil, fmt.Errorf("xmltree: nil parent")
	}
	si, err := d.Slots(parent)
	if err != nil {
		return nil, err
	}
	slot, ok := si.Used.FirstFree(0, si.Capacity)
	if !ok {
		return nil, ErrNoFreeSlot
	}
	e := &Element{
		Tag:    tag,
		Parent: parent,
		Code:   pbicode.G(si.Base+slot, si.Level, d.Height),
	}
	d.take(parent, slot)
	parent.Children = append(parent.Children, e)
	d.note(tag, len(d.byTag[tag]))
	d.byTag[tag] = append(d.byTag[tag], e)
	d.byCode[e.Code] = e
	d.count++
	return e, nil
}

// Delete removes the element and its whole subtree from the document. The
// freed codes become virtual again and are reusable by InsertChild.
// Deleting the root is an error.
func (d *Document) Delete(e *Element) error {
	if e == nil || d.ByCode(e.Code) != e {
		return fmt.Errorf("xmltree: element is not part of this document")
	}
	if e.Parent == nil {
		return fmt.Errorf("xmltree: cannot delete the document root")
	}
	d.release(e)
	// Unlink from the parent.
	siblings := e.Parent.Children
	for i, c := range siblings {
		if c == e {
			e.Parent.Children = append(siblings[:i], siblings[i+1:]...)
			break
		}
	}
	// Drop the subtree from the indexes.
	var drop func(*Element)
	drop = func(x *Element) {
		delete(d.byCode, x.Code)
		delete(d.slots, x)
		tagged := d.byTag[x.Tag]
		for i, c := range tagged {
			if c == x {
				d.byTag[x.Tag] = append(tagged[:i], tagged[i+1:]...)
				d.note(x.Tag, i)
				break
			}
		}
		d.count--
		for _, c := range x.Children {
			drop(c)
		}
	}
	drop(e)
	return nil
}

// Retag renames an element in place: its code, position and subtree are
// untouched, only the tag index moves — the cheapest update the ingest
// write path supports (no code assignment, no renumbering risk).
func (d *Document) Retag(e *Element, tag string) error {
	if e == nil || d.ByCode(e.Code) != e {
		return fmt.Errorf("xmltree: element is not part of this document")
	}
	if tag == "" {
		return fmt.Errorf("xmltree: empty tag")
	}
	if e.Tag == tag {
		// Nothing moves, but the tag counts as touched.
		d.note(tag, len(d.byTag[tag]))
		return nil
	}
	tagged := d.byTag[e.Tag]
	for i, c := range tagged {
		if c == e {
			d.byTag[e.Tag] = append(tagged[:i], tagged[i+1:]...)
			d.note(e.Tag, i)
			break
		}
	}
	e.Tag = tag
	d.note(tag, len(d.byTag[tag]))
	d.byTag[tag] = append(d.byTag[tag], e)
	return nil
}

// SlotInfo describes a parent's sibling-slot range: the PBiTree level its
// children occupy (or would occupy), the number of slots, and which are
// taken. The gap-aware ingest coder (internal/ingest) uses it to steer
// inserts into a primary region and keep an overflow region in reserve.
type SlotInfo struct {
	// Level is the PBiTree level of the parent's child slots.
	Level int
	// Base is the alpha of the parent's first child slot at Level.
	Base uint64
	// Capacity is the number of slots (2^(Level - parent level)).
	Capacity uint64
	// Used is the set of taken slot indices (relative to Base).
	Used SlotSet
	// Depth is the number of PBiTree levels available at and below the
	// child slots (Height - Level): a grafted subtree of binarized height
	// at most Depth fits.
	Depth int
}

// SlotSet is the occupancy of one parent's slot range: the taken slot
// indices, ascending. The Document keeps it for each parent it has been
// asked about — a graft or InsertChild adds the slot, a Delete removes it,
// RenumberSubtree and Reencode drop it, GrowRoot keeps every one (the
// root's slot indices are the same in its doubled range) — so reading it
// costs no walk of the parent's children. A SlotSet is a view, valid until
// the document's next update.
type SlotSet struct{ taken []uint64 }

// Len returns the number of taken slots.
func (u SlotSet) Len() int { return len(u.taken) }

// Has reports whether slot is taken.
func (u SlotSet) Has(slot uint64) bool {
	_, ok := slices.BinarySearch(u.taken, slot)
	return ok
}

// Next returns the slot after the highest taken one (0 when none is): the
// high-water mark, the slot an append after every sibling takes.
func (u SlotSet) Next() uint64 {
	if len(u.taken) == 0 {
		return 0
	}
	return u.taken[len(u.taken)-1] + 1
}

// FirstFree returns the lowest free slot in [from, to).
func (u SlotSet) FirstFree(from, to uint64) (uint64, bool) {
	// taken[i:] are the slots at or after from. They are distinct and
	// ascending, so taken[i+j]-j never decreases with j, and the first j
	// with taken[i+j] > from+j ends the run of taken slots from `from` on.
	i, _ := slices.BinarySearch(u.taken, from)
	rest := u.taken[i:]
	j := sort.Search(len(rest), func(j int) bool { return rest[j] > from+uint64(j) })
	if slot := from + uint64(j); slot < to {
		return slot, true
	}
	return 0, false
}

// Slots reports the sibling-slot range of parent's children. A childless
// parent opens the level just below it (two slots); at the bottom of the
// PBiTree, Capacity is 0. The first call for a parent builds its SlotSet
// from the children; later calls read the kept one.
func (d *Document) Slots(parent *Element) (SlotInfo, error) {
	if parent == nil || d.ByCode(parent.Code) != parent {
		return SlotInfo{}, fmt.Errorf("xmltree: parent is not part of this document")
	}
	pAlpha, pLevel := parent.Code.TopDown(d.Height)
	var si SlotInfo
	if len(parent.Children) > 0 {
		si.Level = parent.Children[0].Code.Level(d.Height)
		span := uint(si.Level - pLevel)
		si.Base = pAlpha << span
		si.Capacity = 1 << span
	} else {
		si.Level = pLevel + 1
		if si.Level > d.Height-1 {
			return SlotInfo{Level: si.Level}, nil
		}
		si.Base = pAlpha << 1
		si.Capacity = 2
	}
	si.Depth = d.Height - si.Level
	si.Used = SlotSet{d.occupancy(parent, si.Base)}
	return si, nil
}

// occupancy returns parent's taken slots (relative to base), building
// them from the children the first time.
func (d *Document) occupancy(parent *Element, base uint64) []uint64 {
	if taken, ok := d.slots[parent]; ok {
		return taken
	}
	taken := make([]uint64, 0, len(parent.Children))
	for _, c := range parent.Children {
		alpha, _ := c.Code.TopDown(d.Height)
		taken = append(taken, alpha-base)
	}
	slices.Sort(taken)
	if d.slots == nil {
		d.slots = make(map[*Element][]uint64)
	}
	d.slots[parent] = taken
	return taken
}

// take marks slot taken under parent, whose SlotSet Slots has built.
func (d *Document) take(parent *Element, slot uint64) {
	taken := d.slots[parent]
	i, _ := slices.BinarySearch(taken, slot)
	d.slots[parent] = slices.Insert(taken, i, slot)
}

// release frees e's slot under its parent, if the parent's SlotSet is kept.
func (d *Document) release(e *Element) {
	taken, ok := d.slots[e.Parent]
	if !ok {
		return
	}
	pAlpha, pLevel := e.Parent.Code.TopDown(d.Height)
	alpha, level := e.Code.TopDown(d.Height)
	if i, ok := slices.BinarySearch(taken, alpha-pAlpha<<uint(level-pLevel)); ok {
		d.slots[e.Parent] = slices.Delete(taken, i, i+1)
	}
}

// GrowRoot adds one PBiTree level above the root: the tree's height rises
// by one and the root takes the taller tree's root code. A code is an
// in-order number, so the old tree, now the new root's left subtree, keeps
// every code it had: no other element, tag-index entry or SlotSet changes,
// while the root's child slots move one level down and double in number,
// the new right half all free. At pbicode.MaxHeight there is no level to
// add, and GrowRoot returns ErrNoFreeSlot.
func (d *Document) GrowRoot() error {
	if d.Height >= pbicode.MaxHeight {
		return ErrNoFreeSlot
	}
	root := d.Root
	delete(d.byCode, root.Code)
	d.Height++
	root.Code = pbicode.Root(d.Height)
	d.byCode[root.Code] = root
	d.note(root.Tag, slices.Index(d.byTag[root.Tag], root))
	return nil
}

// InsertSubtreeSlot grafts a whole element tree (root and its
// descendants; root must be detached) under parent at the given sibling
// slot, an index below Slots(parent).Capacity that the caller chose. The
// subtree is binarized standalone with the given slot headroom and its
// codes are translated into the slot's code region; no existing code
// changes. A taken slot, or one without enough PBiTree levels below it for
// the subtree's embedded height, fails with ErrNoFreeSlot — and then so
// would every other slot of parent: they all lie on one level.
func (d *Document) InsertSubtreeSlot(parent *Element, root *Element, headroom int, slot uint64) error {
	if root == nil {
		return fmt.Errorf("xmltree: nil subtree root")
	}
	if root.Parent != nil {
		return fmt.Errorf("xmltree: subtree root is already attached")
	}
	si, err := d.Slots(parent)
	if err != nil {
		return err
	}
	if slot >= si.Capacity || si.Used.Has(slot) {
		return ErrNoFreeSlot
	}
	mirror := toNode(root)
	tree, err := pbicode.BinarizeWithHeadroom(mirror, headroom)
	if err != nil {
		return err
	}
	if tree.Height > si.Depth {
		return ErrNoFreeSlot
	}
	slotAlpha := si.Base + slot
	graftCodes(d, root, mirror, tree.Height, slotAlpha, si.Level)
	d.take(parent, slot)
	root.Parent = parent
	parent.Children = append(parent.Children, root)
	return nil
}

// graftCodes translates the standalone binarization of a subtree (height
// subHeight, root at sub-level 0) into the document's code space with the
// subtree root at (slotAlpha, slotLevel), assigning codes and indexing
// every element: a node at sub-level l and sub-position a lands at level
// slotLevel+l, position (slotAlpha << l) + a.
func graftCodes(d *Document, e *Element, n *pbicode.Node, subHeight int, slotAlpha uint64, slotLevel int) {
	subAlpha, subLevel := n.Code.TopDown(subHeight)
	e.Code = pbicode.G(slotAlpha<<uint(subLevel)+subAlpha, slotLevel+subLevel, d.Height)
	d.note(e.Tag, len(d.byTag[e.Tag]))
	d.byTag[e.Tag] = append(d.byTag[e.Tag], e)
	d.byCode[e.Code] = e
	d.count++
	for i, c := range e.Children {
		graftCodes(d, c, n.Children[i], subHeight, slotAlpha, slotLevel)
	}
}

// RenumberSubtree re-encodes the subtree rooted at e in place, inside e's
// own code region: e keeps its code, every descendant may get a new one,
// and no element outside the subtree is touched — the scoped fallback the
// ingest write path uses when one document's slots are exhausted, instead
// of renumbering the whole collection. ErrNoFreeSlot is returned when the
// re-encoded subtree (with the requested headroom) needs more PBiTree
// levels than remain below e; the caller escalates to a full Reencode.
func (d *Document) RenumberSubtree(e *Element, headroom int) error {
	if e == nil || d.ByCode(e.Code) != e {
		return fmt.Errorf("xmltree: element is not part of this document")
	}
	if e.Parent == nil {
		return fmt.Errorf("xmltree: renumbering the root is a full re-encode; call Reencode")
	}
	eAlpha, eLevel := e.Code.TopDown(d.Height)
	mirror := toNode(e)
	tree, err := pbicode.BinarizeWithHeadroom(mirror, headroom)
	if err != nil {
		return err
	}
	if tree.Height > d.Height-eLevel {
		return ErrNoFreeSlot
	}
	// Drop the subtree's old codes, then re-index with the grafted ones.
	// Tag lists hold element pointers and stay valid; only byCode changes,
	// and any tag of the subtree may now hold other codes from ordinal 0.
	var drop func(*Element)
	drop = func(x *Element) {
		delete(d.byCode, x.Code)
		delete(d.slots, x)
		d.note(x.Tag, 0)
		for _, c := range x.Children {
			drop(c)
		}
	}
	drop(e)
	var graft func(*Element, *pbicode.Node)
	graft = func(x *Element, n *pbicode.Node) {
		subAlpha, subLevel := n.Code.TopDown(tree.Height)
		x.Code = pbicode.G(eAlpha<<uint(subLevel)+subAlpha, eLevel+subLevel, d.Height)
		d.byCode[x.Code] = x
		for i, c := range x.Children {
			graft(c, n.Children[i])
		}
	}
	graft(e, mirror)
	return nil
}

// Reencode rebuilds the document's PBiTree embedding from scratch
// (Algorithm 1 again) with the given sibling-slot headroom: every node's
// child ranges get 2^headroom times their minimal size, so subsequent
// InsertChild calls find free slots even where the old ranges were packed.
// Every element may receive a new code; indexes and derived code sets must
// be re-read afterwards. The tag indexes come back in document order, and
// every tag counts as changed from ordinal 0.
func (d *Document) Reencode(headroom int) error {
	mirror := toNode(d.Root)
	tree, err := pbicode.BinarizeWithHeadroom(mirror, headroom)
	if err != nil {
		return err
	}
	fresh := &Document{
		Root:    d.Root,
		Height:  tree.Height,
		byTag:   make(map[string][]*Element),
		byCode:  make(map[pbicode.Code]*Element),
		changed: d.changed,
	}
	copyCodes(d.Root, mirror, fresh)
	for tag := range fresh.byTag {
		fresh.note(tag, 0)
	}
	*d = *fresh
	return nil
}
