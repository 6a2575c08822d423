// Package xmltree parses XML documents into data trees and assigns every
// element its PBiTree code, turning a document into joinable element sets:
// the front half of the paper's pipeline (Figure 1's document → data tree →
// PBiTree embedding).
//
// Parsing uses encoding/xml's streaming decoder. By default, elements are
// the tree nodes; character data is kept as each element's Text, and
// attributes in its Attrs map. Options can additionally materialize text
// and attributes as leaf nodes, matching data models (like the paper's
// Figure 1(b)) where they participate in containment relationships.
package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/pbitree/pbitree/pbicode"
)

// Element is a node of the parsed document tree.
type Element struct {
	// Tag is the element name; synthetic nodes use "#text" for text
	// leaves and "@name" for attribute leaves.
	Tag string
	// Text is the element's concatenated, whitespace-trimmed character
	// data (for "#text" and "@name" nodes, their value).
	Text string
	// Attrs holds the element's attributes (also present as child nodes
	// when Options.AttrNodes is set).
	Attrs map[string]string
	// Code is the element's PBiTree code.
	Code pbicode.Code
	// Parent is nil for the root.
	Parent *Element
	// Children in document order.
	Children []*Element
}

// Level returns the element's depth in the document tree (root = 0).
func (e *Element) Level() int {
	l := 0
	for p := e.Parent; p != nil; p = p.Parent {
		l++
	}
	return l
}

// Options configures parsing.
type Options struct {
	// TextNodes materializes non-empty character data as "#text" leaf
	// children, as in the paper's data model.
	TextNodes bool
	// AttrNodes materializes attributes as "@name" leaf children.
	AttrNodes bool
}

// Document is a parsed, PBiTree-encoded XML document.
type Document struct {
	// Root is the document element.
	Root *Element
	// Height is the height of the PBiTree the document embeds into.
	Height int

	byTag  map[string][]*Element
	byCode map[pbicode.Code]*Element
	count  int
	// changed maps each tag whose index an update touched since the last
	// ResetChanges to the lowest ordinal of its index that may differ: every
	// element before it is where it was, with the code it had.
	changed map[string]int
	// slots holds, for each parent Slots was asked about, its taken child
	// slots in ascending order (see SlotSet); updates keep it current.
	slots map[*Element][]uint64
}

// Parse reads one XML document and encodes it.
func Parse(r io.Reader, opts Options) (*Document, error) {
	dec := xml.NewDecoder(r)
	var root *Element
	var stack []*Element
	addChild := func(e *Element) error {
		if len(stack) == 0 {
			if root != nil {
				return fmt.Errorf("xmltree: multiple root elements")
			}
			root = e
			return nil
		}
		p := stack[len(stack)-1]
		e.Parent = p
		p.Children = append(p.Children, e)
		return nil
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			e := &Element{Tag: t.Name.Local}
			if len(t.Attr) > 0 {
				e.Attrs = make(map[string]string, len(t.Attr))
				for _, a := range t.Attr {
					e.Attrs[a.Name.Local] = a.Value
				}
			}
			if err := addChild(e); err != nil {
				return nil, err
			}
			if opts.AttrNodes {
				for _, a := range t.Attr {
					e.Children = append(e.Children, &Element{
						Tag:    "@" + a.Name.Local,
						Text:   a.Value,
						Parent: e,
					})
				}
			}
			stack = append(stack, e)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %q", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			text := strings.TrimSpace(string(t))
			if text == "" || len(stack) == 0 {
				continue
			}
			p := stack[len(stack)-1]
			if p.Text == "" {
				p.Text = text
			} else {
				p.Text += " " + text
			}
			if opts.TextNodes {
				p.Children = append(p.Children, &Element{Tag: "#text", Text: text, Parent: p})
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: unexpected EOF inside element %q", stack[len(stack)-1].Tag)
	}
	return Encode(root)
}

// ParseString is Parse over a string, a convenience for tests and examples.
func ParseString(s string, opts Options) (*Document, error) {
	return Parse(strings.NewReader(s), opts)
}

// Encode assigns PBiTree codes to an element tree built by hand (or by a
// generator) and indexes it as a Document.
func Encode(root *Element) (*Document, error) {
	// Mirror the element tree into the binarizer's node type, binarize,
	// and copy codes back (both trees walk children in the same order).
	mirror := toNode(root)
	tree, err := pbicode.Binarize(mirror)
	if err != nil {
		return nil, err
	}
	doc := &Document{
		Root:   root,
		Height: tree.Height,
		byTag:  make(map[string][]*Element),
		byCode: make(map[pbicode.Code]*Element),
	}
	copyCodes(root, mirror, doc)
	return doc, nil
}

func toNode(e *Element) *pbicode.Node {
	n := &pbicode.Node{Label: e.Tag, Children: make([]*pbicode.Node, len(e.Children))}
	for i, c := range e.Children {
		n.Children[i] = toNode(c)
	}
	return n
}

func copyCodes(e *Element, n *pbicode.Node, doc *Document) {
	e.Code = n.Code
	doc.byTag[e.Tag] = append(doc.byTag[e.Tag], e)
	doc.byCode[e.Code] = e
	doc.count++
	for i, c := range e.Children {
		copyCodes(c, n.Children[i], doc)
	}
}

// NumElements returns the number of nodes in the document tree.
func (d *Document) NumElements() int { return d.count }

// Elements returns the elements with the given tag, in the tag index's
// order (see Codes).
func (d *Document) Elements(tag string) []*Element { return d.byTag[tag] }

// Tags returns every distinct tag with its element count.
func (d *Document) Tags() map[string]int {
	out := make(map[string]int, len(d.byTag))
	for tag, es := range d.byTag {
		out[tag] = len(es)
	}
	return out
}

// ByCode returns the element carrying the given code, or nil.
func (d *Document) ByCode(c pbicode.Code) *Element { return d.byCode[c] }

// Codes returns the PBiTree codes of all elements with the given tag — the
// raw input of a containment join — in the tag index's order. That is
// document order for a parsed or encoded document. Updates keep it an
// insertion order instead: an inserted element goes to the end of its
// tag's index and a deleted one leaves no gap, so once an insert reuses a
// freed slot, codes are no longer in document order. FromCodes keeps the
// order its input lists each tag's elements in.
func (d *Document) Codes(tag string) []pbicode.Code { return d.CodesFrom(tag, 0) }

// CodesFrom returns the codes of the elements with the given tag from
// ordinal i of the tag's index on: Codes(tag)[i:], without copying the
// codes before i.
func (d *Document) CodesFrom(tag string, i int) []pbicode.Code {
	es := d.byTag[tag][min(i, len(d.byTag[tag])):]
	out := make([]pbicode.Code, len(es))
	for i, e := range es {
		out[i] = e.Code
	}
	return out
}

// ChangedFrom reports whether an update touched the index of the given tag
// since the last ResetChanges and, if so, the lowest ordinal of it that may
// differ: Codes(tag)[:i] is what Codes(tag) returned then. An append
// records the index's old length, a removal the ordinal it removes, and a
// renumbering 0 for every tag whose codes it may have moved.
func (d *Document) ChangedFrom(tag string) (i int, ok bool) {
	i, ok = d.changed[tag]
	return i, ok
}

// ChangedTags returns the tags ChangedFrom reports, sorted.
func (d *Document) ChangedTags() []string {
	tags := make([]string, 0, len(d.changed))
	for tag := range d.changed {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	return tags
}

// ResetChanges forgets every change recorded so far: the tag indexes as
// they stand are the new reference ChangedFrom compares against.
func (d *Document) ResetChanges() { clear(d.changed) }

// note records that the index of tag may differ from ordinal i on.
func (d *Document) note(tag string, i int) {
	if d.changed == nil {
		d.changed = make(map[string]int)
	}
	if old, ok := d.changed[tag]; !ok || i < old {
		d.changed[tag] = i
	}
}

// CodesWhere returns the codes of elements with the given tag that satisfy
// pred — e.g. Title elements whose text is "Introduction", as in the
// paper's motivating //Section[Title="Introduction"]//Figure query.
func (d *Document) CodesWhere(tag string, pred func(*Element) bool) []pbicode.Code {
	var out []pbicode.Code
	for _, e := range d.byTag[tag] {
		if pred(e) {
			out = append(out, e.Code)
		}
	}
	return out
}

// Walk visits every element in document order until fn returns false.
func (d *Document) Walk(fn func(*Element) bool) {
	var rec func(e *Element) bool
	rec = func(e *Element) bool {
		if !fn(e) {
			return false
		}
		for _, c := range e.Children {
			if !rec(c) {
				return false
			}
		}
		return true
	}
	rec(d.Root)
}
