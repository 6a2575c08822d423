package core

import (
	"slices"

	"github.com/pbitree/pbitree/internal/btree"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/pbicode"
)

// This file is the index on region Start that ADB+ and INLJN's descendant
// probe read, in its two forms. A relation whose order claim the loader
// made (relation.Fences) is already clustered on Start: its pages are a
// B+-tree's leaf level, and the first Start of each page — its fence,
// recorded by the appends that wrote it — is the one inner level it lacks.
// Such a relation is its own index: nothing is read or written to build it.
// Any other input — an order claim taken on trust included — is sorted and
// bulk-loaded into a B+-tree (BuildStartIndex), as the paper's unindexed
// setting does, which checks the order as it reads.

// startIter walks a Start index's entries in document order.
type startIter interface {
	// seek positions the iterator before the first entry with Start >= k.
	seek(k uint64) error
	// next moves onto the following entry, reporting false at the end or
	// on an error.
	next() bool
	// bound says no entry that starts after limit is wanted until the
	// next bound: next may report false before them instead of reading
	// pages that hold only them.
	bound(limit uint64)
	rec() relation.Rec
	err() error
	// close releases what the iterator holds. It ends the iterator's use.
	close()
}

// startIndex returns a Start index on rel: its own pages behind its fences,
// read through the cursor f, when it has them; a B+-tree built on the fly
// otherwise.
func startIndex(ctx *Context, rel *relation.Relation, name string, f *fenceIndex) (startIter, error) {
	if fences := rel.Fences(); fences != nil {
		*f = fenceIndex{rel: rel, fences: fences, limit: ^uint64(0)}
		return f, nil
	}
	t, err := BuildStartIndex(ctx, rel, name)
	return &treeIter{t: t}, err
}

// treeIter is a startIter over a B+-tree on Start whose values are codes.
type treeIter struct {
	t  *btree.Tree
	it btree.Iter
}

func (t *treeIter) seek(k uint64) error { return t.t.SeekInto(&t.it, k) }
func (t *treeIter) next() bool          { return t.it.Next() }
func (t *treeIter) bound(uint64)        {}
func (t *treeIter) rec() relation.Rec   { return relation.Rec{Code: pbicode.Code(t.it.Val())} }
func (t *treeIter) err() error          { return t.it.Err() }
func (t *treeIter) close()              { t.it.Close() }

// fenceIndex is the Start index of a relation with fences: a cursor over
// its pages, which it decodes one at a time. The cursor keeps its decoded
// page, so seeks that land on it, as the probes of an ordered outer do,
// decode it once. Each page it decodes is checked to start at its fence and
// to hold its records in document order, so a catalog whose fences or order
// claim are false fails the join with ErrOrderClaim where it reads them. It
// lives in Scratch, so a warm join opens it without allocating.
type fenceIndex struct {
	rel    *relation.Relation
	fences []uint64 // rel.Fences()
	s      relation.BatchScanner
	codes  []uint64 // the decoded page, nil when none is
	aux    []uint64
	page   int // the decoded page's index in rel
	i      int // the next entry of codes
	limit  uint64
	bad    error
}

// fencePage returns the page a search for the first record with Start >= k
// begins on: the one before the first page whose fence is >= k, where a run
// of Starts equal to that fence can begin.
func fencePage(fences []uint64, k uint64) int {
	j, _ := slices.BinarySearch(fences, k)
	return max(j-1, 0)
}

// load decodes the scan's next non-empty page and checks it.
func (f *fenceIndex) load() bool {
	if !f.s.Next() {
		f.codes = nil
		return false
	}
	codes := f.s.Codes()
	if pbicode.Code(codes[0]).Start() != f.fences[f.s.Page()] || !inDocOrder(codes) {
		f.codes, f.bad = nil, orderError(f.rel)
		return false
	}
	f.codes, f.aux, f.page, f.i = codes, f.s.Aux(), f.s.Page(), 0
	return true
}

// inDocOrder reports whether codes are in document order.
func inDocOrder(codes []uint64) bool {
	for i := 1; i < len(codes); i++ {
		if relation.DocLess(pbicode.Code(codes[i]), pbicode.Code(codes[i-1])) {
			return false
		}
	}
	return true
}

func (f *fenceIndex) seek(k uint64) error {
	if f.bad != nil || len(f.fences) == 0 {
		f.codes = nil
		return f.bad
	}
	if j := fencePage(f.fences, k); f.codes == nil || f.page != j {
		f.s.ResetPages(f.rel, j, len(f.fences))
		if !f.load() {
			return f.err()
		}
	}
	lo, hi := 0, len(f.codes)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if pbicode.Code(f.codes[m]).Start() < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	f.i = lo
	return nil
}

func (f *fenceIndex) next() bool {
	for f.i >= len(f.codes) {
		if f.codes == nil || f.page+1 < len(f.fences) && f.fences[f.page+1] > f.limit || !f.load() {
			return false
		}
	}
	f.i++
	return true
}

func (f *fenceIndex) bound(limit uint64) { f.limit = limit }

func (f *fenceIndex) rec() relation.Rec {
	return relation.Rec{Code: pbicode.Code(f.codes[f.i-1]), Aux: f.aux[f.i-1]}
}

func (f *fenceIndex) err() error {
	if f.bad != nil {
		return f.bad
	}
	return f.s.Err()
}

// close gives the decode buffer back to the pool and lets go of the
// relation.
func (f *fenceIndex) close() {
	f.s.Close()
	*f = fenceIndex{}
}

// cursor steps a startIter one entry at a time, holding the current entry.
type cursor struct {
	it  startIter
	rec relation.Rec
	ok  bool
	err error
}

// seek repositions the cursor at the first entry with Start >= k and
// advances onto it.
func (c *cursor) seek(k uint64) error {
	if err := c.it.seek(k); err != nil {
		c.ok = false
		return err
	}
	c.advance()
	return c.err
}

func (c *cursor) advance() {
	if c.it.next() {
		c.rec = c.it.rec()
		c.ok = true
		return
	}
	c.ok = false
	c.err = c.it.err()
}
