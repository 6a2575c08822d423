package core

import (
	"slices"

	"github.com/pbitree/pbitree/internal/btree"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/pbicode"
)

// This file is the index on region Start that ADB+ and INLJN's descendant
// probe read, in its two forms. A relation without a persistent index that
// claims document order (relation.Ordered) is already clustered on Start:
// its pages are a B+-tree's leaf level, and the first Start of each page —
// its fence, held in memory — is the one inner level it lacks. Such a
// relation is indexed by one scan that checks the claim and writes
// nothing. Any other input is sorted and bulk-loaded into a B+-tree
// (BuildStartIndex), as the paper's unindexed setting does.

// startIter walks a Start index's entries in document order.
type startIter interface {
	// seek positions the iterator before the first entry with Start >= k.
	seek(k uint64) error
	// next moves onto the following entry, reporting false at the end or
	// on an error.
	next() bool
	rec() relation.Rec
	err() error
	// close releases what the iterator holds. It ends the iterator's use.
	close()
}

// startIndex returns a Start index on rel: its own pages behind the fences
// f when it claims document order, a B+-tree built on the fly otherwise.
func startIndex(ctx *Context, rel *relation.Relation, name string, f *fenceIndex) (startIter, error) {
	if rel.Ordered() {
		if err := f.build(ctx, rel, name); err != nil {
			f.close()
			return nil, err
		}
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
func (t *treeIter) rec() relation.Rec   { return relation.Rec{Code: pbicode.Code(t.it.Val())} }
func (t *treeIter) err() error          { return t.it.Err() }
func (t *treeIter) close()              { t.it.Close() }

// fenceIndex is the Start index of a relation stored in document order:
// the first Start of each non-empty page, and a cursor over the pages it
// decodes one at a time. The cursor keeps its decoded page, so seeks that
// land on it, as the probes of an ordered outer do, decode it once. It
// lives in Scratch, so a warm join rebuilds it without allocating.
type fenceIndex struct {
	rel    *relation.Relation
	starts []uint64 // each non-empty page's first Start, ascending
	pages  []int    // that page's index in rel
	s      relation.BatchScanner
	codes  []uint64 // the decoded page, nil when none is
	aux    []uint64
	page   int // the decoded page's position in starts
	i      int // the next entry of codes
}

// build indexes rel with one scan, which checks the order rel claims
// record by record and fails with ErrOrderClaim where it is false.
func (f *fenceIndex) build(ctx *Context, rel *relation.Relation, name string) error {
	sp := ctx.Trace.StartDetail("index-build", name)
	defer ctx.Trace.End(sp)
	f.rel, f.starts, f.pages, f.codes = rel, f.starts[:0], f.pages[:0], nil
	prev := pbicode.Code(noneBefore)
	for f.s.Reset(rel); f.s.Next(); {
		codes := f.s.Codes()
		for _, c := range codes {
			if relation.DocLess(pbicode.Code(c), prev) {
				return orderError(rel)
			}
			prev = pbicode.Code(c)
		}
		f.starts = append(f.starts, pbicode.Code(codes[0]).Start())
		f.pages = append(f.pages, f.s.Page())
	}
	return f.s.Err()
}

func (f *fenceIndex) seek(k uint64) error {
	// Every page from the first whose fence is >= k on starts at or past
	// k, so the first such entry is on that page or the one before it.
	j, _ := slices.BinarySearch(f.starts, k)
	j = max(j-1, 0)
	if j >= len(f.starts) {
		f.codes = nil
		return nil
	}
	if f.codes == nil || f.page != j {
		f.s.ResetPages(f.rel, f.pages[j], int(f.rel.NumPages()))
		if !f.s.Next() {
			f.codes = nil
			return f.s.Err()
		}
		f.codes, f.aux, f.page = f.s.Codes(), f.s.Aux(), j
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
		if f.codes == nil || !f.s.Next() {
			f.codes = nil
			return false
		}
		f.codes, f.aux, f.page, f.i = f.s.Codes(), f.s.Aux(), f.page+1, 0
	}
	f.i++
	return true
}

func (f *fenceIndex) rec() relation.Rec {
	return relation.Rec{Code: pbicode.Code(f.codes[f.i-1]), Aux: f.aux[f.i-1]}
}

func (f *fenceIndex) err() error { return f.s.Err() }

// close gives the decode buffer back to the pool and lets go of the
// relation; the fences stay allocated for the next join.
func (f *fenceIndex) close() {
	f.s.Close()
	f.s, f.rel, f.codes, f.aux = relation.BatchScanner{}, nil, nil, nil
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
