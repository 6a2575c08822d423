package core

import (
	"github.com/pbitree/pbitree/internal/extsort"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/pbicode"
)

// This file implements the sort-merge baselines adapted to PBiTree codes
// (section 3.1): MPMGJN (Zhang et al.'s multi-predicate merge join) and the
// stack-tree joins of Al-Khalifa et al. Inputs must be in document order —
// region Start ascending, End descending on ties (a node precedes its
// leftmost descendant). The *OnTheFly variants sort unsorted inputs first,
// charging the external-sort I/O exactly as the paper's experiments do; an
// input stored in document order is read as it is.

// SortByDoc sorts rel into document order with the context's memory
// budget. Baselines use it to sort inputs on the fly. Run generation and
// merge passes are recorded as phases when tracing is on. A relation
// already in document order (relation.Ordered) is not sorted: the result
// borrows its pages, costing no I/O, and freeing it leaves rel intact.
func SortByDoc(ctx *Context, rel *relation.Relation, name string) (*relation.Relation, error) {
	if rel.Ordered() {
		return rel.Borrow(name), nil
	}
	return sortWith(ctx, rel, extsort.ByStartEndDesc, name)
}

// sortWith is the context-aware external sort every sort-backed algorithm
// goes through, in the execution's working memory, with a phase span.
func sortWith(ctx *Context, rel *relation.Relation, key extsort.KeyFunc, name string) (*relation.Relation, error) {
	sp := ctx.Trace.StartDetail("sort", name)
	out, err := ctx.scratch().sort.Sort(ctx.Pool, rel, key, ctx.b(), ctx.tmp(name), ctx.Trace)
	ctx.Trace.End(sp)
	return out, err
}

// stack is the ancestor stack shared by the merge joins: a chain of nested
// regions, bottom = outermost. Its depth is bounded by the PBiTree height.
type stack []relation.Rec

func (st *stack) push(r relation.Rec) { *st = append(*st, r) }
func (st *stack) popBelow(start uint64) {
	s := *st
	for len(s) > 0 && s[len(s)-1].Code.End() < start {
		s = s[:len(s)-1]
	}
	*st = s
}

// chain returns the entries that properly contain d: every entry satisfies
// s.Start <= d.Start <= s.End already, and the entries nest, so their
// heights fall from the bottom up and the proper ancestors under
// closed-region semantics are the prefix above d's height — the entries
// whose lowest set bit, 2^height, is above d's.
func (st stack) chain(d pbicode.Code) stack {
	low, n := d&-d, len(st)
	for n > 0 && st[n-1].Code&-st[n-1].Code <= low {
		n--
	}
	return st[:n]
}

// emitMatches emits (s, d) for every stack entry that properly contains d.
func (st stack) emitMatches(d relation.Rec, sink Sink) error {
	for _, s := range st.chain(d.Code) {
		if err := sink.Emit(s, d); err != nil {
			return err
		}
	}
	return nil
}

// docScan reads a relation a page at a time for the merge joins and checks
// as it goes that the relation is in the document order they rely on: one
// DocLess a record, failing with ErrOrderClaim at the first record that
// precedes the one before it. A claim of order that Attach took on trust
// is thus never merged past the point where it is found false.
type docScan struct {
	rel   *relation.Relation
	s     *relation.BatchScanner
	codes []uint64
	aux   []uint64
	i     int
	prev  uint64 // the previous record's code
	err   error
}

// noneBefore is a code no code precedes in document order: its region
// starts at 1, and no region that starts there is longer.
const noneBefore = 1 << 63

func newDocScan(r *relation.Relation) docScan {
	return docScan{rel: r, s: r.BatchScan(), i: -1, prev: noneBefore}
}

// next moves onto the next record, reporting false at the end of the
// relation or on an error, which err then holds.
func (c *docScan) next() bool {
	if c.i++; c.i < len(c.codes) && !relation.DocLess(pbicode.Code(c.codes[c.i]), pbicode.Code(c.prev)) {
		c.prev = c.codes[c.i]
		return true
	}
	return c.advance()
}

// advance is next past the end of a page, or onto a record out of order.
func (c *docScan) advance() bool {
	for c.i >= len(c.codes) {
		if !c.s.Next() {
			return c.fail(c.s.Err())
		}
		c.codes, c.aux, c.i = c.s.Codes(), c.s.Aux(), 0
	}
	code := c.codes[c.i]
	if relation.DocLess(pbicode.Code(code), pbicode.Code(c.prev)) {
		return c.fail(orderError(c.rel))
	}
	c.prev = code
	return true
}

// fail ends the scan with err (nil at the end of the relation).
func (c *docScan) fail(err error) bool {
	c.codes, c.i, c.err = nil, 0, err
	return false
}

// code returns the current record's code; rec the whole record.
func (c *docScan) code() pbicode.Code { return pbicode.Code(c.codes[c.i]) }
func (c *docScan) rec() relation.Rec {
	return relation.Rec{Code: pbicode.Code(c.codes[c.i]), Aux: c.aux[c.i]}
}

// drain reads the rest of the relation, checking its order, when the claim
// was taken on trust: a merge that stops reading an input early would
// otherwise never see a record that a false claim put too late — one that
// belonged before what the merge already joined. A claim its appends made
// is exact and needs no reading.
func (c *docScan) drain() error {
	if c.err == nil && c.codes != nil && c.rel.OrderTrusted() {
		for c.next() {
		}
	}
	return c.err
}

func (c *docScan) close() { c.s.Close() }

// StackTree evaluates the stack-tree-desc join over document-ordered
// inputs: the optimal one-pass merge, output ordered by descendant. Both
// inputs are read a page at a time and checked to be in the order they
// claim (docScan); a false claim fails the join with ErrOrderClaim. D is
// read in full, and A too when its order was taken on trust (drain).
//
// A sink that takes a descendant's ancestors in one call (ChainSink) gets
// each matched descendant once, with the stack prefix that contains it;
// the merge counts its pairs and polls cancellation every 1024 of them, as
// the counting sink does for every other sink, which sees every pair.
func StackTree(ctx *Context, a, d *relation.Relation, sink Sink) error {
	sp := ctx.Trace.Start("merge-scan")
	defer ctx.Trace.End(sp)
	chains, _ := sink.(ChainSink)
	if chains == nil {
		sink = ctx.Wrap(sink)
	}
	countOnly := sink == Discard
	stats := ctx.stats()
	sc := ctx.scratch()
	st := sc.stack[:0]
	defer func() { sc.stack = st[:0] }()
	// The merge compares codes as relation.DocLess does, by c&(c-1),
	// Start-1, and on a tie by the code itself, larger first; a region
	// ends at c|(c-1). D's order is checked inline against prevS/prevC;
	// aS and aC are the next ancestor-side record's, aS all ones once A is
	// done, which no record reaches. top is the End of the stack's top
	// entry, all ones when the stack is empty.
	as := newDocScan(a)
	defer as.close()
	aS, aC := ^uint64(0), uint64(0)
	if as.next() {
		aC = uint64(as.code())
		aS = aC & (aC - 1)
	}
	top := ^uint64(0)
	pop := func(upTo uint64) {
		for top <= upTo {
			st = st[:len(st)-1]
			if top = ^uint64(0); len(st) > 0 {
				c := st[len(st)-1].Code
				top = uint64(c | (c - 1))
			}
		}
	}
	prevS, prevC := uint64(0), uint64(noneBefore)
	ds := d.BatchScan()
	defer ds.Close()
	for ds.Next() {
		codes, aux := ds.Codes(), ds.Aux()
		for i, c := range codes {
			s := c & (c - 1)
			if s < prevS || s == prevS && c > prevC {
				return orderError(d)
			}
			prevS, prevC = s, c
			// Open every ancestor-side region that starts first (or ties
			// as the ancestor) and has not ended before d starts, closing
			// those that end before it. A region that ended before d
			// contains no later descendant either: it is not opened.
			for s > aS || s == aS && c <= aC {
				if end := aC | (aC - 1); end > s {
					pop(aS)
					st = append(st, as.rec())
					top = end
				}
				// as.next, its in-page case inlined.
				if as.i++; as.i < len(as.codes) && !relation.DocLess(pbicode.Code(as.codes[as.i]), pbicode.Code(aC)) {
					aC = as.codes[as.i]
					aS, as.prev = aC&(aC-1), aC
				} else if as.advance() {
					aC = uint64(as.code())
					aS = aC & (aC - 1)
				} else if as.err != nil {
					return as.err
				} else {
					aS, aC = ^uint64(0), 0
				}
			}
			pop(s)
			if len(st) == 0 {
				continue
			}
			dc := pbicode.Code(c)
			anc := st.chain(dc)
			if len(anc) == 0 {
				continue
			}
			if chains == nil {
				dr := relation.Rec{Code: dc, Aux: aux[i]}
				for _, ar := range anc {
					if err := sink.Emit(ar, dr); err != nil {
						return err
					}
				}
				continue
			}
			n := stats.Pairs
			stats.Pairs += int64(len(anc))
			if n>>10 != stats.Pairs>>10 {
				if err := ctx.Canceled(); err != nil {
					return err
				}
			}
			if countOnly {
				continue
			}
			if err := chains.EmitChain(anc, relation.Rec{Code: dc, Aux: aux[i]}); err != nil {
				return err
			}
		}
	}
	if err := ds.Err(); err != nil {
		return err
	}
	return as.drain()
}

// StackTreeOnTheFly sorts both inputs into document order (cost charged)
// and runs StackTree — the paper's STACKTREE baseline for unsorted data.
func StackTreeOnTheFly(ctx *Context, a, d *relation.Relation, sink Sink) error {
	sa, err := SortByDoc(ctx, a, "st.a")
	if err != nil {
		return err
	}
	defer sa.Free() //nolint:errcheck // cleanup
	sd, err := SortByDoc(ctx, d, "st.d")
	if err != nil {
		return err
	}
	defer sd.Free() //nolint:errcheck // cleanup
	return StackTree(ctx, sa, sd, sink)
}

// MPMGJN evaluates the multi-predicate merge join over document-ordered
// inputs: for each ancestor it scans the descendant segment within its
// region, re-reading shared segments for nested ancestors (the rescans the
// stack-tree join was invented to avoid; Stats.Rescans counts the repeat
// record reads). Both inputs are checked to be in the order they claim as
// they are read, each D record the first time it is; a false claim fails
// the join with ErrOrderClaim. When D's order was taken on trust, the part
// no segment reached is read to its end to check it.
func MPMGJN(ctx *Context, a, d *relation.Relation, sink Sink) error {
	sink = ctx.Wrap(sink)
	sp := ctx.Trace.Start("merge-scan")
	defer ctx.Trace.End(sp)
	stats := ctx.stats()
	as := newDocScan(a)
	defer as.close()
	var mark relation.Pos
	var markIdx int64 // the record index of mark
	// D's records before index seen are checked: last is the last of them,
	// behind the position after it.
	var seen int64
	var last pbicode.Code
	var behind relation.Pos
	var ds relation.Scanner // repositioned per ancestor, keeping its buffer
	defer ds.Close()
	for as.next() {
		ar := as.rec()
		ds.ResetFrom(d, mark)
		idx, read := markIdx, int64(0)
		for ds.Next() {
			dr := ds.Rec()
			if idx == seen {
				if seen > 0 && relation.DocLess(dr.Code, last) {
					return orderError(d)
				}
				seen, last, behind = seen+1, dr.Code, ds.Pos()
			}
			idx++
			read++
			if dr.Code.Start() < ar.Code.Start() {
				// dr can never join later ancestors either (their Starts
				// are >= ar's): advance the shared mark past it.
				mark, markIdx = ds.Pos(), idx
				read--
				continue
			}
			if dr.Code.Start() > ar.Code.End() {
				read-- // dr itself is not part of ar's segment
				break
			}
			if dr.Code.Height() < ar.Code.Height() {
				if err := sink.Emit(ar, dr); err != nil {
					return err
				}
			}
		}
		if err := ds.Err(); err != nil {
			return err
		}
		stats.Rescans += read
	}
	if as.err != nil {
		return as.err
	}
	if !d.OrderTrusted() || seen == 0 || seen == d.NumRecords() {
		return nil // nothing joined, or every record checked
	}
	ds.ResetFrom(d, behind)
	for ds.Next() {
		c := ds.Rec().Code
		if relation.DocLess(c, last) {
			return orderError(d)
		}
		last = c
	}
	return ds.Err()
}

// MPMGJNOnTheFly sorts both inputs (cost charged) and runs MPMGJN.
func MPMGJNOnTheFly(ctx *Context, a, d *relation.Relation, sink Sink) error {
	sa, err := SortByDoc(ctx, a, "mp.a")
	if err != nil {
		return err
	}
	defer sa.Free() //nolint:errcheck // cleanup
	sd, err := SortByDoc(ctx, d, "mp.d")
	if err != nil {
		return err
	}
	defer sd.Free() //nolint:errcheck // cleanup
	return MPMGJN(ctx, sa, sd, sink)
}

// pairList is a singly linked list of pending result pairs inside an
// ancArena: 1-based node indexes, 0 = empty. Appending a pair and splicing
// one whole list behind another are both O(1).
type pairList struct{ head, tail int }

// ancNode is one pending pair and the index of the next one in its list.
type ancNode struct {
	pair Pair
	next int
}

// ancEntry is one open ancestor on StackTreeAnc's stack.
type ancEntry struct {
	rec     relation.Rec
	self    pairList // (rec, d) results, in d order
	inherit pairList // results of popped descendants, already ordered
}

// ancArena is StackTreeAnc's working memory (part of Scratch): every
// pending pair is a node of one flat arena, and each stack entry's self and
// inherit lists are chains through it, so popping an entry splices its
// lists into its parent's instead of copying them and no entry owns a
// slice of its own.
type ancArena struct {
	nodes []ancNode
	stack []ancEntry
}

func (ar *ancArena) push(l *pairList, p Pair) {
	ar.nodes = append(ar.nodes, ancNode{pair: p})
	idx := len(ar.nodes)
	if l.tail == 0 {
		l.head = idx
	} else {
		ar.nodes[l.tail-1].next = idx
	}
	l.tail = idx
}

func (ar *ancArena) splice(dst *pairList, src pairList) {
	switch {
	case src.head == 0:
	case dst.tail == 0:
		*dst = src
	default:
		ar.nodes[dst.tail-1].next = src.head
		dst.tail = src.tail
	}
}

// StackTreeAnc evaluates the stack-tree-anc join over document-ordered
// inputs, checked as StackTree checks them: same merge, but results are
// delivered ordered by ancestor. Pairs whose ancestor is still open are
// buffered on the stack (self lists) and cascade through inherit lists on
// pops, exactly as in Al-Khalifa et al.; buffering is in memory,
// proportional to the pending result size.
func StackTreeAnc(ctx *Context, a, d *relation.Relation, sink Sink) error {
	sink = ctx.Wrap(sink)
	sp := ctx.Trace.Start("merge-scan")
	defer ctx.Trace.End(sp)
	arena := &ctx.scratch().anc
	arena.nodes, arena.stack = arena.nodes[:0], arena.stack[:0]
	// The pending-pair arena is as large as the result while an outermost
	// ancestor stays open, which no page budget bounds: keep it for the
	// next join only up to b pages' worth of nodes.
	defer func() {
		if int64(cap(arena.nodes)) > ctx.memRecs(ctx.b()) {
			arena.nodes = nil
		}
	}()
	flush := func(l pairList) error {
		for i := l.head; i != 0; i = arena.nodes[i-1].next {
			p := arena.nodes[i-1].pair
			if err := sink.Emit(relation.Rec{Code: p.A}, relation.Rec{Code: p.D}); err != nil {
				return err
			}
		}
		return nil
	}
	pop := func() error {
		top := arena.stack[len(arena.stack)-1]
		arena.stack = arena.stack[:len(arena.stack)-1]
		if len(arena.stack) == 0 {
			if err := flush(top.self); err != nil {
				return err
			}
			if err := flush(top.inherit); err != nil {
				return err
			}
			arena.nodes = arena.nodes[:0] // nothing is pending any more
			return nil
		}
		parent := &arena.stack[len(arena.stack)-1]
		arena.splice(&parent.inherit, top.self)
		arena.splice(&parent.inherit, top.inherit)
		return nil
	}
	popBelow := func(start uint64) error {
		for len(arena.stack) > 0 && arena.stack[len(arena.stack)-1].rec.Code.End() < start {
			if err := pop(); err != nil {
				return err
			}
		}
		return nil
	}
	as, ds := newDocScan(a), newDocScan(d)
	defer as.close()
	defer ds.close()
	hasA, hasD := as.next(), ds.next()
	for hasD {
		if hasA && !relation.DocLess(ds.code(), as.code()) {
			ar := as.rec()
			if err := popBelow(ar.Code.Start()); err != nil {
				return err
			}
			arena.stack = append(arena.stack, ancEntry{rec: ar})
			hasA = as.next()
			continue
		}
		dr := ds.rec()
		if err := popBelow(dr.Code.Start()); err != nil {
			return err
		}
		hd := dr.Code.Height()
		for i := range arena.stack {
			if e := &arena.stack[i]; e.rec.Code.Height() > hd {
				arena.push(&e.self, Pair{A: e.rec.Code, D: dr.Code})
			}
		}
		hasD = ds.next()
	}
	if ds.err != nil {
		return ds.err
	}
	if err := as.drain(); err != nil {
		return err
	}
	for len(arena.stack) > 0 {
		if err := pop(); err != nil {
			return err
		}
	}
	return nil
}
