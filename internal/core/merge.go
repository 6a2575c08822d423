package core

import (
	"github.com/pbitree/pbitree/internal/extsort"
	"github.com/pbitree/pbitree/internal/relation"
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

// emitMatches emits (s, d) for every stack entry that properly contains d.
// Every entry satisfies s.Start <= d.Start <= s.End already; the height
// guard selects proper ancestors under closed-region semantics.
func (st stack) emitMatches(d relation.Rec, sink Sink) error {
	hd := d.Code.Height()
	for _, s := range st {
		if s.Code.Height() > hd {
			if err := sink.Emit(s, d); err != nil {
				return err
			}
		}
	}
	return nil
}

// StackTree evaluates the stack-tree-desc join over document-ordered
// inputs: optimal one-pass merge, output ordered by descendant.
func StackTree(ctx *Context, a, d *relation.Relation, sink Sink) error {
	sink = ctx.Wrap(sink)
	sp := ctx.Trace.Start("merge-scan")
	defer ctx.Trace.End(sp)
	as, ds := a.Scan(), d.Scan()
	defer as.Close()
	defer ds.Close()
	var st stack
	hasA, hasD := as.Next(), ds.Next()
	for hasD {
		if hasA && !relation.DocLess(ds.Rec().Code, as.Rec().Code) {
			// The ancestor-side element starts first (or ties as the
			// ancestor): open its region on the stack.
			ar := as.Rec()
			st.popBelow(ar.Code.Start())
			st.push(ar)
			hasA = as.Next()
			continue
		}
		dr := ds.Rec()
		st.popBelow(dr.Code.Start())
		if err := st.emitMatches(dr, sink); err != nil {
			return err
		}
		hasD = ds.Next()
	}
	if err := as.Err(); err != nil {
		return err
	}
	return ds.Err()
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
// record reads).
func MPMGJN(ctx *Context, a, d *relation.Relation, sink Sink) error {
	sink = ctx.Wrap(sink)
	sp := ctx.Trace.Start("merge-scan")
	defer ctx.Trace.End(sp)
	stats := ctx.stats()
	as := a.Scan()
	defer as.Close()
	var mark relation.Pos
	var ds relation.Scanner // repositioned per ancestor, keeping its buffer
	defer ds.Close()
	for as.Next() {
		ar := as.Rec()
		ds.ResetFrom(d, mark)
		read := int64(0)
		for ds.Next() {
			dr := ds.Rec()
			read++
			if dr.Code.Start() < ar.Code.Start() {
				// dr can never join later ancestors either (their Starts
				// are >= ar's): advance the shared mark past it.
				mark = ds.Pos()
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
	return as.Err()
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
// inputs: same merge as StackTree, but results are delivered ordered by
// ancestor. Pairs whose ancestor is still open are buffered on the stack
// (self lists) and cascade through inherit lists on pops, exactly as in
// Al-Khalifa et al.; buffering is in memory, proportional to the pending
// result size.
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
	as, ds := a.Scan(), d.Scan()
	defer as.Close()
	defer ds.Close()
	hasA, hasD := as.Next(), ds.Next()
	for hasD {
		if hasA && !relation.DocLess(ds.Rec().Code, as.Rec().Code) {
			ar := as.Rec()
			if err := popBelow(ar.Code.Start()); err != nil {
				return err
			}
			arena.stack = append(arena.stack, ancEntry{rec: ar})
			hasA = as.Next()
			continue
		}
		dr := ds.Rec()
		if err := popBelow(dr.Code.Start()); err != nil {
			return err
		}
		hd := dr.Code.Height()
		for i := range arena.stack {
			if e := &arena.stack[i]; e.rec.Code.Height() > hd {
				arena.push(&e.self, Pair{A: e.rec.Code, D: dr.Code})
			}
		}
		hasD = ds.Next()
	}
	if err := as.Err(); err != nil {
		return err
	}
	if err := ds.Err(); err != nil {
		return err
	}
	for len(arena.stack) > 0 {
		if err := pop(); err != nil {
			return err
		}
	}
	return nil
}
