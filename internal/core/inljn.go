package core

import (
	"github.com/pbitree/pbitree/internal/btree"
	"github.com/pbitree/pbitree/internal/itree"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/pbicode"
)

// This file implements the index nested loop join of section 3.1. The
// smaller set becomes the outer relation; the index on the inner side is
// built on the fly when absent (the paper's experimental setting), with
// the sort and build I/O charged through the shared pool:
//
//   - inner = D: a B+-tree on D.Start; each ancestor probes the range
//     [a.Start, a.End].
//   - inner = A: a disk interval tree on A's regions (a B+-tree handles
//     this direction poorly — the paper proposes the interval tree); each
//     descendant stabs with d.Start.

// btreeSource adapts a document-ordered relation scan to a bulk-load
// source keyed by region Start with the code as value. It checks the order
// as it reads, so that an input whose order claim is false (SortByDoc does
// not sort it) fails the build with ErrOrderClaim instead of making a tree
// whose leaves are out of order.
type btreeSource struct {
	rel  *relation.Relation
	s    *relation.Scanner
	prev pbicode.Code
	err  error
}

func (b *btreeSource) Next() bool {
	if !b.s.Next() {
		return false
	}
	c := b.s.Rec().Code
	if relation.DocLess(c, b.prev) {
		b.err = orderError(b.rel)
		return false
	}
	b.prev = c
	return true
}

func (b *btreeSource) Key() uint64 { return b.s.Rec().Code.Start() }
func (b *btreeSource) Val() uint64 { return uint64(b.s.Rec().Code) }
func (b *btreeSource) Err() error {
	if b.err != nil {
		return b.err
	}
	return b.s.Err()
}

// BuildStartIndex sorts rel into document order and bulk-loads a B+-tree
// on region Start (value = code). It returns the tree; the sorted
// intermediate is freed.
func BuildStartIndex(ctx *Context, rel *relation.Relation, name string) (*btree.Tree, error) {
	sp := ctx.Trace.StartDetail("index-build", name)
	defer ctx.Trace.End(sp)
	sorted, err := SortByDoc(ctx, rel, name)
	if err != nil {
		return nil, err
	}
	defer sorted.Free() //nolint:errcheck // cleanup
	s := sorted.Scan()
	defer s.Close()
	return btree.BulkLoad(ctx.Pool, &btreeSource{rel: rel, s: s, prev: noneBefore}, 1.0)
}

// BuildIntervalIndex builds the disk interval tree over rel's regions. The
// input is scanned once (cost charged); construction state is in memory,
// like a bulk load (see DESIGN.md's substitution notes).
func BuildIntervalIndex(ctx *Context, rel *relation.Relation) (*itree.Tree, error) {
	sp := ctx.Trace.StartDetail("index-build", "itree")
	defer ctx.Trace.End(sp)
	recs, err := rel.ReadAll()
	if err != nil {
		return nil, err
	}
	return itree.Build(ctx.Pool, recs)
}

// INLJN evaluates the index nested loop join, building the inner index on
// the fly. The probe direction follows the paper's §3.1 heuristic,
// minimizing ‖outer‖ + |outer|·O(log |inner|) across the two choices.
func INLJN(ctx *Context, a, d *relation.Relation, sink Sink) error {
	sink = ctx.Wrap(sink)
	if inlCost(a, d) <= inlCost(d, a) {
		idx, err := BuildStartIndex(ctx, d, "inl.d")
		if err != nil {
			return err
		}
		return INLJNProbeDescendants(ctx, a, idx, sink)
	}
	idx, err := BuildIntervalIndex(ctx, a)
	if err != nil {
		return err
	}
	return INLJNProbeAncestors(ctx, idx, d, sink)
}

// inlCost estimates the paper's ‖outer‖ + |outer|·O(log |inner|) cost of
// probing inner with outer.
func inlCost(outer, inner *relation.Relation) int64 {
	logInner := int64(1)
	for n := inner.NumRecords(); n > 1; n /= 2 {
		logInner++
	}
	return outer.NumPages() + outer.NumRecords()*logInner/8
}

// INLJNProbeDescendants joins with an existing B+-tree on D.Start: for
// each ancestor, the descendants are the entries with Start in
// [a.Start, a.End] and lower height.
func INLJNProbeDescendants(ctx *Context, a *relation.Relation, dIdx *btree.Tree, sink Sink) error {
	sp := ctx.Trace.StartDetail("probe", "index=D")
	defer ctx.Trace.End(sp)
	stats := ctx.stats()
	s := a.Scan()
	defer s.Close()
	for s.Next() {
		ar := s.Rec()
		ha := ar.Code.Height()
		stats.IndexProbes++
		err := dIdx.Range(ar.Code.Start(), ar.Code.End(), func(key, val uint64) error {
			dc := pbicode.Code(val)
			if dc.Height() < ha {
				return sink.Emit(ar, relation.Rec{Code: dc})
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return s.Err()
}

// INLJNProbeAncestors joins with an existing interval tree on A's regions:
// each descendant stabs with its Start; results above its height are its
// ancestors.
func INLJNProbeAncestors(ctx *Context, aIdx *itree.Tree, d *relation.Relation, sink Sink) error {
	sp := ctx.Trace.StartDetail("probe", "index=A")
	defer ctx.Trace.End(sp)
	stats := ctx.stats()
	s := d.Scan()
	defer s.Close()
	for s.Next() {
		dr := s.Rec()
		hd := dr.Code.Height()
		stats.IndexProbes++
		err := aIdx.Stab(dr.Code.Start(), func(ar relation.Rec) error {
			if ar.Code.Height() > hd {
				return sink.Emit(ar, dr)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return s.Err()
}
