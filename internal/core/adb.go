package core

import (
	"github.com/pbitree/pbitree/internal/btree"
	"github.com/pbitree/pbitree/internal/relation"
)

// This file implements the ADB+ baseline (Chien et al.'s Anc_Des_B+): a
// stack-tree merge that walks the leaf levels of B+-trees on both inputs
// and uses index seeks to skip elements that cannot participate:
//
//   - when the stack is empty and the current ancestor's region closes
//     before the current descendant starts (a.End < d.Start), the whole
//     subtree of a — every following ancestor with Start <= a.End — is
//     skipped with one seek to the first Start > a.End;
//   - when the stack is empty and the current descendant starts before the
//     current ancestor (d.Start < a.Start), no remaining ancestor can
//     contain it or any earlier descendant, so D seeks to the first
//     Start >= a.Start.
//
// Both rules are safe for well-nested regions; Stats.IndexProbes counts
// the seeks. The on-the-fly variant indexes both inputs here (startIndex):
// an input with fences (relation.Fences) is its own index; any other, an
// ordered one whose claim is taken on trust included, is sorted and
// bulk-loaded, whose I/O is charged as in the paper's unsorted/unindexed
// setting.

// ADBPlus evaluates the index-assisted stack-tree join over existing
// B+-trees on A.Start and D.Start (leaf order must be document order,
// which BuildStartIndex guarantees).
func ADBPlus(ctx *Context, aIdx, dIdx *btree.Tree, sink Sink) error {
	return adbMerge(ctx, &treeIter{t: aIdx}, &treeIter{t: dIdx}, sink)
}

// adbMerge is ADB+'s merge over Start indexes on A and D, which it closes.
func adbMerge(ctx *Context, aIdx, dIdx startIter, sink Sink) error {
	sink = ctx.Wrap(sink)
	sp := ctx.Trace.Start("merge-scan")
	defer ctx.Trace.End(sp)
	stats := ctx.stats()
	ac, dc := cursor{it: aIdx}, cursor{it: dIdx}
	defer aIdx.close()
	defer dIdx.close()
	if err := ac.seek(0); err != nil || !ac.ok {
		return err
	}
	// No descendant before the first ancestor's Start joins.
	if err := dc.seek(ac.rec.Code.Start()); err != nil {
		return err
	}

	sc := ctx.scratch()
	st := sc.stack[:0]
	defer func() { sc.stack = st[:0] }()
	for dc.ok {
		if ac.ok && !relation.DocLess(dc.rec.Code, ac.rec.Code) {
			ar := ac.rec
			if len(st) == 0 && ar.Code.End() < dc.rec.Code.Start() {
				// Skip a's entire closed subtree: nothing in it can
				// contain the current or any later descendant.
				stats.IndexProbes++
				if err := ac.seek(ar.Code.End() + 1); err != nil {
					return err
				}
				continue
			}
			st.popBelow(ar.Code.Start())
			st.push(ar)
			ac.advance()
			if ac.err != nil {
				return ac.err
			}
			if !ac.ok {
				// The outermost open ancestor ends the descendants
				// that can still join.
				dIdx.bound(st[0].Code.End())
			}
			continue
		}
		dr := dc.rec
		if len(st) == 0 && ac.ok && dr.Code.Start() < ac.rec.Code.Start() {
			// No remaining ancestor can contain this descendant or any
			// earlier one: jump D forward.
			stats.IndexProbes++
			if err := dc.seek(ac.rec.Code.Start()); err != nil {
				return err
			}
			continue
		}
		if len(st) == 0 && !ac.ok {
			break // no open ancestors and none to come
		}
		st.popBelow(dr.Code.Start())
		if err := st.emitMatches(dr, sink); err != nil {
			return err
		}
		dc.advance()
		if dc.err != nil {
			return dc.err
		}
	}
	if ac.err != nil {
		return ac.err
	}
	return dc.err
}

// ADBPlusOnTheFly indexes both inputs on Start (startIndex: an input with
// fences is its own index; any other, an ordered one whose claim is taken
// on trust included, is sorted and bulk-loaded, cost charged) and runs
// ADB+'s merge — the paper's ADB+ baseline in the neither-sorted-nor-indexed
// setting.
func ADBPlusOnTheFly(ctx *Context, a, d *relation.Relation, sink Sink) error {
	sc := ctx.scratch()
	aIdx, err := startIndex(ctx, a, "adb.a", &sc.fences[0])
	if err != nil {
		return err
	}
	dIdx, err := startIndex(ctx, d, "adb.d", &sc.fences[1])
	if err != nil {
		aIdx.close()
		return err
	}
	return adbMerge(ctx, aIdx, dIdx, sink)
}
