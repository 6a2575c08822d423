package core

import (
	"github.com/pbitree/pbitree/internal/btree"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/pbicode"
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
// the seeks. The on-the-fly variant builds both indexes here, charging
// sort + bulk-load I/O, matching the paper's unsorted/unindexed setting.

// treeCursor walks B+-tree leaf entries as (Start, Code) records.
type treeCursor struct {
	t   *btree.Tree
	it  btree.Iter // repositioned in place by every skip seek
	rec relation.Rec
	ok  bool
	err error
}

// seek repositions the cursor at the first entry with Start >= k and
// advances onto it.
func (c *treeCursor) seek(k uint64) error {
	if err := c.t.SeekInto(&c.it, k); err != nil {
		c.ok = false
		return err
	}
	c.advance()
	return c.err
}

func (c *treeCursor) advance() {
	if c.it.Next() {
		c.rec = relation.Rec{Code: pbicode.Code(c.it.Val())}
		c.ok = true
		return
	}
	c.ok = false
	c.err = c.it.Err()
}

// ADBPlus evaluates the index-assisted stack-tree join over existing
// B+-trees on A.Start and D.Start (leaf order must be document order,
// which BuildStartIndex guarantees).
func ADBPlus(ctx *Context, aIdx, dIdx *btree.Tree, sink Sink) error {
	sink = ctx.Wrap(sink)
	sp := ctx.Trace.Start("merge-scan")
	defer ctx.Trace.End(sp)
	stats := ctx.stats()
	ac, dc := treeCursor{t: aIdx}, treeCursor{t: dIdx}
	defer ac.it.Close()
	defer dc.it.Close()
	if err := ac.seek(0); err != nil {
		return err
	}
	if err := dc.seek(0); err != nil {
		return err
	}

	var st stack
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

// ADBPlusOnTheFly builds both Start indexes (sort + bulk-load, cost
// charged) and runs ADBPlus — the paper's ADB+ baseline in the
// neither-sorted-nor-indexed setting.
func ADBPlusOnTheFly(ctx *Context, a, d *relation.Relation, sink Sink) error {
	aIdx, err := BuildStartIndex(ctx, a, "adb.a")
	if err != nil {
		return err
	}
	dIdx, err := BuildStartIndex(ctx, d, "adb.d")
	if err != nil {
		return err
	}
	return ADBPlus(ctx, aIdx, dIdx, sink)
}
