package core

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/trace"
	"github.com/pbitree/pbitree/pbicode"
)

// This file implements the horizontal partitioning algorithms of section
// 3.2: SHCJ (Algorithm 2), MHCJ (Algorithm 3) and MHCJ+Rollup (Algorithm 4).
// They turn the containment θ-join into equijoins on F(D.Code, h) and
// require neither sorted inputs nor indexes.

// SHCJ evaluates the single-height containment join (Algorithm 2): all
// records of a must be at PBiTree height h; the join becomes the equijoin
// A ⋈_{A.Code = F(D.Code, h)} D.
func SHCJ(ctx *Context, a, d *relation.Relation, h int, sink Sink) error {
	if h <= 0 {
		return fmt.Errorf("core: SHCJ needs the ancestor height, got %d", h)
	}
	return equiJoin(ctx, a, d, h, nil, ctx.Wrap(sink), 0)
}

// SHCJAuto runs SHCJ after reading the (single) ancestor height from the
// first record of a. The caller guarantees a is single-height; an empty a
// joins to nothing, and so does a set of leaves: height-0 nodes have no
// proper descendants.
func SHCJAuto(ctx *Context, a, d *relation.Relation, sink Sink) error {
	s := a.Scan()
	if !s.Next() {
		err := s.Err()
		s.Close()
		return err
	}
	h := s.Rec().Code.Height()
	s.Close()
	if h == 0 {
		return nil
	}
	return SHCJ(ctx, a, d, h, sink)
}

// MHCJ evaluates the multiple-height containment join (Algorithm 3): it
// splits a into per-height partition files in one scan, then runs SHCJ of
// each partition against d. The per-partition results are disjoint, so
// they stream straight to sink.
func MHCJ(ctx *Context, a, d *relation.Relation, sink Sink) error {
	return mhcj(ctx, a, d, ctx.Wrap(sink))
}

func mhcj(ctx *Context, a, d *relation.Relation, sink Sink) error {
	psp := ctx.Trace.Start("partition")
	parts, heights, err := partitionByHeight(ctx, a)
	if psp != nil {
		psp.Detail = fmt.Sprintf("heights=%d", len(heights))
	}
	ctx.Trace.End(psp)
	if err != nil {
		return err
	}
	defer func() {
		for _, p := range parts {
			if p != nil {
				p.Free() //nolint:errcheck // cleanup
			}
		}
	}()
	for _, h := range heights {
		sp := ctx.Trace.StartDetail("equijoin", fmt.Sprintf("h=%d", h))
		err := equiJoin(ctx, parts[h], d, h, nil, sink, 0)
		ctx.Trace.End(sp)
		if err != nil {
			return err
		}
		if err := parts[h].Free(); err != nil {
			return err
		}
		parts[h] = nil
	}
	return nil
}

// partitionByHeight splits rel into one relation per distinct record
// height, opened lazily during a single scan. Each partition holds one
// output frame, so when the distinct heights exceed the frame budget the
// scan runs in waves — up to b-2 new heights per pass, extra passes
// charged like any other read (only relevant for tiny pools; the paper's
// experiments keep one frame per height). Returns the partitions indexed
// by height plus the heights present in ascending order.
func partitionByHeight(ctx *Context, rel *relation.Relation) (map[int]*relation.Relation, []int, error) {
	parts := make(map[int]*relation.Relation)
	var s relation.BatchScanner
	for {
		apps := make(map[int]*relation.Appender)
		// Closing an appender allocates its tail page, so the order is
		// ascending height, not the map's: page IDs, and with them the
		// sequential-access counters, repeat from run to run.
		closeApps := func() error {
			open := make([]int, 0, len(apps))
			for h := range apps {
				open = append(open, h)
			}
			slices.Sort(open)
			var first error
			for _, h := range open {
				if err := apps[h].Close(); err != nil && first == nil {
					first = err
				}
			}
			return first
		}
		// fail cleans up on any error: the caller only sees (and frees) a
		// successfully returned map, so the partitions created so far must
		// be freed here or they leak.
		fail := func(err error) (map[int]*relation.Relation, []int, error) {
			closeApps() //nolint:errcheck // first error wins
			for _, p := range parts {
				p.Free() //nolint:errcheck // cleanup after earlier error
			}
			return nil, nil, err
		}
		deferred := false
		s.Reset(rel)
		for s.Next() {
			codes, aux := s.Codes(), s.Aux()
			for i, c := range codes {
				h := bits.TrailingZeros64(c)
				ap, ok := apps[h]
				if !ok {
					if parts[h] != nil {
						continue // an earlier wave wrote this height
					}
					if len(apps)+2 > ctx.b() {
						deferred = true // another wave picks this height up
						continue
					}
					parts[h] = relation.NewLike(rel, ctx.Pool, ctx.tmp(fmt.Sprintf("mhcj.h%d", h)))
					ap = parts[h].NewAppender()
					apps[h] = ap
					ctx.stats().Partitions++
				}
				if err := ap.Append(relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}); err != nil {
					return fail(err)
				}
			}
		}
		if err := s.Err(); err != nil {
			return fail(err)
		}
		if err := closeApps(); err != nil {
			return fail(err) // closing again is harmless
		}
		if !deferred {
			break
		}
	}
	heights := make([]int, 0, len(parts))
	for h := range parts {
		heights = append(heights, h)
	}
	slices.Sort(heights)
	return parts, heights, nil
}

// verifySink post-filters rollup matches: the rolled ancestor record
// carries the original code in Aux; only pairs where the original node is
// a proper ancestor survive (Algorithm 4's pipelined check). False hits
// are counted for Table 2(f).
type verifySink struct {
	sink  Sink
	stats *Stats
}

func (s verifySink) Emit(a, d relation.Rec) error {
	orig := pbicode.Code(a.Aux)
	if !pbicode.IsAncestor(orig, d.Code) {
		s.stats.FalseHits++
		return nil
	}
	return s.sink.Emit(relation.Rec{Code: orig, Aux: a.Aux}, d)
}

// rollPrep returns the on-the-fly rollup transform for target height h:
// records below h map to their height-h ancestor, Aux keeps the original
// code for verification. Records at or above h pass through (with Aux set
// to their own code so the verification filter is uniform).
func rollPrep(h int) aPrep {
	return func(r relation.Rec) relation.Rec {
		out := relation.Rec{Code: r.Code, Aux: uint64(r.Code)}
		if r.Code.Height() < h {
			out.Code = pbicode.F(r.Code, h)
		}
		return out
	}
}

// MHCJRollup evaluates MHCJ with the rollup technique (Algorithm 4): every
// ancestor below the target height h is replaced by its ancestor at h
// (keeping the original code for the pipelined verification filter), which
// collapses the horizontal partitions below h into one. The equijoin then
// over-matches and the filter drops false hits.
//
// targetH <= 0 picks the target from the heights the ancestor set occupies
// (ctx.AncestorHeights when set, catalog statistics; otherwise a pre-scan
// at the cost of one read of a). When a fits in memory the target is
// rollupTarget's: no record rolls up across a run of two or more empty
// heights, and the heights above the target — a near-root tail — are
// probed exactly in the same pass, one F key each, so the rollup happens on
// the fly during the join's own scan of a, the 3(‖A‖+‖D‖) case of the
// paper's "simple strategy", without collapsing the tail's subtrees onto
// one join key. When a does not fit, the target over catalog statistics is
// the highest occupied height, the simple strategy itself, and without
// statistics the pre-scan's 99th height percentile.
func MHCJRollup(ctx *Context, a, d *relation.Relation, targetH int, sink Sink) error {
	return mhcjRollup(ctx, a, d, targetH, ctx.Wrap(sink))
}

// mhcjRollup is MHCJRollup against an already-wrapped sink, so that
// composite algorithms (VPJ's fallbacks) do not double-count pairs.
func mhcjRollup(ctx *Context, a, d *relation.Relation, targetH int, sink Sink) error {
	heights := ctx.AncestorHeights
	var hist *[64]int64 // from the pre-scan: a relation without statistics
	if heights == 0 {
		hsp := ctx.Trace.Start("height-scan")
		h, err := HeightHistogram(a)
		ctx.Trace.End(hsp)
		if err != nil {
			return err
		}
		hist, heights = &h, heightMask(&h)
		if heights == 0 { // an empty ancestor set joins to nothing
			return nil
		}
	}
	top := bits.Len64(heights) - 1
	var tail uint64 // heights above an automatic target, probed exactly
	if targetH <= 0 {
		switch {
		case a.NumRecords() <= ctx.memRecs(ctx.b()-2):
			targetH = rollupTarget(heights)
			tail = heights &^ (1<<uint(targetH+1) - 1)
		case hist != nil:
			// The Grace path without statistics: a single near-root outlier
			// would collapse every ancestor onto one join key and the
			// equijoin degenerate toward a cross product. Target the 99th
			// height percentile instead; the records above it keep exact
			// partitions (rollupSplit).
			targetH = quantileHeight(hist, 0.99)
		default:
			targetH = top // the Grace path over catalog statistics
		}
	}
	vs := verifySink{sink: sink, stats: ctx.stats()}
	if targetH >= top || tail != 0 {
		// Everything at or below targetH rolls to one height during the
		// join's own scan of a; a single equijoin, plus the tail's keys.
		var sp *trace.Span
		if ctx.Trace != nil {
			sp = ctx.Trace.StartDetail("equijoin", rollupDetail(targetH, tail))
		}
		var err error
		if tail == 0 {
			err = equiJoin(ctx, a, d, targetH, rollPrep(targetH), vs, 0)
		} else {
			err = hashJoinBuildA(ctx, a, d, targetH, tail, rollPrep(targetH), vs)
		}
		ctx.Trace.End(sp)
		return err
	}
	// A forced target below the highest height: heights above targetH
	// survive the rollup. Split the scan: records at or below targetH roll
	// into one equijoin input; the higher records go to a side file joined
	// in a single multi-height pass over D.
	ssp := ctx.Trace.StartDetail("rollup-split", fmt.Sprintf("h=%d", targetH))
	rolled := relation.NewLike(a, ctx.Pool, ctx.tmp("rollup"))
	high := relation.NewLike(a, ctx.Pool, ctx.tmp("rollup.high"))
	// Freed on every exit, including split-scan errors below; the error
	// paths close both appenders first so Free can discard the tail pages.
	defer rolled.Free() //nolint:errcheck // cleanup
	defer high.Free()   //nolint:errcheck // cleanup
	rApp, hApp := rolled.NewAppender(), high.NewAppender()
	if err := rollupSplit(a, targetH, rApp, hApp); err != nil {
		rApp.Close() //nolint:errcheck // first error wins
		hApp.Close() //nolint:errcheck // first error wins
		return err
	}
	errR, errH := rApp.Close(), hApp.Close()
	if errR != nil {
		return errR
	}
	if errH != nil {
		return errH
	}
	ctx.Trace.End(ssp)
	if rolled.NumRecords() > 0 {
		sp := ctx.Trace.StartDetail("equijoin", rollupDetail(targetH, 0))
		err := equiJoin(ctx, rolled, d, targetH, nil, vs, 0)
		ctx.Trace.End(sp)
		if err != nil {
			return err
		}
	}
	if high.NumRecords() == 0 {
		return nil
	}
	if high.NumRecords() <= ctx.memRecs(ctx.b()-2) {
		// The multi-height probe join: every height high occupies probed in
		// one pass over d, exact, so no verification.
		sp := ctx.Trace.Start("multi-probe")
		err := joinBuildA(ctx, high, d, 0, nil, sink)
		ctx.Trace.End(sp)
		return err
	}
	// A heavy above-target tail: per-height equijoins as in plain MHCJ.
	return mhcj(ctx, high, d, vs)
}

// rollupTarget returns the automatic rollup target for an ancestor set
// occupying heights (non-zero): the highest occupied height reachable from
// the lowest one without crossing a run of two or more empty heights. A
// record rolled up to it therefore never crosses such a run; the occupied
// heights above it are the set's tail. A set without such a run rolls to
// its highest height, the paper's simple strategy.
func rollupTarget(heights uint64) int {
	t := bits.TrailingZeros64(heights)
	for rest := heights >> uint(t+1); rest != 0; {
		gap := bits.TrailingZeros64(rest) // empty heights before the next occupied one
		if gap >= 2 {
			break
		}
		t += gap + 1
		rest >>= uint(gap + 1)
	}
	return t
}

// rollupDetail names a rollup equijoin's span: its target height and the
// tail heights it probes exactly, if any ("rollup h=26 tail=36").
func rollupDetail(targetH int, tail uint64) string {
	var buf [48]byte
	b := strconv.AppendInt(append(buf[:0], "rollup h="...), int64(targetH), 10)
	sep := " tail="
	for m := tail; m != 0; m &= m - 1 {
		b = strconv.AppendInt(append(b, sep...), int64(bits.TrailingZeros64(m)), 10)
		sep = ","
	}
	return string(b)
}

// rollupSplit scans a once, routing records above targetH (with Aux set
// to their own code) to hApp and everything else, rolled up as rollPrep
// would, to rApp.
func rollupSplit(a *relation.Relation, targetH int, rApp, hApp *relation.Appender) error {
	k := fKeyAt(targetH)
	s := a.BatchScan()
	for s.Next() {
		// Aux of the input is not read: the output Aux is the original code,
		// for the verification filter.
		for _, c := range s.Codes() {
			var err error
			if bits.TrailingZeros64(c) > targetH {
				err = hApp.Append(relation.Rec{Code: pbicode.Code(c), Aux: c})
			} else {
				rolled := c
				if c&k.low != 0 { // height below target: roll up
					rolled = c&k.mask | k.bit
				}
				err = rApp.Append(relation.Rec{Code: pbicode.Code(rolled), Aux: c})
			}
			if err != nil {
				return err
			}
		}
	}
	return s.Err()
}
