package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/pbicode"
)

// This file implements the vertical partitioning join of section 3.3
// (Algorithms 5 and 6): the tree is cut at a level l into k = 2^l subtrees;
// every element belongs to the partitions of the level-l nodes it is an
// ancestor or descendant of. Ancestor-set elements above the cut are
// replicated across their subtree's partition range; descendant-set
// elements above the cut go only to the leftmost partition of their range,
// which keeps the per-partition results disjoint (any ancestor of such an
// element spans a superset range and is therefore present in that leftmost
// partition). Partition pairs with an empty side are purged; pairs too
// large for the memory joins are repartitioned recursively at a deeper
// level.

// VPJ evaluates the vertical-partitioning containment join (Algorithm 5).
// ctx.TreeHeight must be the height of the PBiTree the codes come from.
func VPJ(ctx *Context, a, d *relation.Relation, sink Sink) error {
	if ctx.TreeHeight <= 0 {
		return fmt.Errorf("core: VPJ requires ctx.TreeHeight")
	}
	return vpj(ctx, a, d, ctx.Wrap(sink), 1, 0)
}

// vpj is the recursive body; minLevel forces each recursion round to cut
// strictly deeper than its parent.
func vpj(ctx *Context, a, d *relation.Relation, sink Sink, minLevel, depth int) error {
	b := ctx.b()
	h := ctx.TreeHeight
	smaller := minRecs(a, d)
	if smaller == 0 {
		return nil
	}
	// Cases (a)/(b) of section 3.3: one side fits in memory — the
	// I/O-optimal ‖A‖+‖D‖ joins apply directly.
	if smaller <= ctx.memRecs(b-2) {
		return memoryContainmentJoin(ctx, a, d, sink)
	}
	lsp := ctx.Trace.StartDetail("vpj-level", fmt.Sprintf("depth=%d", depth))
	defer ctx.Trace.End(lsp)
	// Choose the cut level: k0 partitions of roughly the buffer size each
	// (Algorithm 5 line 1). The cut counts levels below the *common
	// ancestor of the data*, not below the root: documents embed
	// lopsidedly into the PBiTree (most elements share one subtree), and
	// cutting relative to the LCA keeps partitions balanced where
	// root-relative levels would put everything into one partition and
	// recurse needlessly.
	spanA, okA := a.Span()
	spanD, okD := d.Span()
	if !okA || !okD {
		return nil
	}
	lo, hi := spanA.Start, spanA.End
	if spanD.Start < lo {
		lo = spanD.Start
	}
	if spanD.End > hi {
		hi = spanD.End
	}
	anchor := pbicode.LCA(pbicode.Code(lo), pbicode.Code(hi))
	if ctx.VPJRootCut {
		// Ablation A8: the paper's literal root-relative cut levels.
		anchor = pbicode.Root(h)
	}
	base := anchor.Level(h)

	k0 := (smaller + ctx.memRecs(b) - 1) / ctx.memRecs(b)
	need := 1
	for int64(1)<<uint(need) < k0 {
		need++
	}
	// One extra level of slack: non-uniform data (high-selectivity
	// clusters) otherwise lands partitions just above the memory bound
	// and forces a recursion pass over most of the data. Extra
	// partitions are nearly free (they only add appender frames).
	need++
	l := base + need
	if l < minLevel {
		l = minLevel
	}
	maxSplit := 1
	for (1 << uint(maxSplit+1)) <= b-1 {
		maxSplit++
	}
	maxL := base + maxSplit
	if maxL > h-1 {
		maxL = h - 1
	}
	if l > maxL {
		l = maxL
	}
	if l <= base || l < minLevel || depth >= 24 {
		// Cannot cut deeper (degenerate tree region or recursion limit):
		// fall back to the rollup join, whose Grace hashing handles any
		// size within budget.
		return mhcjRollup(ctx, a, d, 0, sink)
	}
	k := 1 << uint(l-base)
	// offset is the leftmost level-l position index under the LCA.
	offset, _ := anchor.SubtreeRange(l, h)
	if depth+1 > ctx.stats().MaxRecursion {
		ctx.stats().MaxRecursion = depth + 1
	}

	psp := ctx.Trace.StartDetail("vpartition", fmt.Sprintf("l=%d k=%d depth=%d", l, k, depth))
	aParts, err := vPartition(ctx, a, l, offset, k, true)
	if err != nil {
		ctx.Trace.End(psp)
		return err
	}
	dParts, err := vPartition(ctx, d, l, offset, k, false)
	ctx.Trace.End(psp)
	if err != nil {
		freeAll(aParts)
		return err
	}
	defer freeAll(aParts)
	defer freeAll(dParts)
	for i := 0; i < k; i++ {
		ai, di := aParts[i], dParts[i]
		// Purge: a partition pair with an empty side yields nothing.
		if ai.NumRecords() == 0 || di.NumRecords() == 0 {
			continue
		}
		if minRecs(ai, di) <= ctx.memRecs(b-2) {
			err = memoryContainmentJoin(ctx, ai, di, sink)
		} else {
			err = vpj(ctx, ai, di, sink, l+1, depth+1)
		}
		if err != nil {
			return err
		}
		if err := ai.Free(); err != nil {
			return err
		}
		if err := di.Free(); err != nil {
			return err
		}
	}
	return nil
}

// vPartition writes rel into the k partitions of cut level l whose
// level-l position indexes start at offset (the data LCA's leftmost
// leaf-of-cut). For the ancestor side (replicate = true) records above the
// cut go to every partition in their (clamped) subtree range; for the
// descendant side they go to the leftmost one only. Records at or below
// the cut have exactly one partition: that of their level-l ancestor (or
// themselves).
func vPartition(ctx *Context, rel *relation.Relation, l int, offset uint64, k int, replicate bool) ([]*relation.Relation, error) {
	h := ctx.TreeHeight
	side := "vd"
	if replicate {
		side = "va"
	}
	parts := make([]*relation.Relation, k)
	apps := make([]*relation.Appender, k)
	for i := range parts {
		parts[i] = relation.NewLike(rel, ctx.Pool, ctx.tmp(side))
	}
	closeApps := func() error {
		var first error
		for _, ap := range apps {
			if ap != nil {
				if err := ap.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
		return first
	}
	// fail cleans up on any error: the caller never sees the partitions, so
	// they must be freed here or they leak.
	fail := func(err error) ([]*relation.Relation, error) {
		closeApps() //nolint:errcheck // first error wins
		freeAll(parts)
		return nil, err
	}
	appendTo := func(i int, r relation.Rec) error {
		if apps[i] == nil {
			apps[i] = parts[i].NewAppender()
			ctx.stats().Partitions++
		}
		return apps[i].Append(r)
	}
	cutHeight := h - l - 1 // height of the level-l nodes
	// route places one record of height rh.
	route := func(r relation.Rec, rh int) error {
		if rh >= h {
			return fmt.Errorf("core: code %v does not fit a PBiTree of height %d (ctx.TreeHeight too small)", r.Code, h)
		}
		if rh <= cutHeight {
			// At or below the cut: the level-l ancestor names the
			// partition. For a node at the cut, F at its own height is
			// itself.
			anc := pbicode.F(r.Code, cutHeight)
			alpha := uint64(anc) >> uint(cutHeight+1)
			if alpha < offset || alpha >= offset+uint64(k) {
				return fmt.Errorf("core: code %v outside the partitioning span (corrupt relation span?)", r.Code)
			}
			return appendTo(int(alpha-offset), r)
		}
		// Above the cut: clamp the subtree's partition range to the span
		// under the LCA (ancestors of the LCA cover all partitions).
		glo, ghi := r.Code.SubtreeRange(l, h)
		if glo < offset {
			glo = offset
		}
		if hiMax := offset + uint64(k) - 1; ghi > hiMax {
			ghi = hiMax
		}
		if ghi < glo {
			return fmt.Errorf("core: code %v outside the partitioning span (corrupt relation span?)", r.Code)
		}
		lo, hi := glo-offset, ghi-offset
		if !replicate {
			return appendTo(int(lo), r)
		}
		for i := lo; i <= hi; i++ {
			if err := appendTo(int(i), r); err != nil {
				return err
			}
		}
		ctx.stats().Replicated += int64(hi - lo)
		return nil
	}
	bs := rel.BatchScan()
	for bs.Next() {
		codes, aux := bs.Codes(), bs.Aux()
		for i, c := range codes {
			if err := route(relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}, bits.TrailingZeros64(c)); err != nil {
				return fail(err)
			}
		}
	}
	if err := bs.Err(); err != nil {
		return fail(err)
	}
	if err := closeApps(); err != nil {
		freeAll(parts)
		return nil, err
	}
	return parts, nil
}

// memoryContainmentJoin is Algorithm 6: when D fits the memory budget it
// is loaded, sorted by region Start unless stored so, and each scanned
// ancestor probes it by binary search (the in-memory index nested loop of
// the paper); otherwise MHCJ+Rollup takes over (its build side is then A,
// the side known to fit).
func memoryContainmentJoin(ctx *Context, a, d *relation.Relation, sink Sink) error {
	if d.NumRecords() <= ctx.memRecs(ctx.b()-2) {
		return memProbeJoin(ctx, a, d, sink)
	}
	// A fits, D does not: the rollup join's build side is A.
	return mhcjRollup(ctx, a, d, 0, sink)
}

// memProbeJoin loads d, sorted by Start, and probes with each a: the
// descendants of a are exactly the loaded records with Start in
// [a.Start, a.End] and height below a's (closed-region semantics). A
// streams as page slabs whose regions are derived in one RegionBatch pass.
// A d stored in document order is sorted already; the load checks each
// record's Start against its predecessor's and sorts only when one goes
// back, so a false order claim costs the sort and nothing else.
func memProbeJoin(ctx *Context, a, d *relation.Relation, sink Sink) error {
	sp := ctx.Trace.Start("mem-join")
	defer ctx.Trace.End(sp)
	sc := ctx.scratch()
	recs := sc.recs[:0]
	defer func() { sc.recs = recs[:0] }()
	sorted := true
	var prev uint64 // Start-1 of the previous record
	ds := d.BatchScan()
	for ds.Next() {
		aux := ds.Aux()
		for i, c := range ds.Codes() {
			s := c - c&-c
			sorted = sorted && s >= prev
			prev = s
			recs = append(recs, relation.Rec{Code: pbicode.Code(c), Aux: aux[i]})
		}
	}
	if err := ds.Err(); err != nil {
		return err
	}
	if !sorted {
		slices.SortFunc(recs, func(x, y relation.Rec) int { return cmp.Compare(x.Code.Start(), y.Code.Start()) })
	}
	sc.dStart = sized(sc.dStart, len(recs))
	starts := sc.dStart
	for i, r := range recs {
		starts[i] = r.Code.Start()
	}
	as := a.BatchScan()
	for as.Next() {
		codes, aux := as.Codes(), as.Aux()
		sc.starts, sc.ends = sized(sc.starts, len(codes)), sized(sc.ends, len(codes))
		aStarts, aEnds := sc.starts, sc.ends
		pbicode.RegionBatch(aStarts, aEnds, codes)
		for i, c := range codes {
			ha := bits.TrailingZeros64(c)
			lo, _ := slices.BinarySearch(starts, aStarts[i])
			if lo == len(starts) || starts[lo] > aEnds[i] {
				continue
			}
			ar := relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}
			for j := lo; j < len(starts) && starts[j] <= aEnds[i]; j++ {
				if bits.TrailingZeros64(uint64(recs[j].Code)) < ha {
					if err := sink.Emit(ar, recs[j]); err != nil {
						return err
					}
				}
			}
		}
	}
	return as.Err()
}
