package core

import (
	"math/bits"
	"slices"

	"github.com/pbitree/pbitree/internal/relation"
)

// This file implements the I/O cost model of section 3.4 — the formulas
// the paper's discussion uses to argue when the partitioning algorithms
// beat sorting or indexing on the fly — that AUTO (Choose) prices Table 1's
// candidates with. Costs are page I/O estimates; CPU is deliberately
// excluded, as in the paper's analysis.

// CostInputs are the statistics the estimator works from.
type CostInputs struct {
	// APages / DPages are the page counts ‖A‖ and ‖D‖ on disk: what a scan
	// of the input, or of a partition or sorted copy written in the same
	// layout, reads.
	APages, DPages int64
	// ARecs / DRecs are the element counts |A| and |D|.
	ARecs, DRecs int64
	// B is the buffer budget in pages.
	B int
	// PerPage is the number of fixed-width records a page holds — the unit
	// the kernels count working memory in (Context.memRecs) and the fan-out
	// of an index leaf, neither of which packs. With it the estimator
	// sizes build sides, sort runs and indexes from the record counts, as
	// execution does; 0 means the inputs are in the fixed-width layout
	// themselves, where the page counts say the same.
	PerPage int
	// HeightsA is the number of distinct ancestor heights (k of MHCJ);
	// 0 means unknown (assume four).
	HeightsA int
	// IndexedA / IndexedD say a persistent Start index exists on an input,
	// removing the on-the-fly cost of building one.
	IndexedA, IndexedD bool
	// OrderedA / OrderedD say an input is stored in document order
	// (relation.Ordered): a sort on the fly of it reads nothing and writes
	// nothing (SortByDoc), so no sort of it is priced.
	OrderedA, OrderedD bool
	// FencedA / FencedD say an input's order claim is the loader's, with
	// fences (relation.Fences): it is its own Start index, and the merges
	// seek over it.
	FencedA, FencedD bool
	// DMeet is, for a D with fences, how many of its pages hold Starts —
	// from the page's fence to the next page's — that meet A's span: the
	// pages a merge seeking over the fences may read. DPages otherwise.
	DMeet int64
}

// Gather fills CostInputs from relations and the context's ancestor
// heights.
func Gather(ctx *Context, spec InputSpec, a, d *relation.Relation) CostInputs {
	return CostInputs{
		APages: a.NumPages(), DPages: d.NumPages(),
		ARecs: a.NumRecords(), DRecs: d.NumRecords(),
		B:        ctx.b(),
		PerPage:  relation.PerPage(ctx.Pool.PageSize()),
		HeightsA: bits.OnesCount64(ctx.AncestorHeights),
		IndexedA: spec.IndexedA, IndexedD: spec.IndexedD,
		OrderedA: a.Ordered(), OrderedD: d.Ordered(),
		FencedA: a.Fences() != nil, FencedD: d.Fences() != nil,
		DMeet: meetPages(d, a),
	}
}

// meetPages counts the pages of d whose Starts, from each page's fence to
// the next page's, meet a's span; d's pages when d has no fences. The seeks
// of a merge start at the page before the first fence at or past a's first
// Start (fencePage) and end at the last page whose fence is within a's
// last End.
func meetPages(d, a *relation.Relation) int64 {
	fences := d.Fences()
	if fences == nil {
		return d.NumPages()
	}
	span, ok := a.Span()
	if !ok || len(fences) == 0 {
		return 0
	}
	hi, _ := slices.BinarySearch(fences, span.End+1)
	return int64(max(0, hi-fencePage(fences, span.Start)))
}

// memPages returns the size of an input in pages of working memory: the
// pages its records fill at PerPage a page. It is also the leaf count of a
// B+-tree over them.
func (in CostInputs) memPages(pages, recs int64) int64 {
	if in.PerPage <= 0 || recs <= 0 {
		return pages
	}
	return (recs + int64(in.PerPage) - 1) / int64(in.PerPage)
}

// sortCost estimates the external sort I/O of an input of pages on disk
// that fills mem pages of working memory: run generation (read + write)
// plus merge passes of 2·pages each, over runs of b memory pages.
func sortCost(pages, mem int64, b int) int64 {
	if pages <= 0 {
		return 0
	}
	runs := (mem + int64(b) - 1) / int64(b)
	passes := int64(0)
	fanIn := int64(b - 1)
	if fanIn < 2 {
		fanIn = 2
	}
	for n := runs; n > 1; n = (n + fanIn - 1) / fanIn {
		passes++
	}
	return 2 * pages * (1 + passes)
}

// sortIO is the sortCost of sorting an input on the fly, which an input
// already in document order does not pay.
func (in CostInputs) sortIO(pages, mem int64, ordered bool) int64 {
	if ordered {
		return 0
	}
	return sortCost(pages, mem, in.B)
}

// EstimateIO predicts the page I/O of running alg on the inputs, per the
// section 3.4 formulas. Scans are priced in the inputs' pages on disk;
// whether a side fits in memory, how many runs a sort makes and how many
// pages an index has are priced from the record counts, as the kernels
// decide them. Estimates for data-dependent effects (rescans, index probe
// fan-out, skew recursion) use the paper's own simplifying assumptions and
// are documented inline.
func EstimateIO(alg Algorithm, in CostInputs) int64 {
	a, d := in.APages, in.DPages
	ma, md := in.memPages(a, in.ARecs), in.memPages(d, in.DRecs)
	b := int64(in.B)
	mem := b - 2
	if mem < 1 {
		mem = 1
	}
	fits := min(ma, md) <= mem
	switch alg {
	case AlgNestedLoop:
		chunks := (ma + mem - 1) / mem
		if chunks < 1 {
			chunks = 1
		}
		return a + chunks*d
	case AlgSHCJ, AlgMHCJRollup, AlgVPJ:
		// One in-memory pass when a side fits; one partitioning round
		// otherwise: 3(‖A‖+‖D‖) in section 3.2/3.3, where the partitions
		// are written and read back. Only those that leave the pool cost
		// that: of T pages written while T stream in, the b most recent
		// stay. In the fixed-width layout a side that does not fit memory
		// makes T > 2(b−2), so all of T spills and this is the paper's
		// figure; packed, both inputs can exceed memory in records and
		// their partitions still sit in a fraction of the pool.
		if fits {
			return a + d
		}
		t := a + d
		return t + 2*min(t, max(0, 2*t-b))
	case AlgMHCJ:
		// 5‖A‖ + 3k‖D‖ (section 3.2); unknown k defaults to 4.
		k := int64(in.HeightsA)
		if k <= 0 {
			k = 4
		}
		if fits {
			return a + k*d
		}
		return 5*a + 3*k*d
	case AlgStackTree, AlgStackTreeAnc, AlgMPMGJN:
		cost := a + d // the merge (MPMGJN rescans extra; lower bound)
		if alg == AlgStackTree && in.FencedD {
			cost = a + in.DMeet // it seeks over D's fences
		}
		return cost + in.sortIO(a, ma, in.OrderedA) + in.sortIO(d, md, in.OrderedD)
	case AlgADBPlus:
		// With an index on both sides, each is read at its leaves (ADB+ runs
		// over persistent indexes only when both have one). A side with
		// fences is its own index (startIndex): the merge reads its pages as
		// it seeks forward, once each, D's only where they meet A's span. Any
		// other side is sorted (an ordered one only read) and bulk-loaded,
		// and the merge walks the leaves it wrote.
		var cost int64
		side := func(pages, read, mem int64, indexed, ordered, hasFences bool) {
			switch {
			case indexed:
				cost += mem
			case hasFences:
				cost += read
			case ordered:
				cost += pages + 2*mem
			default:
				cost += sortCost(pages, mem, in.B) + 2*mem
			}
		}
		indexed := in.IndexedA && in.IndexedD
		side(a, a, ma, indexed, in.OrderedA, in.FencedA)
		side(d, in.DMeet, md, indexed, in.OrderedD, in.FencedD)
		return cost
	case AlgINLJN:
		// Outer = smaller set. When the inner index fits the buffer pool
		// it is read at most once across all probes; otherwise each probe
		// pays a root-to-leaf descent (~4 random pages).
		if md >= ma && !in.IndexedD && in.FencedD {
			// An inner D with fences is its own index: the probes read the
			// pages that meet A's span, and a nested ancestor's probe reads
			// again what the pool could not keep of them.
			return a + in.DMeet + max(0, in.DMeet-mem)
		}
		outerPages, outerRecs := a, in.ARecs
		innerPages, innerIdx := d, md
		innerIndexed, innerOrdered := in.IndexedD, in.OrderedD
		if md < ma {
			outerPages, outerRecs = d, in.DRecs
			innerPages, innerIdx = a, ma
			innerIndexed, innerOrdered = in.IndexedA, in.OrderedA
		}
		cost := outerPages
		if innerIdx <= mem {
			cost += innerIdx
		} else {
			cost += outerRecs * 4
		}
		if !innerIndexed {
			cost += in.sortIO(innerPages, innerIdx, innerOrdered) + innerIdx
		}
		return cost
	default:
		return 1 << 62
	}
}
