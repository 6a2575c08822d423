package core

import (
	"math/rand"
	"testing"
)

func TestSortCost(t *testing.T) {
	// Fits in memory: one run, no merge: 2R.
	if got := sortCost(100, 100, 500); got != 200 {
		t.Fatalf("in-memory sort cost = %d", got)
	}
	// 4000 pages, 500 buffer: 8 runs, one merge pass: 2R*2.
	if got := sortCost(4000, 4000, 500); got != 16000 {
		t.Fatalf("one-pass sort cost = %d", got)
	}
	// Tiny buffer: multiple passes.
	if got := sortCost(1000, 1000, 4); got <= 2*1000*2 {
		t.Fatalf("multi-pass sort cost = %d", got)
	}
	if sortCost(0, 0, 10) != 0 {
		t.Fatal("empty sort cost")
	}
	// Packed five times denser: the same records still make 8 runs of 500
	// memory pages, but every pass moves a fifth of the pages.
	if got := sortCost(800, 4000, 500); got != 3200 {
		t.Fatalf("packed one-pass sort cost = %d", got)
	}
}

func TestEstimateIOShapes(t *testing.T) {
	in := CostInputs{APages: 4000, DPages: 4000, ARecs: 1e6, DRecs: 1e6, B: 500}
	rollup := EstimateIO(AlgMHCJRollup, in)
	if rollup != 3*(4000+4000) {
		t.Fatalf("rollup = %d", rollup)
	}
	st := EstimateIO(AlgStackTree, in)
	// Sort both (16000 each) + merge 8000.
	if st != 16000+16000+8000 {
		t.Fatalf("stacktree = %d", st)
	}
	if rollup >= st {
		t.Fatal("partitioning not cheaper than sorting on the paper's setting")
	}
	// Packed pages: neither side's million records fit the 498 memory
	// pages. At 800 pages a side everything written spills from the
	// 500-page pool, as in the paper; at 100 a side inputs and partitions
	// fit it together and nothing does; at 150 a side a third of the
	// partitions, 2·300 − 500 pages, does.
	packed := CostInputs{APages: 800, DPages: 800, ARecs: 1e6, DRecs: 1e6, B: 500, PerPage: 255}
	if got := EstimateIO(AlgVPJ, packed); got != 1600+2*1600 {
		t.Fatalf("packed VPJ = %d", got)
	}
	packed.APages, packed.DPages = 100, 100
	if got := EstimateIO(AlgVPJ, packed); got != 200 {
		t.Fatalf("packed VPJ within the pool = %d", got)
	}
	packed.APages, packed.DPages = 150, 150
	if got := EstimateIO(AlgMHCJRollup, packed); got != 300+2*100 {
		t.Fatalf("packed rollup, partitions partly resident = %d", got)
	}
	// Pre-sorted inputs flip the comparison.
	in.OrderedA, in.OrderedD = true, true
	if got := EstimateIO(AlgStackTree, in); got != 8000 || got >= rollup {
		t.Fatalf("sorted stacktree = %d", got)
	}
	// Small inputs: everything collapses toward a+d.
	small := CostInputs{APages: 10, DPages: 10, ARecs: 2000, DRecs: 2000, B: 500}
	if got := EstimateIO(AlgVPJ, small); got != 20 {
		t.Fatalf("small VPJ = %d", got)
	}
	// INLJN pays per-probe costs: far worse than merging on large inputs.
	if inl := EstimateIO(AlgINLJN, in); inl <= st {
		t.Fatalf("INLJN = %d vs stacktree %d", inl, st)
	}
	if nl := EstimateIO(AlgNestedLoop, in); nl <= rollup {
		t.Fatalf("nested loop suspiciously cheap: %d", nl)
	}
	if EstimateIO(Algorithm(77), in) < 1<<61 {
		t.Fatal("unknown algorithm not penalized")
	}
}

func TestEstimateMHCJ(t *testing.T) {
	in := CostInputs{APages: 1000, DPages: 1000, B: 100, HeightsA: 6}
	if got := EstimateIO(AlgMHCJ, in); got != 5*1000+3*6*1000 {
		t.Fatalf("MHCJ = %d", got)
	}
	in.HeightsA = 0 // unknown defaults to 4
	if got := EstimateIO(AlgMHCJ, in); got != 5*1000+3*4*1000 {
		t.Fatalf("MHCJ default-k = %d", got)
	}
}

func TestChooseByCost(t *testing.T) {
	ctx := newCtx(t, 8, 12)
	rng := rand.New(rand.NewSource(30))
	big := load(t, ctx, "big", randCodes(rng, 4000, 12, -1))
	small := load(t, ctx, "small", randCodes(rng, 30, 12, -1))
	// Unsorted large inputs: a partitioning algorithm must win.
	switch alg := Choose(ctx, InputSpec{}, big, big).Chosen; alg {
	case AlgMHCJRollup, AlgVPJ:
	default:
		t.Fatalf("unsorted big x big chose %v", alg)
	}
	// Sorted inputs: the merge join is free of sort cost and wins.
	sorted := load(t, ctx, "sorted", docOrder(randCodes(rng, 4000, 12, -1)))
	if alg := Choose(ctx, InputSpec{}, sorted, sorted).Chosen; alg != AlgStackTree && alg != AlgADBPlus {
		t.Fatalf("sorted chose %v", alg)
	}
	// Tiny inputs: every partitioning candidate reads ‖A‖+‖D‖ once, and
	// Table 1 breaks the tie for the rollup.
	if alg := Choose(ctx, InputSpec{}, small, small).Chosen; alg != AlgMHCJRollup {
		t.Fatalf("tiny chose %v", alg)
	}
	// Single-height unlocks SHCJ, which Table 1 picks on the tie.
	ctx.AncestorHeights = 1 << 4
	if alg := Choose(ctx, InputSpec{}, big, big).Chosen; alg != AlgSHCJ {
		t.Fatalf("single-height chose %v", alg)
	}
}

// TestCostModelTracksReality runs the estimator against actual executions:
// predictions must land within a small factor of measured page I/O for the
// bulk algorithms (this is the validation behind ablation A5).
func TestCostModelTracksReality(t *testing.T) {
	const h = 22
	rng := rand.New(rand.NewSource(31))
	// Large enough that neither side fits the 16-frame pool's 14 pages of
	// working memory, small enough that one partitioning round — what the
	// section 3.4 formulas price — brings every partition under it.
	aCodes := randCodes(rng, 3000, h, -1)
	dCodes := randCodes(rng, 3000, h, -1)
	for _, alg := range []Algorithm{AlgMHCJRollup, AlgVPJ, AlgStackTree} {
		ctx := newCtx(t, 16, h)
		a := load(t, ctx, "A", aCodes)
		d := load(t, ctx, "D", dCodes)
		if err := ctx.Pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		disk := ctx.Pool.Disk()
		before := disk.Stats()
		if _, err := Run(ctx, alg, InputSpec{}, a, d, &CountSink{}); err != nil {
			t.Fatal(err)
		}
		measured := disk.Stats().Sub(before).Total()
		predicted := EstimateIO(alg, Gather(ctx, InputSpec{}, a, d))
		lo, hi := predicted/3, predicted*3
		if measured < lo || measured > hi {
			t.Errorf("%v: predicted %d, measured %d (outside 3x)", alg, predicted, measured)
		}
	}
}

// TestChooseAllocatesNothing: AUTO prices its candidates into the Plan's
// fixed arrays, so choosing costs a join no allocation.
func TestChooseAllocatesNothing(t *testing.T) {
	ctx := newCtx(t, 8, 12)
	rng := rand.New(rand.NewSource(32))
	a := load(t, ctx, "A", randCodes(rng, 2000, 12, -1))
	d := load(t, ctx, "D", randCodes(rng, 2000, 12, -1))
	ctx.AncestorHeights = 1 << 4
	if n := testing.AllocsPerRun(100, func() { Choose(ctx, InputSpec{}, a, d) }); n != 0 {
		t.Fatalf("Choose allocates %v times per call", n)
	}
}
