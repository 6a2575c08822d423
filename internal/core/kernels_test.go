package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/relation/relationtest"
	"github.com/pbitree/pbitree/internal/trace"
	"github.com/pbitree/pbitree/pbicode"
)

// pageFormats are the layouts a join input can be stored in: the paper's
// fixed-width pages, the varint pages earlier versions wrote (read only) and
// packed pages. Temporaries inherit the layout the input writes — fixed
// under "fixed", packed otherwise.
var pageFormats = relationtest.Formats

// loadFmt creates a relation from codes in the requested page format.
func loadFmt(t *testing.T, ctx *Context, name string, codes []pbicode.Code, format string) *relation.Relation {
	t.Helper()
	recs := make([]relation.Rec, len(codes))
	for i, c := range codes {
		recs[i] = relation.Rec{Code: c, Aux: uint64(i)}
	}
	rel, err := relationtest.Store(ctx.Pool, name, format, recs)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// regionJoin adapts the native region path to joinFunc shape: convert
// both inputs (inheriting their page format), run the original
// stack-tree over stored regions, and decode emissions back to element
// codes so results compare against the PBiTree-coded algorithms.
func regionJoin(ctx *Context, a, d *relation.Relation, sink Sink) error {
	ra, err := ToRegionRelation(ctx, a, "RA")
	if err != nil {
		return err
	}
	defer ra.Free() //nolint:errcheck // cleanup
	rd, err := ToRegionRelation(ctx, d, "RD")
	if err != nil {
		return err
	}
	defer rd.Free() //nolint:errcheck // cleanup
	return StackTreeRegionOnTheFly(ctx, ra, rd, sinkFunc(func(ar, dr relation.Rec) error {
		return sink.Emit(
			relation.Rec{Code: pbicode.FromRegion(pbicode.Region{Start: uint64(ar.Code), End: ar.Aux})},
			relation.Rec{Code: pbicode.FromRegion(pbicode.Region{Start: uint64(dr.Code), End: dr.Aux})},
		)
	}))
}

// kernelCase is one algorithm in the kernel matrix. aFixed pins the
// ancestor side to a single node height when >= 0 (SHCJ's required input
// shape); -1 draws multi-height codes.
type kernelCase struct {
	name   string
	fn     joinFunc
	aFixed int
}

// kernelCases lists every join that runs on the slab kernels: the
// equijoins and hash partitioning (MHCJ, rollup, SHCJ), VPJ's subtree
// routing, the region conversion, and the sort-backed baseline whose
// inputs flow through extsort (which must preserve the page layout
// across runs and merges).
func kernelCases() []kernelCase {
	return []kernelCase{
		{"MHCJ", MHCJ, -1},
		{"MHCJRollup", func(ctx *Context, a, d *relation.Relation, s Sink) error { return MHCJRollup(ctx, a, d, 0, s) }, -1},
		{"VPJ", VPJ, -1},
		{"SHCJ", SHCJAuto, 5},
		{"Region", regionJoin, -1},
		{"StackTree", StackTreeOnTheFly, -1},
	}
}

// runKernel evaluates fn over fresh relations in the given page format
// with tracing on, and returns the emitted pairs in
// emission order plus the finished span tree. It fails the test on a pair
// count that disagrees with Stats or on a leaked pin.
func runKernel(t *testing.T, label string, fn joinFunc, b, h int, format string, aCodes, dCodes []pbicode.Code) ([]Pair, *trace.Span) {
	t.Helper()
	ctx := newCtx(t, b, h)
	ctx.Trace = trace.New("join", func() trace.Counters { return trace.Counters{} })
	a := loadFmt(t, ctx, "A", aCodes, format)
	d := loadFmt(t, ctx, "D", dCodes, format)
	var sink PairSink
	if err := fn(ctx, a, d, &sink); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if ctx.Stats.Pairs != int64(len(sink.Pairs)) {
		t.Fatalf("%s: Stats.Pairs = %d, emitted %d", label, ctx.Stats.Pairs, len(sink.Pairs))
	}
	if got := ctx.Pool.PinnedFrames(); got != 0 {
		t.Fatalf("%s: leaked %d pins", label, got)
	}
	return sink.Pairs, ctx.Trace.Finish()
}

// hasSpan reports whether the tree under root holds a span of that name
// whose detail contains detail.
func hasSpan(root *trace.Span, name, detail string) bool {
	found := false
	root.Walk(func(sp *trace.Span, _ int) {
		if sp.Name == name && strings.Contains(sp.Detail, detail) {
			found = true
		}
	})
	return found
}

// TestKernelsMatchOracleRandom is the core correctness property: for
// random inputs, every algorithm × page format × memory budget emits
// exactly the nested-loop oracle's pairs. b=4 forces the grace/block
// equijoin paths (memory budget of ~30 records); b=24 makes VPJ partition
// its larger inputs; b=64 keeps the in-memory hash builds. Temp partitions must
// be scanned in the input's format at every budget.
func TestKernelsMatchOracleRandom(t *testing.T) {
	const h = 12
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		na, nd := 300+rng.Intn(400), 300+rng.Intn(500)
		dCodes := randCodes(rng, nd, h, -1)
		for _, tc := range kernelCases() {
			aCodes := randCodes(rng, na, h, tc.aFixed)
			want := oracle(aCodes, dCodes)
			for _, format := range pageFormats {
				for _, b := range []int{4, 24, 64} {
					label := fmt.Sprintf("%s(b=%d format=%s)", tc.name, b, format)
					got, _ := runKernel(t, label, tc.fn, b, h, format, aCodes, dCodes)
					samePairs(t, label, got, want)
				}
			}
		}
	}
}

// nodesUnder returns n distinct random proper descendants of top.
func nodesUnder(rng *rand.Rand, top pbicode.Code, n int) []pbicode.Code {
	r := top.Region()
	seen := map[pbicode.Code]bool{top: true}
	out := make([]pbicode.Code, 0, n)
	for len(out) < n {
		c := pbicode.Code(r.Start + rng.Uint64()%(r.End-r.Start+1))
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// TestFallbackKernels constructs the inputs that reach the equijoin
// engine's fallback kernels, asserts from the trace that each one ran, and
// checks the result against the oracle in every page format. All use b=4:
// a build side holds at most 30 records and a partitioning wave at most
// two heights.
func TestFallbackKernels(t *testing.T) {
	const h, b = 12, 4
	rng := rand.New(rand.NewSource(7))
	top := pbicode.G(1, 3, h) // a height-8 node

	// One giant duplicate key: no hash splits 100 copies of one ancestor
	// from 100 of its descendants, so the first grace pass hands the pair
	// to the block join.
	dupA := make([]pbicode.Code, 100)
	for i := range dupA {
		dupA[i] = top
	}
	// Distinct keys on both sides, 20x the build budget: one partitioning
	// pass (k <= 3) leaves every pair oversized and the equijoin recurses.
	wideA := randCodes(rng, 600, h, 4)
	// A rollup forced to target 2, whose above-target records (under 1% of
	// A, three heights) are joined by the multi-height probe.
	tailA := append(randCodes(rng, 400, h, 2), top, pbicode.F(top, 9), pbicode.F(top, 10))
	forced := func(ctx *Context, a, d *relation.Relation, s Sink) error { return MHCJRollup(ctx, a, d, 2, s) }
	// Eleven distinct heights against two partition frames per wave.
	var tallA []pbicode.Code
	for fh := 0; fh <= 10; fh++ {
		tallA = append(tallA, randCodes(rng, 20, h, fh)...)
	}

	cases := []struct {
		name         string
		fn           joinFunc
		a, d         []pbicode.Code
		span, detail string
	}{
		{"block-join", SHCJAuto, dupA, nodesUnder(rng, top, 100), "block-join", ""},
		{"grace-recursion", SHCJAuto, wideA, randCodes(rng, 600, h, -1), "grace-partition", "depth=1"},
		{"multi-probe", forced, tailA, randCodes(rng, 500, h, -1), "multi-probe", ""},
		{"wave-partition", MHCJ, tallA, randCodes(rng, 300, h, -1), "partition", "heights=11"},
	}
	for _, tc := range cases {
		want := oracle(tc.a, tc.d)
		if len(want) == 0 {
			t.Fatalf("%s: constructed input joins to nothing", tc.name)
		}
		for _, format := range pageFormats {
			label := fmt.Sprintf("%s(format=%s)", tc.name, format)
			got, root := runKernel(t, label, tc.fn, b, h, format, tc.a, tc.d)
			if !hasSpan(root, tc.span, tc.detail) {
				t.Errorf("%s: trace has no %s[%s] span", label, tc.span, tc.detail)
			}
			samePairs(t, label, got, want)
		}
	}
}

// TestMultiProbeOrderDeterministic pins the emission order of rollup's
// exact tail: one descendant under a chain of six nested ancestors, above
// a run of empty heights the rollup does not cross, meets them in
// ascending height in the rollup equijoin's own pass (its span names the
// tail), the same on every run.
func TestMultiProbeOrderDeterministic(t *testing.T) {
	const h = 12
	rng := rand.New(rand.NewSource(11))
	leaf := pbicode.G(5, h-1, h)
	aCodes := randCodes(rng, 900, h, 1)
	for fh := 6; fh <= 11; fh++ {
		aCodes = append(aCodes, pbicode.F(leaf, fh))
	}
	dCodes := []pbicode.Code{leaf}
	rollup := func(ctx *Context, a, d *relation.Relation, s Sink) error { return MHCJRollup(ctx, a, d, 0, s) }
	var first []Pair
	for run := 0; run < 5; run++ {
		got, root := runKernel(t, "tail", rollup, 64, h, "packed", aCodes, dCodes)
		if !hasSpan(root, "equijoin", "rollup h=1 tail=6,7,8,9,10,11") {
			t.Fatal("trace has no equijoin span naming the tail")
		}
		if hasSpan(root, "rollup-split", "") || hasSpan(root, "multi-probe", "") {
			t.Fatal("the tail took a pass of its own")
		}
		if run == 0 {
			first = got
			var tail []pbicode.Code
			for _, p := range got {
				if p.A.Height() >= 6 {
					tail = append(tail, p.A)
				}
			}
			if len(tail) != 6 || !slices.IsSortedFunc(tail, func(x, y pbicode.Code) int { return x.Height() - y.Height() }) {
				t.Fatalf("tail ancestors emitted as %v, want six in ascending height", tail)
			}
			continue
		}
		if !slices.Equal(got, first) {
			t.Fatalf("run %d emitted %v, run 0 emitted %v", run, got, first)
		}
	}
}
