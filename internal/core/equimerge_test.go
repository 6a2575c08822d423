package core

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/trace"
	"github.com/pbitree/pbitree/pbicode"
)

// docOrder returns codes sorted into document order.
func docOrder(codes []pbicode.Code) []pbicode.Code {
	out := slices.Clone(codes)
	slices.SortFunc(out, func(x, y pbicode.Code) int {
		if c := cmp.Compare(x.Start(), y.Start()); c != 0 {
			return c
		}
		return cmp.Compare(y.Height(), x.Height())
	})
	return out
}

// attachAs returns a relation over rel's pages that claims document order
// or not, as ordered says: the same pages, read by the other kernel.
func attachAs(rel *relation.Relation, ordered bool) *relation.Relation {
	span, _ := rel.Span()
	return relation.Attach(rel.Pool(), rel.Name()+"'", rel.Pages(), rel.NumRecords(), span, ordered, nil)
}

// kernelRun is what one run of a join over one pair of inputs showed.
type kernelRun struct {
	pairs []Pair
	stats Stats
	root  *trace.Span
}

// runClaim joins aCodes and dCodes, stored in that order, with the order
// claim of both inputs set as ordered says, and fails the test on an error,
// a pair count that disagrees with Stats or a leaked pin.
func runClaim(t *testing.T, label string, fn joinFunc, b, h int, aCodes, dCodes []pbicode.Code, ordered bool) kernelRun {
	t.Helper()
	ctx := newCtx(t, b, h)
	ctx.Trace = trace.New("join", func() trace.Counters { return trace.Counters{} })
	a := attachAs(load(t, ctx, "A", aCodes), ordered)
	d := attachAs(load(t, ctx, "D", dCodes), ordered)
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
	return kernelRun{sink.Pairs, *ctx.Stats, ctx.Trace.Finish()}
}

// mergeMatchesHash runs fn over the inputs, in document order, once with
// both claiming it (the merge kernels) and once with neither (the hash
// kernels): both must give the oracle's pairs, the same false hits,
// partitions and recursion. The merge run's trace must hold the span of
// the given name whose detail contains detail, when a name is given.
func mergeMatchesHash(t *testing.T, label string, fn joinFunc, b, h int, aCodes, dCodes []pbicode.Code, span, detail string) {
	t.Helper()
	aCodes, dCodes = docOrder(aCodes), docOrder(dCodes)
	mergeMatchesHashWant(t, label, fn, b, h, aCodes, dCodes, oracle(aCodes, dCodes), span, detail)
}

// mergeMatchesHashWant is mergeMatchesHash with the expected pairs given,
// over inputs already in document order.
func mergeMatchesHashWant(t *testing.T, label string, fn joinFunc, b, h int, aCodes, dCodes []pbicode.Code, want []Pair, span, detail string) {
	t.Helper()
	merge := runClaim(t, label+"/merge", fn, b, h, aCodes, dCodes, true)
	hash := runClaim(t, label+"/hash", fn, b, h, aCodes, dCodes, false)
	if span != "" && !hasSpan(merge.root, span, detail) {
		t.Errorf("%s: the merge run's trace has no %s[%s] span", label, span, detail)
	}
	if hasSpan(hash.root, "hash-join", "build=A merge") && !hasSpan(hash.root, "grace-partition", "") {
		t.Errorf("%s: a join over unclaimed inputs merged without partitioning them", label)
	}
	samePairs(t, label+"/merge", merge.pairs, want)
	samePairs(t, label+"/hash", hash.pairs, want)
	m, s := merge.stats, hash.stats
	if m.FalseHits != s.FalseHits || m.Partitions != s.Partitions || m.MaxRecursion != s.MaxRecursion {
		t.Errorf("%s: merge false hits %d, partitions %d, recursion %d; hash %d, %d, %d", label,
			m.FalseHits, m.Partitions, m.MaxRecursion, s.FalseHits, s.Partitions, s.MaxRecursion)
	}
}

// TestMergeKernelsReachEveryPath runs every place an in-memory equijoin
// happens over ordered inputs — SHCJ's build on A, Grace partition pairs,
// the build on D, MHCJ's per-height joins, rollup's tail and its split
// with the multi-height probe, VPJ's memory join and its rollup fallback —
// and holds each to the oracle and to the hash kernels' counters.
func TestMergeKernelsReachEveryPath(t *testing.T) {
	const h = 12
	rng := rand.New(rand.NewSource(39))
	top := pbicode.G(1, 3, h) // a height-8 node
	rollup := func(ctx *Context, a, d *relation.Relation, s Sink) error { return MHCJRollup(ctx, a, d, 0, s) }
	forced := func(ctx *Context, a, d *relation.Relation, s Sink) error { return MHCJRollup(ctx, a, d, 2, s) }
	var tailA []pbicode.Code // heights 1 and 2, then a run of empty heights, then 6..8
	tailA = append(tailA, randCodes(rng, 300, h, 1)...)
	tailA = append(tailA, randCodes(rng, 200, h, 2)...)
	tailA = append(tailA, top, pbicode.F(top-1, 6), pbicode.F(top+1, 7), pbicode.F(top+3, 6))
	cases := []struct {
		name         string
		fn           joinFunc
		b            int
		a, d         []pbicode.Code
		span, detail string
	}{
		{"shcj", SHCJAuto, 64, randCodes(rng, 300, h, 4), randCodes(rng, 600, h, -1), "hash-join", "build=A merge"},
		{"shcj-grace", SHCJAuto, 4, randCodes(rng, 400, h, 4), randCodes(rng, 500, h, -1), "hash-join", "merge"},
		{"shcj-build-d", SHCJAuto, 4, randCodes(rng, 400, h, 4), randCodes(rng, 25, h, -1), "hash-join", "build=D merge"},
		{"mhcj", MHCJ, 4, randCodes(rng, 300, h, -1), randCodes(rng, 300, h, -1), "hash-join", "merge"},
		{"rollup-tail", rollup, 64, tailA, randCodes(rng, 600, h, -1), "equijoin", "rollup h=2 tail=6,7,8"},
		{"rollup-grace", rollup, 4, randCodes(rng, 300, h, -1), randCodes(rng, 300, h, -1), "hash-join", "merge"},
		{"rollup-split", forced, 16, tailA, randCodes(rng, 600, h, -1), "multi-probe", "merge"},
		{"vpj", VPJ, 16, randCodes(rng, 400, h, -1), randCodes(rng, 400, h, -1), "mem-join", ""},
		{"vpj-rollup", VPJ, 64, randCodes(rng, 300, h, -1), randCodes(rng, 3000, h, -1), "hash-join", "build=A merge"},
	}
	for _, tc := range cases {
		mergeMatchesHash(t, tc.name, tc.fn, tc.b, h, tc.a, tc.d, tc.span, tc.detail)
	}
}

// TestMergeDegenerateShapes holds the merge kernels to the oracle and the
// hash kernels on the inputs a cursor can get wrong: one rolled key shared
// by a whole ancestor set, descendants at or above the key height, a key
// height with no ancestors, and single records.
func TestMergeDegenerateShapes(t *testing.T) {
	const h = 12
	rng := rand.New(rand.NewSource(3))
	top := pbicode.G(1, 3, h) // a height-8 node
	rollup := func(ctx *Context, a, d *relation.Relation, s Sink) error { return MHCJRollup(ctx, a, d, 0, s) }
	shcjAt := func(level int) joinFunc {
		return func(ctx *Context, a, d *relation.Relation, s Sink) error { return SHCJ(ctx, a, d, level, s) }
	}
	under := nodesUnder(rng, top, 200)
	dup := make([]pbicode.Code, 20)
	for i := range dup {
		dup[i] = top
	}
	var above []pbicode.Code // the height-8 node, its ancestors and nodes at heights 4..8
	for fh := 4; fh <= 11; fh++ {
		above = append(above, pbicode.F(top, fh))
	}
	above = append(above, randCodes(rng, 100, h, 4)...)
	cases := []struct {
		name string
		fn   joinFunc
		a, d []pbicode.Code
	}{
		// Every ancestor rolls up to top: one key, 200 records, met by
		// every descendant under it.
		{"one-rolled-key", rollup, append(slices.Clone(under), top), nodesUnder(rng, top, 150)},
		// Identical ancestors: one key, its records all emitted per match.
		{"duplicate-key", SHCJAuto, dup, nodesUnder(rng, top, 100)},
		{"desc-at-or-above", SHCJAuto, randCodes(rng, 200, h, 4), above},
		{"single-match", SHCJAuto, []pbicode.Code{top}, []pbicode.Code{top - 1}},
		{"single-miss", SHCJAuto, []pbicode.Code{top}, []pbicode.Code{top + 1<<9}},
		{"single-rollup", rollup, []pbicode.Code{top}, []pbicode.Code{top + 1}},
	}
	for _, tc := range cases {
		for _, b := range []int{4, 64} {
			mergeMatchesHash(t, tc.name, tc.fn, b, h, tc.a, tc.d, "", "")
		}
	}
	// SHCJ asked for height 6 over ancestors of height 4: the probed run is
	// empty and joins nothing, as the hash table misses every probe.
	a, d := docOrder(randCodes(rng, 100, h, 4)), docOrder(randCodes(rng, 300, h, -1))
	for _, b := range []int{4, 64} {
		mergeMatchesHashWant(t, "empty-run", shcjAt(6), b, h, a, d, nil, "", "")
	}
}

// TestMergeRejectsFalseOrderClaim: inputs that claim document order but
// are shuffled never give wrong pairs. A build side out of order is hashed
// from memory, so its join gives the oracle's pairs; a probe side out of
// order fails the join with ErrOrderClaim.
func TestMergeRejectsFalseOrderClaim(t *testing.T) {
	const h = 12
	rng := rand.New(rand.NewSource(17))
	shuffled := func(codes []pbicode.Code) []pbicode.Code {
		out := docOrder(codes)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	aCodes, dCodes := randCodes(rng, 300, h, 4), randCodes(rng, 600, h, -1)
	for _, tc := range []struct {
		name       string
		aOrd, dOrd bool // which side is really in document order
		b          int
		failing    bool // the shuffled side is the one streamed
	}{
		{"build-A-shuffled", false, true, 64, false},
		{"probe-D-shuffled", true, false, 64, true},
		{"build-D-shuffled", true, false, 4, false},
		{"probe-A-shuffled", false, true, 4, true},
	} {
		a, d := docOrder(aCodes), docOrder(dCodes)
		if !tc.aOrd {
			a = shuffled(aCodes)
		}
		if !tc.dOrd {
			d = shuffled(dCodes)
		}
		if tc.b == 4 {
			d = d[:20] // small enough to be the build side
		}
		ctx := newCtx(t, tc.b, h)
		ra, rd := attachAs(load(t, ctx, "A", a), true), attachAs(load(t, ctx, "D", d), true)
		var sink PairSink
		err := SHCJAuto(ctx, ra, rd, &sink)
		switch {
		case tc.failing && !errors.Is(err, ErrOrderClaim):
			t.Errorf("%s: err = %v, want ErrOrderClaim", tc.name, err)
		case !tc.failing && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !tc.failing:
			samePairs(t, tc.name, sink.Pairs, oracle(a, d))
		}
		if got := ctx.Pool.PinnedFrames(); got != 0 {
			t.Errorf("%s: leaked %d pins", tc.name, got)
		}
	}
}
