package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/pbicode"
)

// newCtx builds a Context over a fresh in-memory disk with b pool frames
// and 256-byte pages (15 records per page), so small tests still exercise
// the out-of-memory paths.
func newCtx(t *testing.T, b, treeHeight int) *Context {
	t.Helper()
	d := storage.NewMemDisk(256, storage.CostModel{})
	t.Cleanup(func() { d.Close() })
	return &Context{
		Pool:       buffer.New(d, b),
		TreeHeight: treeHeight,
		Stats:      &Stats{},
	}
}

// randCodes draws n codes from a height-h PBiTree. When fixedHeight >= 0
// all codes are at that node height.
func randCodes(rng *rand.Rand, n, h, fixedHeight int) []pbicode.Code {
	out := make([]pbicode.Code, n)
	for i := range out {
		if fixedHeight < 0 {
			out[i] = pbicode.Code(rng.Uint64()%pbicode.NumNodes(h) + 1)
			continue
		}
		l := h - fixedHeight - 1
		alpha := rng.Uint64() % (1 << uint(l))
		out[i] = pbicode.G(alpha, l, h)
	}
	return out
}

// load creates a relation from codes.
func load(t *testing.T, ctx *Context, name string, codes []pbicode.Code) *relation.Relation {
	t.Helper()
	rel, err := relation.FromCodes(ctx.Pool, name, codes)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// oracle computes the containment join by definition.
func oracle(a, d []pbicode.Code) []Pair {
	var out []Pair
	for _, ac := range a {
		for _, dc := range d {
			if pbicode.IsAncestor(ac, dc) {
				out = append(out, Pair{A: ac, D: dc})
			}
		}
	}
	return out
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].D < ps[j].D
	})
}

func samePairs(t *testing.T, name string, got, want []Pair) {
	t.Helper()
	sortPairs(got)
	sortPairs(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// joinFunc adapts each algorithm to a common shape for table-driven tests.
type joinFunc func(ctx *Context, a, d *relation.Relation, sink Sink) error

// algorithms lists every whole-input algorithm (SHCJ excluded: it needs a
// single-height ancestor set and is tested separately).
func algorithms() map[string]joinFunc {
	return map[string]joinFunc{
		"NestedLoop": NestedLoop,
		"MHCJ":       MHCJ,
		"MHCJRollup": func(ctx *Context, a, d *relation.Relation, s Sink) error { return MHCJRollup(ctx, a, d, 0, s) },
		"VPJ":        VPJ,
		"INLJN":      INLJN,
		"StackTree":  StackTreeOnTheFly,
		"MPMGJN":     MPMGJNOnTheFly,
		"ADBPlus":    ADBPlusOnTheFly,
		"StackTreeAnc": func(ctx *Context, a, d *relation.Relation, s Sink) error {
			_, err := Run(ctx, AlgStackTreeAnc, InputSpec{}, a, d, s)
			return err
		},
	}
}

func runAlgorithm(t *testing.T, name string, fn joinFunc, b, h int, aCodes, dCodes []pbicode.Code) []Pair {
	t.Helper()
	ctx := newCtx(t, b, h)
	a := load(t, ctx, "A", aCodes)
	d := load(t, ctx, "D", dCodes)
	var sink PairSink
	if err := fn(ctx, a, d, &sink); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if ctx.Stats.Pairs != int64(len(sink.Pairs)) {
		t.Fatalf("%s: Stats.Pairs = %d, emitted %d", name, ctx.Stats.Pairs, len(sink.Pairs))
	}
	if got := ctx.Pool.PinnedFrames(); got != 0 {
		t.Fatalf("%s: leaked %d pins", name, got)
	}
	return sink.Pairs
}

func TestAllAlgorithmsAgainstOracleRandom(t *testing.T) {
	const h = 12
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		na, nd := 50+rng.Intn(800), 50+rng.Intn(800)
		aCodes := randCodes(rng, na, h, -1)
		dCodes := randCodes(rng, nd, h, -1)
		want := oracle(aCodes, dCodes)
		for _, b := range []int{4, 8, 64} {
			for name, fn := range algorithms() {
				got := runAlgorithm(t, name, fn, b, h, aCodes, dCodes)
				samePairs(t, name, got, want)
			}
		}
	}
}

func TestSHCJSingleHeight(t *testing.T) {
	const h = 14
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ancH := 3 + rng.Intn(8)
		aCodes := randCodes(rng, 300+rng.Intn(500), h, ancH)
		dCodes := randCodes(rng, 300+rng.Intn(900), h, -1)
		want := oracle(aCodes, dCodes)
		for _, b := range []int{4, 32} {
			got := runAlgorithm(t, "SHCJ", func(ctx *Context, a, d *relation.Relation, s Sink) error {
				return SHCJ(ctx, a, d, ancH, s)
			}, b, h, aCodes, dCodes)
			samePairs(t, "SHCJ", got, want)
			got = runAlgorithm(t, "SHCJAuto", SHCJAuto, b, h, aCodes, dCodes)
			samePairs(t, "SHCJAuto", got, want)
		}
	}
}

func TestSHCJRejectsBadHeight(t *testing.T) {
	ctx := newCtx(t, 4, 8)
	a := load(t, ctx, "A", nil)
	d := load(t, ctx, "D", nil)
	if err := SHCJ(ctx, a, d, 0, &CountSink{}); err == nil {
		t.Fatal("SHCJ accepted height 0")
	}
}

// TestSHCJLeafAncestors: a single-height ancestor set of leaves joins to
// nothing — height-0 nodes have no proper descendants — whether SHCJ is
// named or AUTO routes the single-height set to it. The explicit
// SHCJ(h<=0) error above is unaffected.
func TestSHCJLeafAncestors(t *testing.T) {
	leaves := []pbicode.Code{1, 3, 5, 7}
	dCodes := []pbicode.Code{1, 2, 3, 4, 5, 6, 7}
	want := oracle(leaves, dCodes)
	for _, alg := range []Algorithm{AlgAuto, AlgSHCJ} {
		got := runAlgorithm(t, alg.String(), func(ctx *Context, a, d *relation.Relation, s Sink) error {
			ctx.AncestorHeights = 1 // every ancestor at height 0
			ran, err := Run(ctx, alg, InputSpec{}, a, d, s)
			if ran != AlgSHCJ {
				t.Errorf("%v ran %v, want SHCJ", alg, ran)
			}
			return err
		}, 4, 3, leaves, dCodes)
		samePairs(t, alg.String(), got, want)
	}
}

func TestEmptyInputs(t *testing.T) {
	const h = 10
	rng := rand.New(rand.NewSource(1))
	some := randCodes(rng, 100, h, -1)
	for name, fn := range algorithms() {
		for _, tc := range []struct {
			a, d []pbicode.Code
		}{{nil, some}, {some, nil}, {nil, nil}} {
			got := runAlgorithm(t, name, fn, 8, h, tc.a, tc.d)
			if len(got) != 0 {
				t.Fatalf("%s on empty input emitted %d pairs", name, len(got))
			}
		}
	}
}

func TestSelfJoin(t *testing.T) {
	// A == D: results are proper-ancestor pairs only, never (x, x).
	const h = 10
	rng := rand.New(rand.NewSource(2))
	codes := randCodes(rng, 400, h, -1)
	want := oracle(codes, codes)
	for name, fn := range algorithms() {
		got := runAlgorithm(t, name, fn, 8, h, codes, codes)
		samePairs(t, name, got, want)
		for _, p := range got {
			if p.A == p.D {
				t.Fatalf("%s emitted reflexive pair %v", name, p)
			}
		}
	}
}

func TestDuplicateElements(t *testing.T) {
	// Multiset semantics: duplicated elements multiply matching pairs.
	const h = 8
	root := pbicode.Root(h)
	aCodes := []pbicode.Code{root, root, root}
	dCodes := []pbicode.Code{1, 1}
	want := oracle(aCodes, dCodes) // 6 pairs
	if len(want) != 6 {
		t.Fatalf("oracle premise: %d", len(want))
	}
	for name, fn := range algorithms() {
		got := runAlgorithm(t, name, fn, 8, h, aCodes, dCodes)
		samePairs(t, name, got, want)
	}
}

func TestDeepChainDataset(t *testing.T) {
	// A worst-case nesting chain: every node on one root-to-leaf path.
	const h = 16
	var chain []pbicode.Code
	leaf := pbicode.Code(1)
	for hh := 0; hh < h; hh++ {
		chain = append(chain, pbicode.F(leaf, hh))
	}
	want := oracle(chain, chain)
	for name, fn := range algorithms() {
		got := runAlgorithm(t, name, fn, 6, h, chain, chain)
		samePairs(t, name, got, want)
	}
}

func TestSkewedDuplicateKeys(t *testing.T) {
	// Thousands of copies of the same two codes drive the Grace join into
	// its skew fallback without losing pairs.
	const h = 8
	a := make([]pbicode.Code, 0, 1200)
	d := make([]pbicode.Code, 0, 1200)
	for i := 0; i < 1200; i++ {
		a = append(a, pbicode.Root(h))
		d = append(d, pbicode.Code(1))
	}
	ctx := newCtx(t, 4, h)
	ar := load(t, ctx, "A", a)
	dr := load(t, ctx, "D", d)
	var sink CountSink
	if err := MHCJ(ctx, ar, dr, &sink); err != nil {
		t.Fatal(err)
	}
	if sink.N != 1200*1200 {
		t.Fatalf("pairs = %d, want %d", sink.N, 1200*1200)
	}
}

func TestRollupFalseHits(t *testing.T) {
	// H=5: A = {18 (h1)}, rolled to height 2 -> 20. D = {17, 19, 21}.
	// Equijoin at h=2 matches all three (F(17,2)=F(19,2)=F(21,2)=20), but
	// only 17 and 19 are real descendants of 18: one false hit.
	ctx := newCtx(t, 8, 5)
	a := load(t, ctx, "A", []pbicode.Code{18})
	d := load(t, ctx, "D", []pbicode.Code{17, 19, 21})
	var sink PairSink
	if err := MHCJRollup(ctx, a, d, 2, &sink); err != nil {
		t.Fatal(err)
	}
	samePairs(t, "rollup", sink.Pairs, []Pair{{A: 18, D: 17}, {A: 18, D: 19}})
	if ctx.Stats.FalseHits != 1 {
		t.Fatalf("FalseHits = %d, want 1", ctx.Stats.FalseHits)
	}
}

func TestRollupTargetHeightSweep(t *testing.T) {
	// Any target height gives the same result set; higher targets mean
	// fewer partitions but more false hits.
	const h = 12
	rng := rand.New(rand.NewSource(5))
	aCodes := randCodes(rng, 500, h, -1)
	dCodes := randCodes(rng, 700, h, -1)
	want := oracle(aCodes, dCodes)
	prevFalse := int64(-1)
	_ = prevFalse
	for target := 1; target < h; target++ {
		ctx := newCtx(t, 8, h)
		a := load(t, ctx, "A", aCodes)
		d := load(t, ctx, "D", dCodes)
		var sink PairSink
		if err := MHCJRollup(ctx, a, d, target, &sink); err != nil {
			t.Fatalf("target %d: %v", target, err)
		}
		samePairs(t, "rollup", sink.Pairs, want)
	}
}

func TestMHCJRollupUsesCatalogHeight(t *testing.T) {
	const h = 10
	rng := rand.New(rand.NewSource(6))
	aCodes := randCodes(rng, 300, h, -1)
	dCodes := randCodes(rng, 300, h, -1)
	ctx := newCtx(t, 8, h)
	for _, c := range aCodes {
		ctx.AncestorHeights |= 1 << uint(c.Height())
	}
	a := load(t, ctx, "A", aCodes)
	d := load(t, ctx, "D", dCodes)
	var sink PairSink
	if err := MHCJRollup(ctx, a, d, 0, &sink); err != nil {
		t.Fatal(err)
	}
	samePairs(t, "rollup-catalog", sink.Pairs, oracle(aCodes, dCodes))
}

// TestRollupNearRootTail joins an ancestor set whose body sits at one
// height and whose tail (5 % of the records) sits far above it, across a
// run of empty heights — the shape inserted documents give a collection.
// Rolling the body up to the tail would verify a false hit per body record
// under each tail key; the target rule keeps the body at its own height and
// probes the tail exactly, so the join has no false hits at all, whether
// the heights come from the catalog or from a pre-scan.
func TestRollupNearRootTail(t *testing.T) {
	const h = 14
	rng := rand.New(rand.NewSource(21))
	aCodes := randCodes(rng, 950, h, 2)
	for i := 0; i < 50; i++ {
		aCodes = append(aCodes, randCodes(rng, 1, h, 8+i%2)...)
	}
	dCodes := randCodes(rng, 2000, h, -1)
	want := runAlgorithm(t, "nlj", NestedLoop, 128, h, aCodes, dCodes)
	for _, catalog := range []bool{false, true} {
		ctx := newCtx(t, 128, h) // A fits in memory
		if int64(len(aCodes)) > ctx.memRecs(ctx.b()-2) {
			t.Fatal("A does not fit in memory")
		}
		if catalog {
			ctx.AncestorHeights = 1<<2 | 1<<8 | 1<<9
		}
		a := load(t, ctx, "A", aCodes)
		d := load(t, ctx, "D", dCodes)
		var sink PairSink
		if err := MHCJRollup(ctx, a, d, 0, &sink); err != nil {
			t.Fatal(err)
		}
		samePairs(t, fmt.Sprintf("rollup(catalog=%v)", catalog), sink.Pairs, want)
		if ctx.Stats.FalseHits != 0 {
			t.Errorf("catalog=%v: %d false hits, want 0", catalog, ctx.Stats.FalseHits)
		}
	}
}

func TestVPJReplicationCounted(t *testing.T) {
	// Force partitioning with ancestors above the cut: high nodes must be
	// replicated and counted.
	const h = 12
	rng := rand.New(rand.NewSource(7))
	var aCodes []pbicode.Code
	for i := 0; i < 600; i++ {
		// Heights 10-11 sit above the level-2 cut an 8-frame pool induces
		// (cut height h-l-1 = 9), so they must replicate.
		aCodes = append(aCodes, randCodes(rng, 1, h, 10+rng.Intn(2))[0])
	}
	dCodes := randCodes(rng, 900, h, 0)
	ctx := newCtx(t, 8, h) // small pool forces real partitioning
	a := load(t, ctx, "A", aCodes)
	d := load(t, ctx, "D", dCodes)
	var sink PairSink
	if err := VPJ(ctx, a, d, &sink); err != nil {
		t.Fatal(err)
	}
	samePairs(t, "VPJ", sink.Pairs, oracle(aCodes, dCodes))
	if ctx.Stats.Replicated == 0 {
		t.Fatal("no replication recorded for high ancestors under a forced cut")
	}
	if ctx.Stats.Partitions == 0 {
		t.Fatal("no partitions recorded")
	}
}

// TestVPJPurgesEmptyPartitions mirrors the paper's Figure 5 scenario: data
// clustered so that some partitions have an empty side. Purged partition
// pairs yield nothing and the join stays correct.
func TestVPJPurgesEmptyPartitions(t *testing.T) {
	const h = 12
	// Ancestors only in the left half of each level, descendants
	// anywhere: right-side partitions have no ancestors.
	rng := rand.New(rand.NewSource(77))
	var aCodes, dCodes []pbicode.Code
	for i := 0; i < 900; i++ {
		l := 4 + rng.Intn(4)
		alpha := rng.Uint64() % (1 << uint(l-1))
		aCodes = append(aCodes, pbicode.G(alpha, l, h))
	}
	dCodes = append(dCodes, randCodes(rng, 900, h, 0)...)
	ctx := newCtx(t, 6, h)
	a := load(t, ctx, "A", aCodes)
	d := load(t, ctx, "D", dCodes)
	var sink PairSink
	if err := VPJ(ctx, a, d, &sink); err != nil {
		t.Fatal(err)
	}
	samePairs(t, "VPJ-purge", sink.Pairs, oracle(aCodes, dCodes))
	if ctx.Stats.Partitions == 0 {
		t.Fatal("no partitioning happened; premise broken")
	}
}

func TestVPJRequiresTreeHeight(t *testing.T) {
	ctx := newCtx(t, 4, 0)
	a := load(t, ctx, "A", []pbicode.Code{2})
	d := load(t, ctx, "D", []pbicode.Code{1})
	if err := VPJ(ctx, a, d, &CountSink{}); err == nil {
		t.Fatal("VPJ without TreeHeight succeeded")
	}
}

func TestStackTreeOutputOrderedByDescendant(t *testing.T) {
	const h = 12
	rng := rand.New(rand.NewSource(8))
	aCodes := randCodes(rng, 400, h, -1)
	dCodes := randCodes(rng, 400, h, -1)
	ctx := newCtx(t, 8, h)
	a := load(t, ctx, "A", aCodes)
	d := load(t, ctx, "D", dCodes)
	var sink PairSink
	if err := StackTreeOnTheFly(ctx, a, d, &sink); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sink.Pairs); i++ {
		if sink.Pairs[i].D.Start() < sink.Pairs[i-1].D.Start() {
			t.Fatalf("descendant order violated at %d", i)
		}
	}
}

func TestStackTreeAncOutputOrderedByAncestor(t *testing.T) {
	const h = 12
	rng := rand.New(rand.NewSource(9))
	aCodes := randCodes(rng, 400, h, -1)
	dCodes := randCodes(rng, 400, h, -1)
	ctx := newCtx(t, 8, h)
	a := load(t, ctx, "A", aCodes)
	d := load(t, ctx, "D", dCodes)
	var sink PairSink
	if _, err := Run(ctx, AlgStackTreeAnc, InputSpec{}, a, d, &sink); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sink.Pairs); i++ {
		prev, cur := sink.Pairs[i-1].A, sink.Pairs[i].A
		if cur.Start() < prev.Start() {
			t.Fatalf("ancestor order violated at %d: %v after %v", i, cur, prev)
		}
	}
	samePairs(t, "anc", sink.Pairs, oracle(aCodes, dCodes))
}

func TestMPMGJNCountsRescans(t *testing.T) {
	// Nested ancestors over a shared descendant run force segment
	// re-reads.
	const h = 10
	var aCodes []pbicode.Code
	leaf := pbicode.Code(1)
	for hh := 2; hh < h; hh++ {
		aCodes = append(aCodes, pbicode.F(leaf, hh))
	}
	var dCodes []pbicode.Code
	for i := 0; i < 60; i++ {
		dCodes = append(dCodes, pbicode.Code(i*2+1)) // leaves
	}
	ctx := newCtx(t, 8, h)
	a := load(t, ctx, "A", aCodes)
	d := load(t, ctx, "D", dCodes)
	var sink PairSink
	if err := MPMGJNOnTheFly(ctx, a, d, &sink); err != nil {
		t.Fatal(err)
	}
	samePairs(t, "mpmgjn", sink.Pairs, oracle(aCodes, dCodes))
	if ctx.Stats.Rescans == 0 {
		t.Fatal("nested ancestors caused no rescans")
	}
}

// TestMPMGJNDecodesMarkPageOnce: MPMGJN repositions its descendant scanner
// once per ancestor. While the mark stays on the page the scanner holds,
// that must move a cursor — one pool request for the one descendant page,
// however many ancestors rescan it — not fetch and decode the page again.
func TestMPMGJNDecodesMarkPageOnce(t *testing.T) {
	const h = 12
	rng := rand.New(rand.NewSource(5))
	// Everything sits in the root's left subtree but one descendant far to
	// the right, so no ancestor's segment runs off the end of D (a scanner
	// that reaches the end gives its page back, as every scanner does).
	left := pbicode.Root(h).LeftChild()
	aCodes := nodesUnder(rng, left, 200)
	dCodes := append(nodesUnder(rng, left, 59), pbicode.Code(pbicode.Root(h).Region().End))
	ctx := newCtx(t, 8, h)
	a, err := SortByDoc(ctx, load(t, ctx, "A", aCodes), "a")
	if err != nil {
		t.Fatal(err)
	}
	d, err := SortByDoc(ctx, load(t, ctx, "D", dCodes), "d")
	if err != nil {
		t.Fatal(err)
	}
	if d.NumPages() != 1 {
		t.Fatalf("D has %d pages, want 1", d.NumPages())
	}
	before := ctx.Pool.Stats()
	var sink PairSink
	if err := MPMGJN(ctx, a, d, &sink); err != nil {
		t.Fatal(err)
	}
	samePairs(t, "mpmgjn", sink.Pairs, oracle(aCodes, dCodes))
	got := ctx.Pool.Stats().Sub(before)
	if want := a.NumPages() + 1; got.Hits+got.Misses != want {
		t.Fatalf("%d pool requests for %d ancestors over one descendant page, want %d (A's pages + 1)",
			got.Hits+got.Misses, len(aCodes), want)
	}
}

func TestADBPlusSkipsViaIndex(t *testing.T) {
	// A's elements live far left, D's far right except one matching pair:
	// the skip rules must fire.
	const h = 14
	var aCodes, dCodes []pbicode.Code
	for i := 0; i < 300; i++ {
		aCodes = append(aCodes, pbicode.Code(2*i+2)) // low left region nodes
	}
	// One big ancestor spanning the right side.
	right := pbicode.Root(h).RightChild()
	aCodes = append(aCodes, right)
	for i := 0; i < 300; i++ {
		dCodes = append(dCodes, pbicode.Code(uint64(right)+uint64(i)*2+1))
	}
	ctx := newCtx(t, 8, h)
	a := load(t, ctx, "A", aCodes)
	d := load(t, ctx, "D", dCodes)
	var sink PairSink
	if err := ADBPlusOnTheFly(ctx, a, d, &sink); err != nil {
		t.Fatal(err)
	}
	samePairs(t, "adb", sink.Pairs, oracle(aCodes, dCodes))
	if ctx.Stats.IndexProbes == 0 {
		t.Fatal("no skip seeks recorded")
	}
}

func TestChooseImplementsTable1(t *testing.T) {
	ctx := newCtx(t, 4, 10)
	rng := rand.New(rand.NewSource(10))
	big := load(t, ctx, "big", randCodes(rng, 2000, 10, -1))
	small := load(t, ctx, "small", randCodes(rng, 5, 10, -1))
	sorted := load(t, ctx, "sorted", docOrder(randCodes(rng, 2000, 10, -1)))
	if big.Ordered() || !sorted.Ordered() {
		t.Fatalf("big ordered %v, sorted ordered %v", big.Ordered(), sorted.Ordered())
	}
	cases := []struct {
		spec    InputSpec
		heights uint64 // Context.AncestorHeights
		a, d    *relation.Relation
		want    Algorithm
	}{
		{InputSpec{IndexedA: true, IndexedD: true}, 0, big, big, AlgINLJN},
		{InputSpec{}, 0, sorted, sorted, AlgStackTree},
		{InputSpec{IndexedA: true, IndexedD: true}, 0, sorted, sorted, AlgADBPlus},
		{InputSpec{}, 1 << 3, big, big, AlgSHCJ},
		{InputSpec{}, 1<<3 | 1<<5, big, big, AlgVPJ},
		{InputSpec{}, 0, big, big, AlgVPJ},
		{InputSpec{}, 0, big, small, AlgMHCJRollup},
		{InputSpec{}, 0, sorted, big, AlgVPJ}, // one-sided sort is no sort
	}
	for i, tc := range cases {
		ctx.AncestorHeights = tc.heights
		if got := table1(ctx, tc.spec, tc.a, tc.d); got != tc.want {
			t.Errorf("case %d: table1 = %v, want %v", i, got, tc.want)
		}
		// AUTO prices Table 1's pick among the candidates and runs it
		// whenever nothing is cheaper; otherwise it runs the cheapest.
		p := Choose(ctx, tc.spec, tc.a, tc.d)
		cost := map[Algorithm]int64{}
		least := int64(1 << 62)
		for j, alg := range p.Algs[:p.N] {
			cost[alg] = p.IO[j]
			least = min(least, p.IO[j])
		}
		rule, ok := cost[tc.want]
		switch {
		case !ok:
			t.Errorf("case %d: Table 1's %v is not among the candidates %v", i, tc.want, p.Algs[:p.N])
		case rule == least && p.Chosen != tc.want:
			t.Errorf("case %d: Choose = %v, want Table 1's %v at the least cost %d", i, p.Chosen, tc.want, least)
		case cost[p.Chosen] != least:
			t.Errorf("case %d: Choose = %v at %d pages, the cheapest costs %d", i, p.Chosen, cost[p.Chosen], least)
		}
	}
}

func TestRunAutoMatchesOracle(t *testing.T) {
	const h = 10
	rng := rand.New(rand.NewSource(11))
	aCodes := randCodes(rng, 600, h, -1)
	dCodes := randCodes(rng, 600, h, -1)
	want := oracle(aCodes, dCodes)
	for _, tc := range []struct {
		spec   InputSpec
		sorted bool // the inputs are stored in document order
	}{
		{InputSpec{}, false},
		{InputSpec{}, true},
		{InputSpec{IndexedA: true, IndexedD: true}, false},
	} {
		spec := tc.spec
		ctx := newCtx(t, 6, h)
		aIn, dIn := aCodes, dCodes
		if tc.sorted {
			aIn, dIn = docOrder(aCodes), docOrder(dCodes)
		}
		a := load(t, ctx, "A", aIn)
		d := load(t, ctx, "D", dIn)
		var sink PairSink
		alg, err := Run(ctx, AlgAuto, spec, a, d, &sink)
		if err != nil {
			t.Fatalf("%+v (%v): %v", spec, alg, err)
		}
		samePairs(t, alg.String(), sink.Pairs, want)
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	ctx := newCtx(t, 4, 8)
	a := load(t, ctx, "A", nil)
	d := load(t, ctx, "D", nil)
	if _, err := Run(ctx, Algorithm(99), InputSpec{}, a, d, &CountSink{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	for alg, want := range map[Algorithm]string{
		AlgSHCJ: "SHCJ", AlgMHCJRollup: "MHCJ+Rollup", AlgVPJ: "VPJ",
		AlgADBPlus: "ADB+", Algorithm(99): "Algorithm(99)",
	} {
		if got := alg.String(); got != want {
			t.Errorf("String(%d) = %q", int(alg), got)
		}
	}
}

func TestHeightHistogram(t *testing.T) {
	ctx := newCtx(t, 4, 6)
	rel := load(t, ctx, "R", []pbicode.Code{1, 3, 2, 6, 4, 32})
	hist, err := HeightHistogram(rel)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int64{0: 2, 1: 2, 2: 1, 5: 1}
	for h, n := range hist {
		if n != want[h] {
			t.Errorf("hist[%d] = %d, want %d", h, n, want[h])
		}
	}
	if m := heightMask(&hist); m != 1<<0|1<<1|1<<2|1<<5 {
		t.Errorf("heightMask = %b", m)
	}
	if q := quantileHeight(&hist, 0.5); q != 1 {
		t.Errorf("median height = %d, want 1", q)
	}
	if hist, err := HeightHistogram(load(t, ctx, "E", nil)); err != nil || heightMask(&hist) != 0 {
		t.Errorf("empty relation: mask %b, %v", heightMask(&hist), err)
	}
}

func TestRelationSink(t *testing.T) {
	const h = 8
	rng := rand.New(rand.NewSource(12))
	aCodes := randCodes(rng, 200, h, -1)
	dCodes := randCodes(rng, 200, h, -1)
	ctx := newCtx(t, 8, h)
	a := load(t, ctx, "A", aCodes)
	d := load(t, ctx, "D", dCodes)
	out := relation.New(ctx.Pool, "out")
	if err := MHCJRollup(ctx, a, d, 0, &RelationSink{Out: out}); err != nil {
		t.Fatal(err)
	}
	recs, err := out.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var got []Pair
	for _, r := range recs {
		got = append(got, Pair{A: pbicode.Code(r.Aux), D: r.Code})
	}
	samePairs(t, "relation-sink", got, oracle(aCodes, dCodes))
}

// TestSortByDocElidesOrderedInput: a sort on the fly of a relation already
// in document order performs no I/O and returns a borrowed relation over
// the input's pages; freeing it leaves the input readable. An unordered
// input is sorted, and its sorted copy is ordered.
func TestSortByDocElidesOrderedInput(t *testing.T) {
	ctx := newCtx(t, 4, 12)
	codes := randCodes(rand.New(rand.NewSource(3)), 800, 12, -1)
	shuffled := load(t, ctx, "S", codes)
	if shuffled.Ordered() {
		t.Fatal("random codes claim document order")
	}
	sorted, err := SortByDoc(ctx, shuffled, "s")
	if err != nil {
		t.Fatal(err)
	}
	if !sorted.Ordered() || sorted.NumRecords() != shuffled.NumRecords() {
		t.Fatalf("sorted copy: ordered %v, %d records", sorted.Ordered(), sorted.NumRecords())
	}
	disk := ctx.Pool.Disk()
	before := disk.Stats()
	again, err := SortByDoc(ctx, sorted, "again")
	if err != nil {
		t.Fatal(err)
	}
	if io := disk.Stats().Sub(before); io.Reads+io.Writes != 0 || !slices.Equal(again.Pages(), sorted.Pages()) {
		t.Fatalf("sort of an ordered relation: %d reads, %d writes; shares its pages: %v", io.Reads, io.Writes, slices.Equal(again.Pages(), sorted.Pages()))
	}
	if err := again.Free(); err != nil {
		t.Fatal(err)
	}
	recs, err := sorted.ReadAll()
	if err != nil || int64(len(recs)) != shuffled.NumRecords() {
		t.Fatalf("input after its borrowed sort was freed: %d records (%v)", len(recs), err)
	}
}
