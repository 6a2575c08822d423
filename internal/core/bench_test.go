package core

import (
	"math/rand"
	"testing"

	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/relation/relationtest"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/pbicode"
)

// benchJoin measures one algorithm over fixed random inputs of n elements
// per side against a pool of b frames.
func benchJoin(b *testing.B, fn joinFunc, n, frames int) {
	b.Helper()
	const h = 22
	aCodes, dCodes := drawCodes(n, h)
	benchInputs(b, fn, h, frames, aCodes, dCodes, false, "")
}

// drawCodes draws the ancestor and descendant codes of the multi-height
// benchmarks: n each, uniform over a height-h tree, the same every run.
func drawCodes(n, h int) (aCodes, dCodes []pbicode.Code) {
	rng := rand.New(rand.NewSource(1))
	mk := func() []pbicode.Code {
		out := make([]pbicode.Code, n)
		for i := range out {
			out[i] = pbicode.Code(rng.Uint64()%pbicode.NumNodes(h) + 1)
		}
		return out
	}
	return mk(), mk()
}

// benchOrders runs fn over the records as drawn, which no relation claims
// is in document order (the sorts and B+-tree builds), and over the same
// records in document order (no sort; the fence indexes; the partitioning
// joins hash either way) as sub-benchmarks, each reporting ns per result pair and pages per join
// besides ns per join.
func benchOrders(b *testing.B, fn joinFunc, h, frames int, aCodes, dCodes []pbicode.Code) {
	b.Run("shuffled", func(b *testing.B) { benchInputs(b, fn, h, frames, aCodes, dCodes, false, "") })
	b.Run("ordered", func(b *testing.B) { benchInputs(b, fn, h, frames, aCodes, dCodes, true, "") })
}

// benchInputs measures fn over aCodes and dCodes, stored as given or in
// document order, on a fresh disk and pool each iteration; a non-empty
// claim re-attaches D under it (relationtest.Claims). The loaded pages are
// written out before the clock starts, so pages/op counts the join's own
// reads and writes — under a claim, from a cold pool, so that it counts
// every page the join fetches.
func benchInputs(b *testing.B, fn joinFunc, h, frames int, aCodes, dCodes []pbicode.Code, inOrder bool, claim string) {
	b.Helper()
	if inOrder {
		aCodes, dCodes = docOrder(aCodes), docOrder(dCodes)
	}
	var pairs, pages int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := storage.NewMemDisk(4096, storage.CostModel{})
		pool := buffer.New(d, frames)
		ctx := &Context{Pool: pool, TreeHeight: h, Stats: &Stats{}}
		a, err := relation.FromCodes(pool, "A", aCodes)
		if err != nil {
			b.Fatal(err)
		}
		dd, err := relation.FromCodes(pool, "D", dCodes)
		if err != nil {
			b.Fatal(err)
		}
		if claim != "" {
			if dd, err = relationtest.Claim(dd, claim); err != nil {
				b.Fatal(err)
			}
		}
		if err := pool.FlushAll(); err != nil {
			b.Fatal(err)
		}
		if claim != "" {
			if err := pool.EvictAll(); err != nil {
				b.Fatal(err)
			}
		}
		before := d.Stats()
		b.StartTimer()
		var sink CountSink
		if err := fn(ctx, a, dd, &sink); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		io := d.Stats().Sub(before)
		pairs, pages = sink.N, pages+io.Reads+io.Writes
		d.Close()
		b.StartTimer()
	}
	if pairs > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*pairs), "ns/pair")
	}
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
}

// BenchmarkMHCJRollup100k joins two multi-height sets through the rollup,
// as drawn and in document order.
func BenchmarkMHCJRollup100k(b *testing.B) {
	const h = 22
	aCodes, dCodes := drawCodes(100_000, h)
	benchOrders(b, func(ctx *Context, a, d *relation.Relation, s Sink) error {
		return MHCJRollup(ctx, a, d, 0, s)
	}, h, 64, aCodes, dCodes)
}

func BenchmarkVPJ100k(b *testing.B) { benchJoin(b, VPJ, 100_000, 64) }

// BenchmarkStackTree100k runs the stack-tree join over records as drawn,
// which it sorts on the fly, and over the same records in document order,
// which the batched merge reads as they are; and a selective pair in
// document order — the ancestors that fall in one sixty-fourth of the tree,
// |A| ≪ |D| — whose D has fences, which the merge seeks over, or claims its
// order on trust, which the merge reads to the end.
func BenchmarkStackTree100k(b *testing.B) {
	const h = 22
	aCodes, dCodes := drawCodes(100_000, h)
	benchOrders(b, StackTreeOnTheFly, h, 64, aCodes, dCodes)
	x := pbicode.Root(h).LeftChild().RightChild().LeftChild().RightChild().LeftChild().RightChild()
	var few []pbicode.Code
	for _, c := range aCodes {
		if pbicode.IsAncestor(x, c) {
			few = append(few, c)
		}
	}
	for _, claim := range []string{"fenced", "trusted"} {
		b.Run("selective/"+claim, func(b *testing.B) { benchInputs(b, StackTree, h, 64, few, dCodes, true, claim) })
	}
}

func BenchmarkMPMGJN100k(b *testing.B) { benchJoin(b, MPMGJNOnTheFly, 100_000, 64) }

// BenchmarkADBPlus100k runs ADB+ over records as drawn, which it sorts and
// bulk-loads into B+-trees, and over the same records in document order,
// which it indexes by their own pages.
func BenchmarkADBPlus100k(b *testing.B) {
	const h = 22
	aCodes, dCodes := drawCodes(100_000, h)
	benchOrders(b, ADBPlusOnTheFly, h, 64, aCodes, dCodes)
}

// BenchmarkINLJN100k runs the index nested loop join the same two ways;
// with equal sides it probes an index on D.
func BenchmarkINLJN100k(b *testing.B) {
	const h = 22
	aCodes, dCodes := drawCodes(100_000, h)
	benchOrders(b, INLJN, h, 64, aCodes, dCodes)
}

// BenchmarkSHCJ100k joins a single-height ancestor set, as drawn and in
// document order.
func BenchmarkSHCJ100k(b *testing.B) {
	const h = 22
	rng := rand.New(rand.NewSource(2))
	const n = 100_000
	aCodes := make([]pbicode.Code, n)
	l := h - 8 - 1
	for i := range aCodes {
		aCodes[i] = pbicode.G(rng.Uint64()%(1<<uint(l)), l, h)
	}
	dCodes := make([]pbicode.Code, n)
	for i := range dCodes {
		dCodes[i] = pbicode.Code(rng.Uint64()%pbicode.NumNodes(h) + 1)
	}
	benchOrders(b, func(ctx *Context, a, d *relation.Relation, s Sink) error {
		return SHCJ(ctx, a, d, 8, s)
	}, h, 64, aCodes, dCodes)
}
