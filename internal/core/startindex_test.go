package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/pbicode"
)

// startIndexJoins are the joins that read a Start index on D, and on A
// too for ADB+. INLJN is held to its descendant probe, the direction that
// indexes D, whatever the inputs' sizes would pick.
func startIndexJoins() map[string]joinFunc {
	return map[string]joinFunc{
		"ADB+": ADBPlusOnTheFly,
		"INLJN": func(ctx *Context, a, d *relation.Relation, sink Sink) error {
			idx, err := startIndex(ctx, d, "inl.d", &ctx.scratch().fences[1])
			if err != nil {
				return err
			}
			return probeDescendants(ctx, a, idx, ctx.Wrap(sink))
		},
	}
}

// spine returns the codes of a height-h tree's left spine: the root's
// leftmost path, every one of them starting at 1.
func spine(h int) []pbicode.Code {
	out := make([]pbicode.Code, h)
	for i := range out {
		out[i] = pbicode.Code(1) << uint(i)
	}
	return out
}

// startIndexShapes are the inputs the fence index must answer for, each
// side in document order.
func startIndexShapes(rng *rand.Rand, h int) []struct {
	name string
	a, d []pbicode.Code
} {
	left := pbicode.Root(h).LeftChild()
	var inLeft, inRight []pbicode.Code
	for _, c := range randCodes(rng, 400, h, -1) {
		switch {
		case pbicode.IsAncestor(left, c):
			inLeft = append(inLeft, c)
		case c > pbicode.Root(h):
			inRight = append(inRight, c)
		}
	}
	ties := append(spine(h), randCodes(rng, 200, h, -1)...)
	return []struct {
		name string
		a, d []pbicode.Code
	}{
		{"random", randCodes(rng, 300, h, -1), randCodes(rng, 500, h, -1)},
		{"empty A", nil, randCodes(rng, 100, h, -1)},
		{"empty D", randCodes(rng, 100, h, -1), nil},
		{"one-page sides", randCodes(rng, 6, h, -1), randCodes(rng, 7, h, -1)},
		{"D outside A", append(inLeft, left), inRight},
		// A node and its leftmost descendants share a Start: h records
		// starting at 1, more than a fixed-width page holds.
		{"equal Starts across pages", ties, ties},
	}
}

// TestStartIndexJoinsMatchOracle: ADB+ and INLJN over inputs that claim
// document order, which they index by their own pages, give the nested
// loop's pairs, and the same pair count and index probes as over the same
// records unclaimed, which they sort and bulk-load into B+-trees — in every
// page format, at b = 4 and b = 256, on every shape.
func TestStartIndexJoinsMatchOracle(t *testing.T) {
	const h = 20
	rng := rand.New(rand.NewSource(44))
	for _, shape := range startIndexShapes(rng, h) {
		aCodes, dCodes := docOrder(shape.a), docOrder(shape.d)
		want := oracle(aCodes, dCodes)
		for _, format := range pageFormats {
			for _, b := range []int{4, 256} {
				for name, fn := range startIndexJoins() {
					label := fmt.Sprintf("%s/%s/%s/b=%d", shape.name, name, format, b)
					var runs [2]Stats
					for i, ordered := range []bool{true, false} {
						ctx := newCtx(t, b, h)
						a := attachAs(loadFmt(t, ctx, "A", aCodes, format), ordered)
						d := attachAs(loadFmt(t, ctx, "D", dCodes, format), ordered)
						var sink PairSink
						if err := fn(ctx, a, d, &sink); err != nil {
							t.Fatalf("%s ordered=%v: %v", label, ordered, err)
						}
						samePairs(t, label, sink.Pairs, want)
						if got := ctx.Pool.PinnedFrames(); got != 0 {
							t.Fatalf("%s ordered=%v: leaked %d pins", label, ordered, got)
						}
						runs[i] = *ctx.Stats
					}
					if runs[0].Pairs != runs[1].Pairs || runs[0].IndexProbes != runs[1].IndexProbes {
						t.Fatalf("%s: fences %d pairs, %d probes; B+-tree %d pairs, %d probes",
							label, runs[0].Pairs, runs[0].IndexProbes, runs[1].Pairs, runs[1].IndexProbes)
					}
				}
			}
		}
	}
}

// TestStartIndexWritesNothing: indexing an ordered input reads each of its
// pages once and writes none, and so the whole join of two ordered inputs
// that fit the pool reads ‖A‖+‖D‖.
func TestStartIndexWritesNothing(t *testing.T) {
	const h = 20
	rng := rand.New(rand.NewSource(7))
	aCodes, dCodes := docOrder(randCodes(rng, 400, h, -1)), docOrder(randCodes(rng, 600, h, -1))
	for name, fn := range startIndexJoins() {
		d := storage.NewMemDisk(256, storage.CostModel{})
		ctx := &Context{Pool: buffer.New(d, 256), TreeHeight: h, Stats: &Stats{}}
		a, dd := load(t, ctx, "A", aCodes), load(t, ctx, "D", dCodes)
		if err := ctx.Pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		before := d.Stats()
		if err := fn(ctx, a, dd, Discard); err != nil {
			t.Fatal(err)
		}
		io := d.Stats().Sub(before)
		if io.Writes != 0 || io.Reads != a.NumPages()+dd.NumPages() {
			t.Fatalf("%s: %d reads, %d writes; want ‖A‖+‖D‖ = %d reads and no writes",
				name, io.Reads, io.Writes, a.NumPages()+dd.NumPages())
		}
		d.Close()
	}
}

// TestStartIndexRejectsFalseClaim: an input that claims document order
// over pages out of it fails the index build with ErrOrderClaim, and
// leaves no pin behind.
func TestStartIndexRejectsFalseClaim(t *testing.T) {
	const h = 16
	rng := rand.New(rand.NewSource(3))
	codes := docOrder(randCodes(rng, 300, h, -1))
	shuffled := slices.Clone(codes)
	shuffled[10], shuffled[250] = shuffled[250], shuffled[10]
	for name, fn := range startIndexJoins() {
		for _, side := range []string{"A", "D"} {
			ctx := newCtx(t, 8, h)
			aCodes, dCodes := codes, shuffled
			if side == "A" {
				aCodes, dCodes = shuffled, codes
			}
			a := attachAs(load(t, ctx, "A", aCodes), true)
			d := attachAs(load(t, ctx, "D", dCodes), true)
			err := fn(ctx, a, d, &CountSink{})
			if name == "INLJN" && side == "A" {
				// The probe never indexes A: its order is not trusted.
				if err != nil {
					t.Fatalf("%s, A shuffled: %v", name, err)
				}
				continue
			}
			if !errors.Is(err, ErrOrderClaim) {
				t.Fatalf("%s, %s shuffled: err = %v, want ErrOrderClaim", name, side, err)
			}
			if got := ctx.Pool.PinnedFrames(); got != 0 {
				t.Fatalf("%s, %s shuffled: leaked %d pins", name, side, got)
			}
		}
	}
}

// TestStartIndexWarmAllocs: the fences and the cursors' decode buffers
// live in the engine's Scratch and the pool, so a warm ADB+ or INLJN join
// of ordered inputs allocates a handful of objects — the same number over
// inputs five times as large, whose fences are five times as long.
func TestStartIndexWarmAllocs(t *testing.T) {
	const h = 22
	for name, fn := range startIndexJoins() {
		var allocs []float64
		for _, n := range []int{2_000, 10_000} {
			rng := rand.New(rand.NewSource(int64(n)))
			ctx := newCtx(t, 64, h)
			ctx.Scratch = new(Scratch)
			a := load(t, ctx, "A", docOrder(randCodes(rng, n, h, -1)))
			d := load(t, ctx, "D", docOrder(randCodes(rng, n, h, -1)))
			join := func() {
				if err := fn(ctx, a, d, Discard); err != nil {
					t.Fatal(err)
				}
			}
			join() // the first join sizes the fences
			allocs = append(allocs, testing.AllocsPerRun(20, join))
		}
		t.Logf("%s: %v allocations a warm join", name, allocs)
		if allocs[0] != allocs[1] || allocs[1] > 2 {
			t.Fatalf("%s: a warm join allocates %v objects over 2k records a side, %v over 10k; want at most 2, and the same",
				name, allocs[0], allocs[1])
		}
	}
}

// TestFenceSeekMatchesLinear: a seek to any key lands on the first record
// whose Start is at least that key, the one a linear search finds, and the
// cursor then walks the rest of the relation in order.
func TestFenceSeekMatchesLinear(t *testing.T) {
	const h = 14
	rng := rand.New(rand.NewSource(11))
	codes := docOrder(append(spine(h), randCodes(rng, 500, h, -1)...))
	ctx := newCtx(t, 4, h)
	checkFenceSeeks(t, ctx, load(t, ctx, "R", codes), codes, rng, 300)
}

// checkFenceSeeks indexes rel, which holds codes in document order behind
// its fences, and holds n seeks to random keys, and to each record's Start, to a linear
// search over codes.
func checkFenceSeeks(t *testing.T, ctx *Context, rel *relation.Relation, codes []pbicode.Code, rng *rand.Rand, n int) {
	t.Helper()
	var f fenceIndex
	it, err := startIndex(ctx, rel, "r", &f)
	if err != nil {
		t.Fatal(err)
	}
	defer it.close()
	if it != startIter(&f) {
		t.Fatal("a relation with fences was not indexed by them")
	}
	c := cursor{it: it}
	var keys []uint64
	for _, code := range codes {
		keys = append(keys, code.Start(), code.Start()+1)
	}
	for range n {
		keys = append(keys, rng.Uint64()%(2*pbicode.NumNodes(ctx.TreeHeight)+2))
	}
	for _, k := range keys {
		want := slices.IndexFunc(codes, func(c pbicode.Code) bool { return c.Start() >= k })
		if err := c.seek(k); err != nil {
			t.Fatal(err)
		}
		switch {
		case want < 0 && c.ok:
			t.Fatalf("seek %d: at %v, want the end", k, c.rec.Code)
		case want >= 0 && (!c.ok || c.rec.Code != codes[want]):
			t.Fatalf("seek %d: at %v (ok %v), want %v", k, c.rec.Code, c.ok, codes[want])
		}
		for i := want + 1; want >= 0 && i < min(len(codes), want+40); i++ {
			if c.advance(); !c.ok || c.rec.Code != codes[i] {
				t.Fatalf("seek %d, then %d steps: at %v (ok %v), want %v", k, i-want, c.rec.Code, c.ok, codes[i])
			}
		}
	}
	if c.err != nil {
		t.Fatal(c.err)
	}
}

// TestChooseKeepsStackTreeOverOrderedInputs: over two inputs in document
// order, ADB+ and INLJN now read what STACKTREE reads when the inputs fit
// the pool, and more when they do not, so AUTO runs Table 1's sorted row,
// STACKTREE, on either side of b.
func TestChooseKeepsStackTreeOverOrderedInputs(t *testing.T) {
	const h = 20
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{300, 6_000} {
		ctx := newCtx(t, 16, h)
		a := load(t, ctx, "A", docOrder(randCodes(rng, n, h, -1)))
		d := load(t, ctx, "D", docOrder(randCodes(rng, n, h, -1)))
		if fits := a.NumPages()+d.NumPages() <= 14; fits != (n == 300) {
			t.Fatalf("n=%d: %d+%d pages; the premise on b = 16 is broken", n, a.NumPages(), d.NumPages())
		}
		p := Choose(ctx, InputSpec{}, a, d)
		if p.Chosen != AlgStackTree {
			t.Fatalf("n=%d: AUTO chose %v: %v %v", n, p.Chosen, p.Algs[:p.N], p.IO[:p.N])
		}
	}
}

// FuzzStartIndexJoins holds the fence index to a linear search, and ADB+,
// INLJN and STACKTREE, which seek over the fences, to the nested loop, on
// random multi-height codes with runs of equal Starts, random page sizes
// and pool sizes.
func FuzzStartIndexJoins(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint16(200), uint16(300))
	f.Add(int64(2), uint8(1), uint8(3), uint16(0), uint16(40))
	f.Add(int64(3), uint8(2), uint8(64), uint16(500), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, pageSel, b uint8, na, nd uint16) {
		const h = 16
		rng := rand.New(rand.NewSource(seed))
		pageSize := []int{256, 512, 4096}[int(pageSel)%3]
		draw := func(n int) []pbicode.Code {
			codes := randCodes(rng, n%700, h, -1)
			if rng.Intn(2) == 0 {
				codes = append(codes, spine(h)[:rng.Intn(h)]...)
			}
			return docOrder(codes)
		}
		aCodes, dCodes := draw(int(na)), draw(int(nd))
		disk := storage.NewMemDisk(pageSize, storage.CostModel{})
		defer disk.Close()
		ctx := &Context{Pool: buffer.New(disk, 3+int(b)%62), TreeHeight: h, Stats: &Stats{}}
		a, d := load(t, ctx, "A", aCodes), load(t, ctx, "D", dCodes)
		checkFenceSeeks(t, ctx, d, dCodes, rng, 50)
		want := oracle(aCodes, dCodes)
		for name, fn := range seekJoins() {
			var sink PairSink
			if err := fn(ctx, a, d, &sink); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			samePairs(t, name, sink.Pairs, want)
		}
	})
}
