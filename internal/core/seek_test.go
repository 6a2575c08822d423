package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/relation/relationtest"
	"github.com/pbitree/pbitree/pbicode"
)

// seekJoins are the joins that seek over a D with fences: STACKTREE (its
// on-the-fly form, which reads an ordered input as it is and sorts any
// other), ADB+ and INLJN's descendant probe.
func seekJoins() map[string]joinFunc {
	joins := startIndexJoins()
	joins["STACKTREE"] = StackTreeOnTheFly
	return joins
}

// tallestAt returns the tallest code of a height-h tree whose region starts
// at k: a node at height j starts at k when 2^(j+1) divides k-1.
func tallestAt(k uint64, h int) pbicode.Code {
	j := 0
	for j+1 < h-1 && (k-1)%(1<<uint(j+2)) == 0 {
		j++
	}
	return pbicode.Code(k - 1 + 1<<uint(j))
}

// seekShape is one input pair of the seek matrix. a builds the ancestor
// side once D is stored, from D's fences, and tail stores D with an empty
// page after its last.
type seekShape struct {
	name string
	a    func(fences []uint64) []pbicode.Code
	d    []pbicode.Code
	tail bool
}

func seekShapes(rng *rand.Rand, h int) []seekShape {
	d := docOrder(randCodes(rng, 900, h, -1))
	root := pbicode.Root(h)
	few := func(n int) func([]uint64) []pbicode.Code {
		a := docOrder(randCodes(rng, n, h, 3))
		return func([]uint64) []pbicode.Code { return a }
	}
	return []seekShape{
		{"|A| << |D|", few(3), d, false},
		{"A under the leftmost eighth", func([]uint64) []pbicode.Code {
			x := root.LeftChild().LeftChild().LeftChild()
			return []pbicode.Code{x, x.LeftChild(), x.RightChild()}
		}, d, false},
		{"A at page boundaries", func(fences []uint64) []pbicode.Code {
			var a []pbicode.Code
			for j := 2; j < len(fences); j += 3 {
				a = append(a, tallestAt(fences[j], h))
			}
			return docOrder(a)
		}, d, false},
		{"empty tail page", few(4), d, true},
		{"empty A", func([]uint64) []pbicode.Code { return nil }, d, false},
		{"random", func([]uint64) []pbicode.Code { return docOrder(randCodes(rng, 300, h, -1)) }, d, true},
	}
}

// TestSeekingMergesMatchOracle is the kernels-versus-oracle matrix over
// seeks: STACKTREE, ADB+ and INLJN over a D with fences, a D whose order
// claim is taken on trust and an unordered D, in every page format, at
// b = 4 and 256, give the nested loop's pairs on every shape — few
// ancestors, ancestors that end early, seeks that land on a page's fence,
// an empty tail page. Over fences STACKTREE never reads more than over the
// trusted claim, which it reads to the end, and over few ancestors reads
// less.
func TestSeekingMergesMatchOracle(t *testing.T) {
	const h = 16
	rng := rand.New(rand.NewSource(45))
	for _, shape := range seekShapes(rng, h) {
		for _, format := range pageFormats {
			for _, b := range []int{4, 256} {
				reads := map[string]int64{}
				for _, claim := range relationtest.Claims {
					ctx := newCtx(t, b, h)
					d := loadFmt(t, ctx, "D", shape.d, format)
					var err error
					if shape.tail {
						if d, err = relationtest.EmptyTail(d); err != nil {
							t.Fatal(err)
						}
					}
					fenced, err := relationtest.Claim(d, "fenced")
					if err != nil {
						t.Fatal(err)
					}
					aCodes := shape.a(fenced.Fences())
					want := oracle(aCodes, shape.d)
					if d, err = relationtest.Claim(d, claim); err != nil {
						t.Fatal(err)
					}
					a := load(t, ctx, "A", aCodes)
					for name, fn := range seekJoins() {
						label := fmt.Sprintf("%s/%s/%s/D %s/b=%d", shape.name, name, format, claim, b)
						if err := ctx.Pool.EvictAll(); err != nil {
							t.Fatal(err)
						}
						before := ctx.Pool.Stats()
						var sink PairSink
						if err := fn(ctx, a, d, &sink); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						samePairs(t, label, sink.Pairs, want)
						if got := ctx.Pool.PinnedFrames(); got != 0 {
							t.Fatalf("%s: leaked %d pins", label, got)
						}
						if name == "STACKTREE" {
							reads[claim] = ctx.Pool.Stats().Sub(before).Misses
						}
					}
				}
				label := fmt.Sprintf("%s/STACKTREE/%s/b=%d", shape.name, format, b)
				if reads["fenced"] > reads["trusted"] {
					t.Fatalf("%s: over fences %d reads, over the trusted claim %d", label, reads["fenced"], reads["trusted"])
				}
				if shape.name == "|A| << |D|" && reads["fenced"] >= reads["trusted"] {
					t.Fatalf("%s: over fences %d reads, no fewer than the %d of the trusted claim", label, reads["fenced"], reads["trusted"])
				}
			}
		}
	}
}

// TestStackTreeSeeksOnlyWhereAncestorsAre: over a D with fences and an A of
// one subtree, STACKTREE fetches exactly the pages of D whose Starts meet
// that subtree's region — the count EstimateIO prices (meetPages) — and
// over the same pages without fences every one of them.
func TestStackTreeSeeksOnlyWhereAncestorsAre(t *testing.T) {
	const h = 16
	rng := rand.New(rand.NewSource(9))
	dCodes := docOrder(randCodes(rng, 2000, h, -1))
	x := pbicode.Root(h).LeftChild().RightChild().LeftChild()
	aCodes := []pbicode.Code{x, x.LeftChild(), x.LeftChild().RightChild()}
	for _, claim := range []string{"fenced", "trusted"} {
		ctx := newCtx(t, 256, h)
		a := load(t, ctx, "A", aCodes)
		d, err := relationtest.Claim(load(t, ctx, "D", dCodes), claim)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.Pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		before := ctx.Pool.Stats()
		var sink CountSink
		if err := StackTree(ctx, a, d, &sink); err != nil {
			t.Fatal(err)
		}
		got := ctx.Pool.Stats().Sub(before).Misses
		want := a.NumPages() + d.NumPages()
		if claim == "fenced" {
			want = a.NumPages() + meetPages(d, a)
		}
		if got != want || sink.N != int64(len(oracle(aCodes, dCodes))) {
			t.Fatalf("D %s: %d pages, %d pairs; want %d pages (of %d in D), %d pairs",
				claim, got, sink.N, want, d.NumPages(), len(oracle(aCodes, dCodes)))
		}
		if claim == "fenced" && 2*meetPages(d, a) > d.NumPages() {
			t.Fatalf("the subtree meets %d of D's %d pages: the premise is broken", meetPages(d, a), d.NumPages())
		}
	}
}

// TestStackTreeRejectsFalseFence: a D whose fences are not its pages'
// first Starts fails STACKTREE with ErrOrderClaim on the first page it
// reads, not with pairs.
func TestStackTreeRejectsFalseFence(t *testing.T) {
	const h = 14
	rng := rand.New(rand.NewSource(2))
	ctx := newCtx(t, 16, h)
	dCodes := docOrder(randCodes(rng, 600, h, -1))
	d := load(t, ctx, "D", dCodes)
	fences := d.Fences()
	bad := append([]uint64(nil), fences...)
	bad[0]++
	span, _ := d.Span()
	lying := relation.Attach(ctx.Pool, "D", d.Pages(), d.NumRecords(), span, true, bad)
	a := load(t, ctx, "A", []pbicode.Code{pbicode.Root(h)})
	if err := StackTree(ctx, a, lying, &CountSink{}); !errors.Is(err, ErrOrderClaim) {
		t.Fatalf("false fence: err = %v, want ErrOrderClaim", err)
	}
}
