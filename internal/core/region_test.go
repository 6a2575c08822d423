package core

import (
	"math/rand"
	"testing"

	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/pbicode"
)

func TestStackTreeRegionMatchesOracle(t *testing.T) {
	const h = 12
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		aCodes := randCodes(rng, 300+rng.Intn(500), h, -1)
		dCodes := randCodes(rng, 300+rng.Intn(500), h, -1)
		want := oracle(aCodes, dCodes)

		ctx := newCtx(t, 8, h)
		a := load(t, ctx, "A", aCodes)
		d := load(t, ctx, "D", dCodes)
		ra, err := ToRegionRelation(ctx, a, "RA")
		if err != nil {
			t.Fatal(err)
		}
		rd, err := ToRegionRelation(ctx, d, "RD")
		if err != nil {
			t.Fatal(err)
		}
		// Region records carry (Start, End); rebuild element codes at
		// emission to compare against the oracle.
		var got []Pair
		err = StackTreeRegionOnTheFly(ctx, ra, rd, sinkFunc(func(ar, dr relation.Rec) error {
			got = append(got, Pair{
				A: pbicode.FromRegion(pbicode.Region{Start: uint64(ar.Code), End: ar.Aux}),
				D: pbicode.FromRegion(pbicode.Region{Start: uint64(dr.Code), End: dr.Aux}),
			})
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		samePairs(t, "stacktree-region", got, want)
		if ctx.Pool.PinnedFrames() != 0 {
			t.Fatal("leaked pins")
		}
	}
}

func TestRegionLayoutSamePageCount(t *testing.T) {
	const h = 14
	rng := rand.New(rand.NewSource(9))
	codes := randCodes(rng, 2000, h, -1)
	ctx := newCtx(t, 8, h)
	// The claim is about the paper's layout: a (Start, End) region record
	// is the same two words as a (Code, ordinal) one, so the region
	// baselines scan exactly as many pages. (Packed, the region copy is
	// the larger: End is no constant stride.)
	rel := loadFmt(t, ctx, "R", codes, "fixed")
	reg, err := ToRegionRelation(ctx, rel, "RR")
	if err != nil {
		t.Fatal(err)
	}
	if reg.NumPages() != rel.NumPages() || reg.NumRecords() != rel.NumRecords() {
		t.Fatalf("layouts differ: %d/%d pages", reg.NumPages(), rel.NumPages())
	}
}

func TestRegionSelfJoinExcludesSelf(t *testing.T) {
	// Identical regions in both sets are the same element: never a pair.
	const h = 8
	codes := []pbicode.Code{pbicode.Root(h), 2, 1}
	ctx := newCtx(t, 8, h)
	rel := load(t, ctx, "R", codes)
	ra, err := ToRegionRelation(ctx, rel, "RA")
	if err != nil {
		t.Fatal(err)
	}
	rd, err := ToRegionRelation(ctx, rel, "RD")
	if err != nil {
		t.Fatal(err)
	}
	var sink CountSink
	if err := StackTreeRegionOnTheFly(ctx, ra, rd, &sink); err != nil {
		t.Fatal(err)
	}
	if want := int64(len(oracle(codes, codes))); sink.N != want {
		t.Fatalf("pairs = %d, want %d", sink.N, want)
	}
}
