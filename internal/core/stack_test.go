package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/pbicode"
)

// chainRecorder is a ChainSink that keeps what the stack merge hands it:
// each descendant once, with its ancestor chain.
type chainRecorder struct {
	descs  []pbicode.Code
	chains [][]pbicode.Code
	pairs  int // pairs that came through Emit instead
}

func (c *chainRecorder) Emit(a, d relation.Rec) error { c.pairs++; return nil }

func (c *chainRecorder) EmitChain(anc []relation.Rec, d relation.Rec) error {
	codes := make([]pbicode.Code, len(anc))
	for i, r := range anc {
		codes[i] = r.Code
	}
	c.descs = append(c.descs, d.Code)
	c.chains = append(c.chains, codes)
	return nil
}

// TestStackTreeChainsMatchPairs: a ChainSink gets from StackTree each
// matched descendant record once, in document order, with exactly the ancestors
// the per-pair sink sees for it in the same order, and the pair count is
// the same either way.
func TestStackTreeChainsMatchPairs(t *testing.T) {
	const h = 14
	rng := rand.New(rand.NewSource(40))
	deep := make([]pbicode.Code, 0, h) // one root-to-leaf chain: every height
	for c := pbicode.G(0, 0, h); ; c = pbicode.F(c-1, c.Height()-1) {
		deep = append(deep, c)
		if c.Height() == 0 {
			break
		}
	}
	for _, tc := range []struct {
		name string
		a, d []pbicode.Code
	}{
		{"random", randCodes(rng, 2000, h, -1), randCodes(rng, 3000, h, -1)},
		{"deep", append(randCodes(rng, 500, h, -1), deep...), append(randCodes(rng, 500, h, -1), deep...)},
		{"self", deep, deep},
		{"empty-A", nil, randCodes(rng, 100, h, -1)},
	} {
		a, d := docOrder(tc.a), docOrder(tc.d)
		ctx := newCtx(t, 8, h)
		ra, rd := load(t, ctx, "A", a), load(t, ctx, "D", d)
		var pairs PairSink
		if err := StackTree(ctx, ra, rd, &pairs); err != nil {
			t.Fatal(err)
		}
		perPair := ctx.Stats.Pairs
		samePairs(t, tc.name, slices.Clone(pairs.Pairs), oracle(a, d))
		ctx.Stats = &Stats{}
		var rec chainRecorder
		if err := StackTree(ctx, ra, rd, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.pairs != 0 || ctx.Stats.Pairs != perPair {
			t.Fatalf("%s: %d pairs counted through chains (%d through Emit), %d per pair", tc.name, ctx.Stats.Pairs, rec.pairs, perPair)
		}
		ctx.Stats = &Stats{}
		if err := StackTree(ctx, ra, rd, Discard); err != nil || ctx.Stats.Pairs != perPair {
			t.Fatalf("%s: count-only merge counted %d pairs (%v), %d per pair", tc.name, ctx.Stats.Pairs, err, perPair)
		}
		i := 0
		for k, dc := range rec.descs {
			if k > 0 && relation.DocLess(dc, rec.descs[k-1]) {
				t.Fatalf("%s: descendant %d (%v) precedes %v in document order", tc.name, k, dc, rec.descs[k-1])
			}
			for _, ac := range rec.chains[k] {
				if p := pairs.Pairs[i]; p.A != ac || p.D != dc {
					t.Fatalf("%s: chain pair (%v, %v), per-pair sink had %v", tc.name, ac, dc, p)
				}
				i++
			}
		}
	}
}

// TestStackTreeChainPollsCancellation: a count-only stack merge (Discard)
// makes no call per pair, so it is its own count that polls cancellation:
// with the pool unarmed, so that no page request polls, and the deadline
// already past, the join stops at the first 1024-pair boundary.
func TestStackTreeChainPollsCancellation(t *testing.T) {
	const h = 16
	rng := rand.New(rand.NewSource(41))
	ctx := newCtx(t, 64, h)
	a := load(t, ctx, "A", docOrder(randCodes(rng, 6000, h, -1)))
	d := load(t, ctx, "D", docOrder(randCodes(rng, 30000, h, -1)))
	if err := StackTree(ctx, a, d, Discard); err != nil {
		t.Fatal(err)
	}
	total := ctx.Stats.Pairs
	if total < 10*1024 {
		t.Fatalf("%d pairs: too few to show where the join stops", total)
	}
	goCtx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	ctx.Ctx, ctx.Stats = goCtx, &Stats{}
	err := StackTree(ctx, a, d, Discard)
	if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline", err)
	}
	if n := ctx.Stats.Pairs; n < 1024 || n >= 1024+h {
		t.Fatalf("stopped after %d of %d pairs, want at the first 1024-pair poll", n, total)
	}
	if got := ctx.Pool.PinnedFrames(); got != 0 {
		t.Fatalf("leaked %d pins", got)
	}
}

// TestMergeJoinsCheckOrderClaims: relations that claim document order on
// trust (Attach) over records that are not in it make every join that
// reads them as sorted — STACKTREE, STACKTREE-ANC, MPMGJN, and the index
// builds of INLJN and ADB+ — give the oracle's pairs or fail with
// ErrOrderClaim. The tail shapes put the one record out of order where a
// merge that stops early would never read it: last in A, behind every
// descendant (the stack merges), and last in D, behind every ancestor's
// segment (MPMGJN).
func TestMergeJoinsCheckOrderClaims(t *testing.T) {
	const h = 12
	rng := rand.New(rand.NewSource(42))
	root := pbicode.G(0, 0, h)
	half := pbicode.NumNodes(h) / 2
	below := func(codes []pbicode.Code, end uint64) []pbicode.Code {
		return slices.DeleteFunc(docOrder(codes), func(c pbicode.Code) bool { return c.End() >= end })
	}
	shuffled := func(codes []pbicode.Code) []pbicode.Code {
		out := slices.Clone(codes)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	aOrd, dOrd := docOrder(randCodes(rng, 300, h, -1)), docOrder(randCodes(rng, 600, h, -1))
	aHead := below(randCodes(rng, 300, h, -1), half)
	i := slices.IndexFunc(aHead, func(c pbicode.Code) bool { return c.Height() > 0 })
	leaf := pbicode.Code(aHead[i].Start()) // a leaf under an ancestor
	for _, tc := range []struct {
		name string
		a, d []pbicode.Code
		fail bool // the answer would be wrong: only ErrOrderClaim will do
	}{
		{"A-shuffled", shuffled(aOrd), dOrd, false},
		{"D-shuffled", aOrd, shuffled(dOrd), false},
		{"A-tail", append(slices.Clone(aOrd), root), below(dOrd, half), true},
		{"D-tail", aHead, append(slices.Clone(dOrd), leaf), true},
	} {
		want := oracle(tc.a, tc.d)
		for _, alg := range []Algorithm{AlgStackTree, AlgStackTreeAnc, AlgMPMGJN, AlgINLJN, AlgADBPlus} {
			ctx := newCtx(t, 16, h)
			a := attachAs(load(t, ctx, "A", tc.a), true)
			d := attachAs(load(t, ctx, "D", tc.d), true)
			var sink PairSink
			_, err := Run(ctx, alg, InputSpec{SortedA: true, SortedD: true}, a, d, &sink)
			switch {
			case err != nil && !errors.Is(err, ErrOrderClaim):
				t.Errorf("%s: %v: %v, want the oracle's pairs or ErrOrderClaim", tc.name, alg, err)
			case err == nil && tc.fail && alg != AlgINLJN:
				t.Errorf("%s: %v answered over a false order claim", tc.name, alg)
			case err == nil:
				got := slices.Clone(sink.Pairs)
				sortPairs(got)
				sortPairs(want)
				if !slices.Equal(got, want) {
					t.Errorf("%s: %v: %d pairs, want the oracle's %d", tc.name, alg, len(got), len(want))
				}
			}
			if got := ctx.Pool.PinnedFrames(); got != 0 {
				t.Errorf("%s: %v: leaked %d pins", tc.name, alg, got)
			}
		}
	}
}
