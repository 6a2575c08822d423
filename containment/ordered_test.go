package containment

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/pbitree/pbitree/pbicode"
)

// docOrdered returns codes sorted into document order and a shuffled copy
// of them, which is not in it.
func docOrdered(t *testing.T, rng *rand.Rand, codes []pbicode.Code) (ordered, shuffled []pbicode.Code) {
	t.Helper()
	ordered = slices.Clone(codes)
	SortDocOrder(ordered)
	shuffled = slices.Clone(ordered)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	return ordered, shuffled
}

// TestOrderedVersusShuffled is the differential check of sort elision: the
// same relations loaded once in document order and once shuffled, in
// packed pages and in the paper's layout, in memory and stored then
// reopened from their catalog, must give every algorithm, AUTO and a
// Chain the nested-loop oracle's pairs. Only packed relations loaded in
// document order claim to be ordered, and the claim survives the catalog.
func TestOrderedVersusShuffled(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const h = 12
	datasets := []struct {
		name string
		a, d []pbicode.Code
		algs []Algorithm
	}{
		{"mixed", randCodes(rng, 500, h), randCodes(rng, 600, h),
			[]Algorithm{Auto, NestedLoop, MHCJ, MHCJRollup, VPJ, INLJN, StackTree, StackTreeAnc, MPMGJN, ADBPlus}},
		{"single-height", randCodesFixedHeight(300, 4, h), randCodes(rng, 600, h),
			[]Algorithm{Auto, SHCJ, StackTree, StackTreeAnc, MPMGJN, INLJN, ADBPlus}},
	}
	for _, ds := range datasets {
		aOrd, aShuf := docOrdered(t, rng, ds.a)
		dOrd, dShuf := docOrdered(t, rng, ds.d)
		want := oracle(ds.a, ds.d)
		for _, paper := range []bool{false, true} {
			for _, inOrder := range []bool{true, false} {
				for _, stored := range []bool{false, true} {
					name := fmt.Sprintf("%s/paper=%v/ordered=%v/stored=%v", ds.name, paper, inOrder, stored)
					aCodes, dCodes := aShuf, dShuf
					if inOrder {
						aCodes, dCodes = aOrd, dOrd
					}
					e, a, d := orderedEngine(t, paper, stored, aCodes, dCodes)
					if claim := inOrder && !paper; a.Ordered() != claim || d.Ordered() != claim {
						t.Fatalf("%s: Ordered() = %v, %v; want %v", name, a.Ordered(), d.Ordered(), claim)
					}
					for _, alg := range ds.algs {
						res, err := e.Join(a, d, JoinOptions{Algorithm: alg, Collect: true})
						if err != nil {
							t.Fatalf("%s: %v: %v", name, alg, err)
						}
						sortPairs(res.Pairs)
						if !slices.Equal(res.Pairs, want) {
							t.Fatalf("%s: %v (%s): %d pairs, want the oracle's %d", name, alg, res.Algorithm, len(res.Pairs), len(want))
						}
						// The inputs are still there, whole, after the join.
						if codes, err := a.Codes(); err != nil || !slices.Equal(codes, aCodes) {
							t.Fatalf("%s: %v left A as %d codes (%v)", name, alg, len(codes), err)
						}
					}
					// //A//D//D: a chain whose second step's ancestors are the
					// first step's matches, reloaded as a temp relation.
					codes, _, err := e.Chain(context.Background(), a, []ChainStep{{Desc: d}, {Desc: d}})
					if err != nil {
						t.Fatalf("%s: chain: %v", name, err)
					}
					if wantChain := chainOracle(ds.a, ds.d); !slices.Equal(codes, wantChain) {
						t.Fatalf("%s: chain gave %d codes, want %d", name, len(codes), len(wantChain))
					}
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// orderedEngine loads a and d into an engine of the given layout, or into
// a saved database that it reopens when stored is set.
func orderedEngine(t *testing.T, paper, stored bool, aCodes, dCodes []pbicode.Code) (*Engine, *Relation, *Relation) {
	t.Helper()
	cfg := Config{PageSize: 512, BufferPages: 16, PaperLayout: paper}
	if stored {
		cfg.Path = filepath.Join(t.TempDir(), "db.pages")
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Load("A", aCodes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Load("D", dCodes)
	if err != nil {
		t.Fatal(err)
	}
	if !stored {
		return e, a, d
	}
	if err := e.Save(a, d); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, rels, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, rels["A"], rels["D"]
}

// chainOracle returns, in document order, the codes of d with an ancestor
// in d that has an ancestor in a.
func chainOracle(a, d []pbicode.Code) []pbicode.Code {
	mid := map[pbicode.Code]bool{}
	for _, p := range oracle(a, d) {
		mid[p.D] = true
	}
	var out []pbicode.Code
	for _, dc := range d {
		for m := range mid {
			if pbicode.IsAncestor(m, dc) {
				out = append(out, dc)
				break
			}
		}
	}
	SortDocOrder(out)
	return slices.Compact(out)
}

// TestSortOfOrderedRelationWritesNothing: Engine.Sort of a relation stored
// in document order marks it sorted and allocates no page; the relation
// keeps its pages.
func TestSortOfOrderedRelationWritesNothing(t *testing.T) {
	e, err := NewEngine(Config{PageSize: 512, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	codes, _ := docOrdered(t, rand.New(rand.NewSource(5)), randCodes(rand.New(rand.NewSource(6)), 400, 12))
	r, err := e.Load("R", codes)
	if err != nil {
		t.Fatal(err)
	}
	pages, extent := r.rel.Pages(), e.disk.NumPages()
	if err := e.Sort(r); err != nil {
		t.Fatal(err)
	}
	if !r.Sorted() || !r.Ordered() || e.disk.NumPages() != extent || !slices.Equal(r.rel.Pages(), pages) {
		t.Fatalf("Sort: sorted %v ordered %v, disk %d -> %d pages, pages kept %v",
			r.Sorted(), r.Ordered(), extent, e.disk.NumPages(), slices.Equal(r.rel.Pages(), pages))
	}
}

// TestAnalyzePricesOnlySortsThatRun: over inputs in document order the
// cost model predicts STACKTREE's merge alone, ‖A‖+‖D‖, and a cold run
// reads at most that (the merge stops at D's end) and writes nothing;
// shuffled, it still prices both sorts. EXPLAIN says
// which inputs are ordered.
func TestAnalyzePricesOnlySortsThatRun(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	aOrd, aShuf := docOrdered(t, rng, randCodes(rng, 2000, 14))
	dOrd, dShuf := docOrdered(t, rng, randCodes(rng, 3000, 14))
	for _, inOrder := range []bool{true, false} {
		e, err := NewEngine(Config{PageSize: 512, BufferPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		aCodes, dCodes := aShuf, dShuf
		if inOrder {
			aCodes, dCodes = aOrd, dOrd
		}
		a, err := e.Load("A", aCodes)
		if err != nil {
			t.Fatal(err)
		}
		d, err := e.Load("D", dCodes)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.DropCache(); err != nil {
			t.Fatal(err)
		}
		an, err := e.Analyze(a, d, JoinOptions{Algorithm: StackTree})
		if err != nil {
			t.Fatal(err)
		}
		scan := a.Pages() + d.Pages()
		res := an.Result
		switch {
		case inOrder && (res.PredictedIO != scan || res.IO.Writes != 0 || res.IO.Reads > scan):
			t.Fatalf("ordered: predicted %d, %d reads + %d writes; want ‖A‖+‖D‖ = %d, reading no more and writing nothing",
				res.PredictedIO, res.IO.Reads, res.IO.Writes, scan)
		case !inOrder && res.PredictedIO <= scan:
			t.Fatalf("shuffled: predicted %d, want more than ‖A‖+‖D‖ = %d for the sorts", res.PredictedIO, scan)
		}
		plan := e.ExplainString(a, d, Spec{})
		if inOrder != strings.Contains(plan, "pages, ordered)") {
			t.Fatalf("ordered=%v: EXPLAIN header does not say so:\n%s", inOrder, plan)
		}
		e.Close()
	}
}

// TestFsckVerifiesOrderClaim: a database loaded in document order records
// the claim and checks clean; a catalog edited to claim order for a
// shuffled relation makes Fsck name that relation.
func TestFsckVerifiesOrderClaim(t *testing.T) {
	path, _ := buildDB(t) // random codes: neither relation is ordered
	data, err := os.ReadFile(catalogPath(path))
	if err != nil {
		t.Fatal(err)
	}
	var cat map[string]any
	if err := json.Unmarshal(data, &cat); err != nil {
		t.Fatal(err)
	}
	for _, r := range cat["relations"].([]any) {
		ent := r.(map[string]any)
		if ent["ordered"] != nil {
			t.Fatalf("shuffled relation %v recorded as ordered", ent["name"])
		}
		if ent["name"] == "D" {
			ent["ordered"] = true
		}
	}
	if data, err = json.Marshal(cat); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(catalogPath(path), data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Entries) != 1 || rep.Entries[0].Relation != "D" {
		t.Fatalf("false order claim: OK %v, entries %+v; want D named", rep.OK(), rep.Entries)
	}

	rng := rand.New(rand.NewSource(4))
	codes, _ := docOrdered(t, rng, randCodes(rng, 900, 12))
	ordPath := filepath.Join(t.TempDir(), "ord.pages")
	e, err := NewEngine(Config{Path: ordPath, PageSize: 512, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Load("R", codes)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Save(r); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if rep, err := Fsck(ordPath); err != nil || !rep.OK() {
		t.Fatalf("ordered relation: OK %v, entries %+v (%v)", rep.OK(), rep.Entries, err)
	}
	e, rels, err := Open(Config{Path: ordPath, BufferPages: 16, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if !rels["R"].Ordered() {
		t.Fatal("reopened relation lost its order claim")
	}
}
