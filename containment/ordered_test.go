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

	"github.com/pbitree/pbitree/internal/relation"
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
						// Inputs stored in document order are sorted ones:
						// AUTO takes Table 1's sorted row.
						if alg == Auto && a.Ordered() && res.Algorithm != "STACKTREE" {
							t.Fatalf("%s: AUTO ran %s over ordered inputs, want STACKTREE", name, res.Algorithm)
						}
						// The inputs are still there, whole, after the join.
						if codes, err := a.Codes(); err != nil || !slices.Equal(codes, aCodes) {
							t.Fatalf("%s: %v left A as %d codes (%v)", name, alg, len(codes), err)
						}
					}
					if inOrder && !paper {
						kernelsAgree(t, name, e, a, d, ds.algs, true)
					}
					// //A//D//D: a chain whose second step's ancestors are the
					// first step's matches, reloaded as a temp relation — in
					// document order, so over ordered inputs both steps are
					// stack merges handing the chain each match once. A
					// filter that keeps every pair makes the steps see every
					// pair instead, for the same codes.
					wantChain := chainOracle(ds.a, ds.d)
					all := func(Pair) bool { return true }
					for _, filter := range []func(Pair) bool{nil, all} {
						codes, reps, err := e.Chain(context.Background(), a, []ChainStep{{Desc: d, Filter: filter}, {Desc: d, Filter: filter}})
						if err != nil {
							t.Fatalf("%s: chain (filtered %v): %v", name, filter != nil, err)
						}
						if !slices.Equal(codes, wantChain) {
							t.Fatalf("%s: chain (filtered %v) gave %d codes, want %d", name, filter != nil, len(codes), len(wantChain))
						}
						for i, rep := range reps {
							if rep.Analysis != nil && a.Ordered() && rep.Analysis.Result.Algorithm != "STACKTREE" {
								t.Fatalf("%s: chain step %d ran %s over ordered inputs, want STACKTREE", name, i, rep.Analysis.Result.Algorithm)
							}
						}
					}
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestCountOnlyMatchesCollect: a join whose pairs no option reads — the
// count-only join, which the stack merge counts a descendant's ancestor
// chain at a time — counts what collecting the pairs gives, for every
// algorithm over inputs stored in document order and shuffled; and with a
// Filter, which sees every pair, the count is the filtered pairs'.
func TestCountOnlyMatchesCollect(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	const h = 12
	aOrd, aShuf := docOrdered(t, rng, randCodes(rng, 400, h))
	dOrd, dShuf := docOrdered(t, rng, randCodes(rng, 700, h))
	want := oracle(aOrd, dOrd)
	keep := func(p Pair) bool { return (p.A.Height()+p.D.Height())%2 == 0 }
	wantKept := int64(0)
	for _, p := range want {
		if keep(p) {
			wantKept++
		}
	}
	for _, inOrder := range []bool{true, false} {
		aCodes, dCodes := aShuf, dShuf
		if inOrder {
			aCodes, dCodes = aOrd, dOrd
		}
		e, a, d := orderedEngine(t, false, false, aCodes, dCodes)
		for _, name := range AlgorithmNames() {
			alg, _ := ParseAlgorithm(name)
			if alg == SHCJ {
				continue // the ancestors are not single-height
			}
			for _, filter := range []func(Pair) bool{nil, keep} {
				wantN := int64(len(want))
				if filter != nil {
					wantN = wantKept
				}
				count, err := e.Join(a, d, JoinOptions{Algorithm: alg, Filter: filter})
				if err != nil {
					t.Fatal(err)
				}
				coll, err := e.Join(a, d, JoinOptions{Algorithm: alg, Filter: filter, Collect: true})
				if err != nil {
					t.Fatal(err)
				}
				if count.Count != wantN || coll.Count != wantN || int64(len(coll.Pairs)) != wantN {
					t.Errorf("ordered=%v %s (%s) filtered=%v: count-only %d, collected %d (%d pairs), want %d",
						inOrder, name, count.Algorithm, filter != nil, count.Count, coll.Count, len(coll.Pairs), wantN)
				}
			}
		}
		e.Close()
	}
}

// TestMergeKernelsSmallPool is TestOrderedVersusShuffled's kernel
// differential at b = 4, where a build side holds 62 records: joins over
// relations in document order partition (Grace and VPJ), build on D, probe
// rollup's tail and, without height statistics, split the rollup and
// probe its high records in one pass — each an in-memory hash join, as the
// paper's are, and each giving the oracle's pairs with the false hits,
// partitions and page I/O of the same joins over relations on the same
// pages that claim no order.
func TestMergeKernelsSmallPool(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	const h = 12
	var tailA []pbicode.Code // heights 1 and 2, empty 3..5, then 6..8
	tailA = append(tailA, randCodesFixedHeight(25, 1, h)...)
	tailA = append(tailA, randCodesFixedHeight(25, 2, h)...)
	top := pbicode.G(1, 3, h) // a height-8 node
	tailA = append(tailA, top, pbicode.F(top-1, 6), pbicode.F(top+1, 7))
	rollups := []Algorithm{MHCJ, MHCJRollup, VPJ}
	datasets := []struct {
		name  string
		a, d  []pbicode.Code
		algs  []Algorithm
		stats bool // the relations keep their height statistics
	}{
		{"grace", randCodes(rng, 500, h), randCodes(rng, 600, h), rollups, true},
		{"build-d", randCodesFixedHeight(300, 4, h), randCodes(rng, 40, h), []Algorithm{SHCJ, MHCJRollup, VPJ}, true},
		{"tail", tailA, randCodes(rng, 600, h), rollups, true},
		{"split", randCodes(rng, 500, h), randCodes(rng, 600, h), []Algorithm{MHCJRollup}, false},
	}
	reached := map[string]bool{}
	for _, ds := range datasets {
		aOrd, _ := docOrdered(t, rng, ds.a)
		dOrd, _ := docOrdered(t, rng, ds.d)
		e, err := NewEngine(Config{PageSize: 512, BufferPages: 4})
		if err != nil {
			t.Fatal(err)
		}
		a, err := e.Load("A", aOrd)
		if err != nil {
			t.Fatal(err)
		}
		d, err := e.Load("D", dOrd)
		if err != nil {
			t.Fatal(err)
		}
		for _, ph := range kernelsAgree(t, ds.name, e, a, d, ds.algs, ds.stats) {
			reached[ph] = true
		}
		e.Close()
	}
	for _, ph := range []string{"grace-partition", "hash-join[build=A]", "hash-join[build=D]",
		"equijoin[rollup h=2 tail=6,7,8]", "rollup-split", "multi-probe", "vpartition", "mem-join"} {
		if !reached[ph] {
			t.Errorf("no join over ordered relations ran %s", ph)
		}
	}
}

// kernelsAgree joins a and d, both in document order, with each of the
// partitioning joins among algs twice from a cold pool: over relations
// that claim the order and over relations on the same pages that do not.
// Both must give the oracle's pairs, the same false hits and partitions,
// and read and write the same pages. stats keeps the relations' height
// statistics; without them the rollup pre-scans its ancestors. It returns
// the phases of the runs over the claiming relations, as "name[detail]" or
// "name".
func kernelsAgree(t *testing.T, name string, e *Engine, a, d *Relation, algs []Algorithm, stats bool) []string {
	t.Helper()
	aCodes, err := a.Codes()
	if err != nil {
		t.Fatal(err)
	}
	dCodes, err := d.Codes()
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(aCodes, dCodes)
	twin := func(r *Relation, ordered bool) *Relation {
		span, _ := r.rel.Span()
		tw := &Relation{rel: relation.Attach(e.pool, r.Name(), r.rel.Pages(), r.rel.NumRecords(), span, ordered, nil)}
		if stats {
			tw.heights = r.heights
		}
		return tw
	}
	var phases []string
	for _, alg := range algs {
		switch alg {
		case SHCJ, MHCJ, MHCJRollup, VPJ:
		default:
			continue
		}
		var runs [2]*Result
		for i, ordered := range []bool{true, false} {
			if err := e.DropCache(); err != nil {
				t.Fatal(err)
			}
			an, err := e.Analyze(twin(a, ordered), twin(d, ordered), JoinOptions{Algorithm: alg, Collect: true})
			if err != nil {
				t.Fatalf("%s: %v (ordered=%v): %v", name, alg, ordered, err)
			}
			res := an.Result
			sortPairs(res.Pairs)
			if !slices.Equal(res.Pairs, want) {
				t.Fatalf("%s: %v (ordered=%v): %d pairs, want the oracle's %d", name, alg, ordered, len(res.Pairs), len(want))
			}
			runs[i] = res
			for _, ph := range an.Phases {
				if ordered {
					phases = append(phases, ph.Name, ph.Name+"["+ph.Detail+"]")
				}
			}
		}
		m, s := runs[0], runs[1]
		if m.FalseHits != s.FalseHits || m.Partitions != s.Partitions || m.IO.Reads != s.IO.Reads || m.IO.Writes != s.IO.Writes {
			t.Errorf("%s: %v: ordered %d false hits, %d partitions, %d+%d page I/O; unclaimed %d, %d, %d+%d",
				name, alg, m.FalseHits, m.Partitions, m.IO.Reads, m.IO.Writes, s.FalseHits, s.Partitions, s.IO.Reads, s.IO.Writes)
		}
	}
	return phases
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
// in document order allocates no page; the relation keeps its pages and
// its claim.
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
	if !r.Ordered() || e.disk.NumPages() != extent || !slices.Equal(r.rel.Pages(), pages) {
		t.Fatalf("Sort: ordered %v, disk %d -> %d pages, pages kept %v",
			r.Ordered(), extent, e.disk.NumPages(), slices.Equal(r.rel.Pages(), pages))
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
		plan := e.ExplainString(a, d)
		if inOrder != strings.Contains(plan, "pages, ordered)") {
			t.Fatalf("ordered=%v: EXPLAIN header does not say so:\n%s", inOrder, plan)
		}
		e.Close()
	}
}

// TestFalseOrderClaimNeverAnswersWrongly: relations whose catalog entries
// claim document order over shuffled pages — the claim Attach takes on
// trust — make every join and AUTO give either the oracle's pairs or an
// error Classify reports as corrupt, never other pairs. The partitioning
// joins hash and read no order; the stack merge, MPMGJN and the index
// builds that skip their sort fail the join when they read a record out of
// the order claimed.
func TestFalseOrderClaimNeverAnswersWrongly(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	const h = 12
	aSingle := randCodesFixedHeight(300, 4, h)
	aMixed, dCodes := randCodes(rng, 300, h), randCodes(rng, 600, h)
	trusting := []Algorithm{Auto, MHCJRollup, VPJ, StackTree, StackTreeAnc, MPMGJN, INLJN, ADBPlus}
	for _, tc := range []struct {
		name         string
		a            []pbicode.Code
		algs         []Algorithm
		shufA, shufD bool
	}{
		{"A-shuffled", aSingle, append([]Algorithm{SHCJ}, trusting...), true, false},
		{"D-shuffled", aSingle, append([]Algorithm{SHCJ}, trusting...), false, true},
		{"both-shuffled", aMixed, trusting, true, true},
	} {
		aOrd, aShuf := docOrdered(t, rng, tc.a)
		dOrd, dShuf := docOrdered(t, rng, dCodes)
		aCodes, dIn := aOrd, dOrd
		if tc.shufA {
			aCodes = aShuf
		}
		if tc.shufD {
			dIn = dShuf
		}
		want := oracle(aCodes, dIn)
		path := filepath.Join(t.TempDir(), "db.pages")
		cfg := Config{Path: path, PageSize: 512, BufferPages: 16}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := e.Load("A", aCodes)
		if err != nil {
			t.Fatal(err)
		}
		d, err := e.Load("D", dIn)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Save(a, d); err != nil {
			t.Fatal(err)
		}
		e.Close()
		claimOrder(t, path)
		e, rels, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rels["A"].Ordered() || !rels["D"].Ordered() {
			t.Fatalf("%s: the edited catalog's claims did not survive Open", tc.name)
		}
		for _, alg := range tc.algs {
			res, err := e.Join(rels["A"], rels["D"], JoinOptions{Algorithm: alg, Collect: true})
			switch {
			case err != nil && Classify(err) != FailCorrupt:
				t.Errorf("%s: %v: %v, classified %v; want the oracle's pairs or a corrupt error", tc.name, alg, err, Classify(err))
			case err == nil:
				sortPairs(res.Pairs)
				if !slices.Equal(res.Pairs, want) {
					t.Errorf("%s: %v: %d pairs, want the oracle's %d", tc.name, alg, len(res.Pairs), len(want))
				}
			}
		}
		e.Close()
	}
}

// claimOrder edits the catalog of the database at path so that every
// relation claims document order.
func claimOrder(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(catalogPath(path))
	if err != nil {
		t.Fatal(err)
	}
	var cat map[string]any
	if err := json.Unmarshal(data, &cat); err != nil {
		t.Fatal(err)
	}
	for _, r := range cat["relations"].([]any) {
		r.(map[string]any)["ordered"] = true
	}
	if data, err = json.Marshal(cat); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(catalogPath(path), data, 0o644); err != nil {
		t.Fatal(err)
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
