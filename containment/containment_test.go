package containment

import (
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

func randCodes(rng *rand.Rand, n, h int) []pbicode.Code {
	out := make([]pbicode.Code, n)
	for i := range out {
		out[i] = pbicode.Code(rng.Uint64()%pbicode.NumNodes(h) + 1)
	}
	return out
}

// randCodesFixedHeight draws n codes at one node height in a height-h tree.
func randCodesFixedHeight(n, height, h int) []pbicode.Code {
	rng := rand.New(rand.NewSource(int64(n*31 + height)))
	l := h - height - 1
	out := make([]pbicode.Code, n)
	for i := range out {
		out[i] = pbicode.G(rng.Uint64()%(1<<uint(l)), l, h)
	}
	return out
}

func oracle(a, d []pbicode.Code) []Pair {
	var out []Pair
	for _, ac := range a {
		for _, dc := range d {
			if pbicode.IsAncestor(ac, dc) {
				out = append(out, Pair{A: ac, D: dc})
			}
		}
	}
	sortPairs(out)
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

func TestJoinMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randCodes(rng, 300, 10)
	d := randCodes(rng, 400, 10)
	got, err := Join(a, d)
	if err != nil {
		t.Fatal(err)
	}
	sortPairs(got)
	want := oracle(a, d)
	if len(got) != len(want) {
		t.Fatalf("pairs = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pair %d mismatch", i)
		}
	}
	n, err := Count(a, d)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(want)) {
		t.Fatalf("Count = %d", n)
	}
}

func TestEngineAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	aCodes := randCodes(rng, 500, 12)
	dCodes := randCodes(rng, 600, 12)
	want := oracle(aCodes, dCodes)
	for _, alg := range []Algorithm{
		Auto, NestedLoop, MHCJ, MHCJRollup, VPJ, INLJN, StackTree, StackTreeAnc, MPMGJN, ADBPlus,
	} {
		e, err := NewEngine(Config{PageSize: 512, BufferPages: 16})
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
		res, err := e.Join(a, d, JoinOptions{Algorithm: alg, Collect: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		sortPairs(res.Pairs)
		if len(res.Pairs) != len(want) {
			t.Fatalf("%v (%s): %d pairs, want %d", alg, res.Algorithm, len(res.Pairs), len(want))
		}
		for i := range want {
			if res.Pairs[i] != want[i] {
				t.Fatalf("%v: pair %d mismatch", alg, i)
			}
		}
		if res.Count != int64(len(want)) {
			t.Fatalf("%v: Count = %d", alg, res.Count)
		}
		if res.IO.Total() < 0 || res.IO.WallTime <= 0 {
			t.Fatalf("%v: implausible IO stats %+v", alg, res.IO)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEngineEmitCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	aCodes := randCodes(rng, 100, 8)
	dCodes := randCodes(rng, 100, 8)
	e, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a, _ := e.Load("A", aCodes)
	d, _ := e.Load("D", dCodes)
	var n int64
	res, err := e.Join(a, d, JoinOptions{Emit: func(p Pair) error {
		if !IsAncestor(p.A, p.D) {
			t.Fatalf("bad pair %v", p)
		}
		n++
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if n != res.Count {
		t.Fatalf("callback saw %d of %d", n, res.Count)
	}
}

func TestEngineFileBacked(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// 3000 elements a side are a dozen packed 512-byte pages each: the
	// inputs alone are three times the 8-frame pool.
	aCodes := randCodes(rng, 3000, 14)
	dCodes := randCodes(rng, 3000, 14)
	path := filepath.Join(t.TempDir(), "pages.db")
	e, err := NewEngine(Config{Path: path, PageSize: 512, BufferPages: 8, DiskCost: DefaultDiskCost})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a, err := e.Load("A", aCodes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Load("D", dCodes)
	if err != nil {
		t.Fatal(err)
	}
	if a.Pages()+d.Pages() < 3*8 {
		t.Fatalf("inputs of %d+%d pages do not overflow the pool", a.Pages(), d.Pages())
	}
	res, err := e.Join(a, d, JoinOptions{Algorithm: VPJ})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(len(oracle(aCodes, dCodes))) {
		t.Fatalf("Count = %d", res.Count)
	}
	if res.IO.VirtualTime <= 0 || res.IO.PoolEvictions == 0 {
		t.Fatal("virtual clock did not advance on a file-backed engine with a tiny pool")
	}
}

func TestEngineJoinDoc(t *testing.T) {
	doc, err := xmltree.ParseString(`<doc>
	  <section><title>Introduction</title><figure/><figure/></section>
	  <section><title>Other</title><figure/><note><figure/></note></section>
	</doc>`, xmltree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, err := e.JoinDoc(doc, "section", "figure", JoinOptions{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 4 {
		t.Fatalf("//section//figure = %d, want 4", res.Count)
	}
}

// TestEngineSmallPool: a join's memory budget is the engine's pool, and
// a four-page pool still answers exactly.
func TestEngineSmallPool(t *testing.T) {
	e, err := NewEngine(Config{BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(5))
	aCodes, dCodes := randCodes(rng, 200, 8), randCodes(rng, 200, 8)
	a, _ := e.Load("A", aCodes)
	d, _ := e.Load("D", dCodes)
	res, err := e.Join(a, d, JoinOptions{Algorithm: MHCJRollup})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(oracle(aCodes, dCodes))); res.Count != want {
		t.Fatalf("Count = %d, want %d", res.Count, want)
	}
}

func TestEngineRollupTargetAndStats(t *testing.T) {
	e, err := NewEngine(Config{PageSize: 512, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// H=5: ancestor 18 rolled to height 2 produces one false hit against
	// D = {17, 19, 21} (see the core tests).
	a, _ := e.Load("A", []pbicode.Code{18})
	d, _ := e.Load("D", []pbicode.Code{17, 19, 21})
	res, err := e.Join(a, d, JoinOptions{Algorithm: MHCJRollup, RollupTarget: 2, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 || res.FalseHits != 1 {
		t.Fatalf("Count=%d FalseHits=%d", res.Count, res.FalseHits)
	}
}

func TestSingleHeightAutoSelectsSHCJ(t *testing.T) {
	e, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// All ancestors at height 2 in an h=8 tree.
	var aCodes []pbicode.Code
	for alpha := uint64(0); alpha < 20; alpha++ {
		aCodes = append(aCodes, pbicode.G(alpha, 8-2-1, 8))
	}
	rng := rand.New(rand.NewSource(6))
	a, _ := e.Load("A", aCodes)
	d, _ := e.Load("D", randCodes(rng, 100, 8))
	res, err := e.Join(a, d, JoinOptions{Algorithm: Auto})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "SHCJ" {
		t.Fatalf("Auto chose %s for a single-height ancestor set", res.Algorithm)
	}
}

// TestLeafOnlyAncestorSet: Load marks a set of leaves single-height, AUTO
// routes it to SHCJ, and the join is empty rather than an error — leaves
// have no proper descendants.
func TestLeafOnlyAncestorSet(t *testing.T) {
	e, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a, _ := e.Load("A", []pbicode.Code{1, 3, 5, 7})
	d, _ := e.Load("D", []pbicode.Code{1, 2, 3, 4, 5, 6, 7})
	for _, alg := range []Algorithm{Auto, SHCJ} {
		res, err := e.Join(a, d, JoinOptions{Algorithm: alg, Collect: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Algorithm != "SHCJ" || res.Count != 0 || len(res.Pairs) != 0 {
			t.Fatalf("%v: ran %s with %d pairs, want SHCJ with none", alg, res.Algorithm, res.Count)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	if MHCJRollup.String() != "MHCJ+Rollup" || VPJ.String() != "VPJ" {
		t.Fatal("algorithm names broken")
	}
}

func TestMinTreeHeight(t *testing.T) {
	for c, want := range map[pbicode.Code]int{1: 1, 2: 2, 3: 2, 4: 3, 31: 5, 32: 6} {
		if got := minTreeHeight(c); got != want {
			t.Errorf("minTreeHeight(%d) = %d, want %d", c, got, want)
		}
	}
}
