package containment

import (
	"math/rand"
	"testing"

	"github.com/pbitree/pbitree/pbicode"
)

func TestPersistentStartIndexServesINLJN(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	aCodes := randCodes(rng, 200, 12)
	dCodes := randCodes(rng, 3000, 12)
	want := oracle(aCodes, dCodes)

	e, err := NewEngine(Config{PageSize: 512, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a, _ := e.Load("A", aCodes)
	d, _ := e.Load("D", dCodes)
	if err := e.BuildStartIndex(d); err != nil {
		t.Fatal(err)
	}
	if !d.Indexed() {
		t.Fatal("index not attached")
	}
	if err := e.DropCache(); err != nil {
		t.Fatal(err)
	}
	e.ResetIOStats()
	res, err := e.Join(a, d, JoinOptions{Algorithm: INLJN, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	sortPairs(res.Pairs)
	if len(res.Pairs) != len(want) {
		t.Fatalf("pairs = %d, want %d", len(res.Pairs), len(want))
	}
	indexedIO := res.IO.Total()

	// The same join building the index on the fly must cost clearly more.
	e2, err := NewEngine(Config{PageSize: 512, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	a2, _ := e2.Load("A", aCodes)
	d2, _ := e2.Load("D", dCodes)
	if err := e2.DropCache(); err != nil {
		t.Fatal(err)
	}
	e2.ResetIOStats()
	res2, err := e2.Join(a2, d2, JoinOptions{Algorithm: INLJN})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Count != int64(len(want)) {
		t.Fatalf("on-the-fly count = %d", res2.Count)
	}
	if indexedIO >= res2.IO.Total() {
		t.Fatalf("persistent index did not save I/O: %d vs %d", indexedIO, res2.IO.Total())
	}
}

func TestPersistentIndexesServeADBPlus(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	aCodes := randCodes(rng, 1500, 12)
	dCodes := randCodes(rng, 1500, 12)
	want := oracle(aCodes, dCodes)
	e, err := NewEngine(Config{PageSize: 512, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a, _ := e.Load("A", aCodes)
	d, _ := e.Load("D", dCodes)
	if err := e.BuildStartIndex(a); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildStartIndex(d); err != nil {
		t.Fatal(err)
	}
	res, err := e.Join(a, d, JoinOptions{Algorithm: ADBPlus})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(len(want)) {
		t.Fatalf("count = %d, want %d", res.Count, len(want))
	}
	// Building twice is a no-op.
	if err := e.BuildStartIndex(a); err != nil {
		t.Fatal(err)
	}
}

func TestSortedRelationSkipsOnTheFlySort(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	aCodes := randCodes(rng, 2000, 12)
	dCodes := randCodes(rng, 2000, 12)
	want := len(oracle(aCodes, dCodes))
	e, err := NewEngine(Config{PageSize: 512, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a, _ := e.Load("A", aCodes)
	d, _ := e.Load("D", dCodes)
	if err := e.Sort(a); err != nil {
		t.Fatal(err)
	}
	if err := e.Sort(d); err != nil {
		t.Fatal(err)
	}
	if !a.Ordered() || !d.Ordered() {
		t.Fatal("sorted relations do not claim document order")
	}
	if err := e.Sort(a); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := e.DropCache(); err != nil {
		t.Fatal(err)
	}
	e.ResetIOStats()
	res, err := e.Join(a, d, JoinOptions{Algorithm: StackTree})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(want) {
		t.Fatalf("count = %d, want %d", res.Count, want)
	}
	// Pre-sorted merge reads each input exactly once: I/O near ‖A‖+‖D‖.
	if res.IO.Total() > (a.Pages()+d.Pages())*3/2 {
		t.Fatalf("sorted stack-tree I/O = %d for %d input pages", res.IO.Total(), a.Pages()+d.Pages())
	}
	// Auto now routes to the merge join without any spec hints.
	res, err = e.Join(a, d, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "STACKTREE" && res.Algorithm != "ADB+" {
		t.Fatalf("auto chose %s for sorted inputs", res.Algorithm)
	}
}

// TestCostBasedSelection: AUTO prices its candidates with the §3.4 model,
// picks a partitioning join for unordered inputs that spill the pool, and
// records the prediction of what it ran.
func TestCostBasedSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	aCodes := randCodes(rng, 2000, 12)
	dCodes := randCodes(rng, 2000, 12)
	e, err := NewEngine(Config{PageSize: 512, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a, _ := e.Load("A", aCodes)
	d, _ := e.Load("D", dCodes)
	res, err := e.Join(a, d, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "MHCJ+Rollup" && res.Algorithm != "VPJ" {
		t.Fatalf("AUTO chose %s for unsorted inputs", res.Algorithm)
	}
	if res.PredictedIO <= 0 {
		t.Fatal("no prediction recorded")
	}
	// Sanity: prediction within 4x of measurement.
	ratio := float64(res.IO.Total()) / float64(res.PredictedIO)
	if ratio < 0.25 || ratio > 4 {
		t.Fatalf("prediction %d vs measured %d", res.PredictedIO, res.IO.Total())
	}
	if pbicode.IsAncestor(1, 1) {
		t.Fatal("sanity")
	}
}
