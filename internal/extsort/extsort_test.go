package extsort

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/internal/trace"
	"github.com/pbitree/pbitree/pbicode"
)

func newPool(t *testing.T, b int) *buffer.Pool {
	t.Helper()
	d := storage.NewMemDisk(256, storage.CostModel{})
	t.Cleanup(func() { d.Close() })
	return buffer.New(d, b)
}

func randomRecs(rng *rand.Rand, n, treeHeight int) []relation.Rec {
	recs := make([]relation.Rec, n)
	for i := range recs {
		recs[i] = relation.Rec{
			Code: pbicode.Code(rng.Uint64()%pbicode.NumNodes(treeHeight) + 1),
			Aux:  uint64(i),
		}
	}
	return recs
}

func sortTest(t *testing.T, n, memPages, poolPages int, key KeyFunc) {
	t.Helper()
	pool := newPool(t, poolPages)
	rng := rand.New(rand.NewSource(int64(n)))
	recs := randomRecs(rng, n, 16)
	in := relation.New(pool, "in")
	if err := in.Append(recs...); err != nil {
		t.Fatal(err)
	}
	out, err := Sort(pool, in, key, memPages, "out")
	if err != nil {
		t.Fatal(err)
	}
	got, err := out.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("sorted %d of %d records", len(got), n)
	}
	// Must be a permutation: compare sorted multisets via Aux.
	want := append([]relation.Rec(nil), recs...)
	sort.Slice(want, func(i, j int) bool {
		ki, kj := key(want[i]), key(want[j])
		if ki != kj {
			return ki.Less(kj)
		}
		return want[i].Aux < want[j].Aux
	})
	gotStable := append([]relation.Rec(nil), got...)
	sort.Slice(gotStable, func(i, j int) bool {
		ki, kj := key(gotStable[i]), key(gotStable[j])
		if ki != kj {
			return ki.Less(kj)
		}
		return gotStable[i].Aux < gotStable[j].Aux
	})
	for i := range want {
		if gotStable[i] != want[i] {
			t.Fatalf("rec %d = %+v, want %+v", i, gotStable[i], want[i])
		}
	}
	ok, err := IsSorted(out, key)
	if err != nil || !ok {
		t.Fatalf("IsSorted = %v, %v", ok, err)
	}
	if pool.PinnedFrames() != 0 {
		t.Fatalf("leaked pins: %d", pool.PinnedFrames())
	}
}

func TestSortSmallInMemory(t *testing.T)     { sortTest(t, 30, 8, 8, ByStart) }
func TestSortSingleMergePass(t *testing.T)   { sortTest(t, 500, 4, 8, ByStart) }
func TestSortMultiplePasses(t *testing.T)    { sortTest(t, 3000, 3, 8, ByStart) }
func TestSortByCode(t *testing.T)            { sortTest(t, 700, 3, 8, ByCode) }
func TestSortByStartEndDesc(t *testing.T)    { sortTest(t, 700, 4, 8, ByStartEndDesc) }
func TestSortExactPageBoundary(t *testing.T) { sortTest(t, 15*4*3, 4, 8, ByStart) }

func TestSortEmpty(t *testing.T) {
	pool := newPool(t, 4)
	in := relation.New(pool, "in")
	out, err := Sort(pool, in, ByStart, 3, "out")
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRecords() != 0 {
		t.Fatalf("NumRecords = %d", out.NumRecords())
	}
}

func TestSortTooFewPages(t *testing.T) {
	pool := newPool(t, 4)
	in := relation.New(pool, "in")
	if _, err := Sort(pool, in, ByStart, 2, "out"); err == nil {
		t.Fatal("Sort with 2 pages succeeded")
	}
}

func TestByStartEndDescTieOrder(t *testing.T) {
	// A node and its leftmost descendant share Start; the ancestor (larger
	// End) must order first.
	anc, desc := pbicode.Code(16), pbicode.Code(1) // height-5 root and leftmost leaf
	if anc.Start() != desc.Start() {
		t.Fatal("test premise: Starts differ")
	}
	ka := ByStartEndDesc(relation.Rec{Code: anc})
	kd := ByStartEndDesc(relation.Rec{Code: desc})
	if !ka.Less(kd) {
		t.Fatal("ancestor does not order before leftmost descendant")
	}
}

func TestIsSortedDetectsDisorder(t *testing.T) {
	pool := newPool(t, 4)
	in := relation.New(pool, "in")
	if err := in.Append(relation.Rec{Code: 5}, relation.Rec{Code: 2}); err != nil {
		t.Fatal(err)
	}
	ok, err := IsSorted(in, ByCode)
	if err != nil || ok {
		t.Fatalf("IsSorted = %v, %v", ok, err)
	}
}

// TestSortErrorPropagates fails a page allocation during run output: the
// error surfaces and the resident-page count returns to the pre-sort
// baseline, so no run survives the failed sort. The pool is sized above
// the working set so nothing is evicted and a leaked run stays visible.
func TestSortErrorPropagates(t *testing.T) {
	d := storage.NewMemDisk(256, storage.CostModel{})
	fd := storage.NewFaultDisk(d)
	pool := buffer.New(fd, 512)
	in := relation.New(pool, "in")
	rng := rand.New(rand.NewSource(1))
	if err := in.Append(randomRecs(rng, 600, 16)...); err != nil {
		t.Fatal(err)
	}
	baseline := pool.Resident()
	fd.FailAllocAfter = int64(fd.Disk.NumPages()) + 5 // fail during run output
	if _, err := Sort(pool, in, ByStart, 3, "out"); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("Sort = %v", err)
	}
	if got := pool.Resident(); got != baseline {
		t.Fatalf("resident pages %d after failed sort, baseline %d", got, baseline)
	}
}

func TestSortIOWithinBudget(t *testing.T) {
	// One merge pass: total I/O should be about 4x the input size (read +
	// write runs, read + write merge), well under a naive bound.
	d := storage.NewMemDisk(256, storage.CostModel{})
	pool := buffer.New(d, 8)
	in := relation.New(pool, "in")
	rng := rand.New(rand.NewSource(2))
	const n = 1500 // 100 pages at 15/page
	if err := in.Append(randomRecs(rng, n, 16)...); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	pool.ResetStats()
	out, err := Sort(pool, in, ByStart, 4, "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	inPages := in.NumPages()
	total := d.Stats().Total()
	// 4 pages of memory over 100 pages -> 25 runs, fan-in 3 -> 3 passes.
	// Each pass costs ~2x input pages; run generation another ~2x. Allow
	// slack for pool effects but catch gross regressions.
	if total > 12*inPages {
		t.Fatalf("sort I/O = %d pages for %d input pages", total, inPages)
	}
	if out.NumRecords() != n {
		t.Fatalf("lost records: %d", out.NumRecords())
	}
}

// TestSortTrace checks the sort's span tree: one sort-runs span naming the
// run count, then one sort-merge span per pass in pass order, each with
// the I/O its phase performed.
func TestSortTrace(t *testing.T) {
	pool := newPool(t, 64)
	rng := rand.New(rand.NewSource(7))
	in := relation.New(pool, "in")
	if err := in.Append(randomRecs(rng, 4_000, 16)...); err != nil {
		t.Fatal(err)
	}
	disk := pool.Disk()
	tr := trace.New("sort", func() trace.Counters {
		s := disk.Stats()
		return trace.Counters{Reads: s.Reads, Writes: s.Writes}
	})
	// 3 pages of memory over ~270 input pages: ~90 runs, two-way merges.
	out, err := new(Scratch).Sort(pool, in, ByStartEndDesc, 3, "out", tr)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Free() //nolint:errcheck
	root := tr.Finish()
	if len(root.Children) < 3 || root.Children[0].Name != "sort-runs" {
		t.Fatalf("want sort-runs then merge passes, got %d children", len(root.Children))
	}
	if d := root.Children[0].Detail; !strings.HasPrefix(d, "runs=") || d == "runs=1" {
		t.Fatalf("sort-runs detail %q, want several runs", d)
	}
	for i, ch := range root.Children[1:] {
		if ch.Name != "sort-merge" || !strings.HasPrefix(ch.Detail, fmt.Sprintf("pass=%d ", i+1)) {
			t.Fatalf("child %d: %s [%s], want sort-merge pass=%d", i+1, ch.Name, ch.Detail, i+1)
		}
		if ch.Total.Writes == 0 {
			t.Fatalf("merge pass %d: no writes recorded", i+1)
		}
	}
}

// interruptFunc adapts a function to buffer.Interrupter.
type interruptFunc func() error

func (f interruptFunc) Canceled() error { return f() }

// TestSortInterrupt checks that the pool's interrupt reaches an external
// sort: a cancellation polled mid-sort aborts it with the interrupt's
// error, and the runs written so far are freed (the pool is sized as in
// TestSortErrorPropagates).
func TestSortInterrupt(t *testing.T) {
	pool := newPool(t, 512)
	rng := rand.New(rand.NewSource(11))
	in := relation.New(pool, "in")
	if err := in.Append(randomRecs(rng, 3_000, 16)...); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	baseline := pool.Resident()
	stop := errors.New("stop")
	calls := 0
	pool.SetInterrupt(interruptFunc(func() error {
		if calls++; calls > 250 {
			return stop
		}
		return nil
	}))
	_, err := new(Scratch).Sort(pool, in, ByStartEndDesc, 8, "out", nil)
	pool.SetInterrupt(nil)
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want interrupt error", err)
	}
	if got := pool.Resident(); got != baseline {
		t.Fatalf("resident pages %d after interrupted sort, baseline %d", got, baseline)
	}
}

// TestDocLessIsSortOrder: relation.DocLess, the order appends check, is
// the order ByStartEndDesc sorts into, so a sort by it yields a relation
// that claims document order.
func TestDocLessIsSortOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	recs := randomRecs(rng, 2000, 10)
	for i := 1; i < len(recs); i++ {
		x, y := recs[i-1], recs[i]
		if got, want := relation.DocLess(x.Code, y.Code), ByStartEndDesc(x).Less(ByStartEndDesc(y)); got != want {
			t.Fatalf("DocLess(%v, %v) = %v, ByStartEndDesc says %v", x.Code, y.Code, got, want)
		}
	}
	pool := newPool(t, 4)
	in := relation.New(pool, "in")
	if err := in.Append(recs...); err != nil {
		t.Fatal(err)
	}
	out, err := Sort(pool, in, ByStartEndDesc, 3, "out")
	if err != nil {
		t.Fatal(err)
	}
	if in.Ordered() || !out.Ordered() {
		t.Fatalf("random input ordered %v, its sort ordered %v", in.Ordered(), out.Ordered())
	}
}
