package btree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/storage"
)

func newPool(t *testing.T, b int) *buffer.Pool {
	t.Helper()
	d := storage.NewMemDisk(256, storage.CostModel{})
	t.Cleanup(func() { d.Close() })
	return buffer.New(d, b)
}

// collect drains a range query into a slice of keys.
func collect(t *testing.T, tr *Tree, lo, hi uint64) []uint64 {
	t.Helper()
	var out []uint64
	if err := tr.Range(lo, hi, func(k, v uint64) error {
		out = append(out, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// oracle is a sorted slice of (key, val) pairs.
type pair struct{ k, v uint64 }

func oracleRange(o []pair, lo, hi uint64) []uint64 {
	var out []uint64
	for _, p := range o {
		if p.k >= lo && p.k <= hi {
			out = append(out, p.k)
		}
	}
	return out
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInsertAndSeekSmall(t *testing.T) {
	pool := newPool(t, 8)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{5, 3, 9, 1, 7} {
		if err := tr.Insert(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	if tr.NumKeys() != 5 {
		t.Fatalf("NumKeys = %d", tr.NumKeys())
	}
	got := collect(t, tr, 0, 100)
	if !equalU64(got, []uint64{1, 3, 5, 7, 9}) {
		t.Fatalf("full range = %v", got)
	}
	got = collect(t, tr, 3, 7)
	if !equalU64(got, []uint64{3, 5, 7}) {
		t.Fatalf("range [3,7] = %v", got)
	}
	if got := collect(t, tr, 10, 20); len(got) != 0 {
		t.Fatalf("empty range = %v", got)
	}
	// Values ride along.
	if err := tr.Range(5, 5, func(k, v uint64) error {
		if v != 50 {
			t.Errorf("val of 5 = %d", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if pool.PinnedFrames() != 0 {
		t.Fatal("leaked pins")
	}
}

func TestInsertRandomAgainstOracle(t *testing.T) {
	pool := newPool(t, 16)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var o []pair
	const n = 5000
	for i := 0; i < n; i++ {
		k := rng.Uint64() % 2000 // plenty of duplicates
		if err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
		o = append(o, pair{k, uint64(i)})
	}
	sort.Slice(o, func(i, j int) bool { return o[i].k < o[j].k })
	if tr.NumKeys() != n {
		t.Fatalf("NumKeys = %d", tr.NumKeys())
	}
	if tr.Height() < 3 {
		t.Fatalf("Height = %d, expected a real tree", tr.Height())
	}
	for trial := 0; trial < 200; trial++ {
		lo := rng.Uint64() % 2100
		hi := lo + rng.Uint64()%300
		got := collect(t, tr, lo, hi)
		want := oracleRange(o, lo, hi)
		if !equalU64(got, want) {
			t.Fatalf("range [%d,%d]: got %d keys, want %d", lo, hi, len(got), len(want))
		}
	}
	if pool.PinnedFrames() != 0 {
		t.Fatal("leaked pins")
	}
}

func TestDuplicateRunAcrossLeaves(t *testing.T) {
	pool := newPool(t, 8)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	// Page cap is (256-16)/16 = 15: a run of 100 equal keys spans many
	// leaves and forces separators equal to the duplicate key.
	for i := 0; i < 40; i++ {
		if err := tr.Insert(7, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := tr.Insert(50, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if err := tr.Insert(99, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := collect(t, tr, 50, 50); len(got) != 100 {
		t.Fatalf("dup range = %d keys, want 100", len(got))
	}
	if got := collect(t, tr, 7, 50); len(got) != 140 {
		t.Fatalf("range [7,50] = %d keys, want 140", len(got))
	}
	// Values of the duplicate run must all surface (as a set).
	seen := make(map[uint64]bool)
	if err := tr.Range(50, 50, func(k, v uint64) error {
		seen[v] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 100 {
		t.Fatalf("distinct values = %d", len(seen))
	}
}

func TestSeekIterator(t *testing.T) {
	pool := newPool(t, 8)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 300; k += 3 {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	it, err := tr.Seek(100) // first key >= 100 is 102
	if err != nil {
		t.Fatal(err)
	}
	if !it.Next() || it.Key() != 102 || it.Val() != 102 {
		t.Fatalf("Seek(100) -> %d", it.Key())
	}
	it.Close()
	it.Close() // double close safe
	// Seek past the end yields nothing.
	it, err = tr.Seek(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if it.Next() {
		t.Fatal("Next past end")
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	it.Close()
}

func TestEmptyTree(t *testing.T) {
	pool := newPool(t, 4)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, tr, 0, ^uint64(0)); len(got) != 0 {
		t.Fatalf("range on empty = %v", got)
	}
	if tr.Height() != 1 || tr.NumPages() != 1 || tr.NumKeys() != 0 {
		t.Fatalf("empty tree shape: h=%d p=%d n=%d", tr.Height(), tr.NumPages(), tr.NumKeys())
	}
}

func TestBulkLoadAgainstOracle(t *testing.T) {
	for _, n := range []int{0, 1, 14, 15, 16, 500, 5000} {
		pool := newPool(t, 16)
		keys := make([]uint64, n)
		vals := make([]uint64, n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := range keys {
			keys[i] = rng.Uint64() % 3000
			vals[i] = uint64(i)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		tr, err := BulkLoad(pool, &SliceSource{Keys: keys, Vals: vals}, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if tr.NumKeys() != int64(n) {
			t.Fatalf("n=%d: NumKeys = %d", n, tr.NumKeys())
		}
		var o []pair
		for i := range keys {
			o = append(o, pair{keys[i], vals[i]})
		}
		for trial := 0; trial < 100; trial++ {
			lo := rng.Uint64() % 3100
			hi := lo + rng.Uint64()%400
			got := collect(t, tr, lo, hi)
			want := oracleRange(o, lo, hi)
			if !equalU64(got, want) {
				t.Fatalf("n=%d range [%d,%d]: got %d want %d", n, lo, hi, len(got), len(want))
			}
		}
		if pool.PinnedFrames() != 0 {
			t.Fatalf("n=%d: leaked pins", n)
		}
	}
}

func TestBulkLoadThenInsert(t *testing.T) {
	pool := newPool(t, 16)
	keys := make([]uint64, 200)
	vals := make([]uint64, 200)
	for i := range keys {
		keys[i] = uint64(i * 2)
		vals[i] = uint64(i)
	}
	tr, err := BulkLoad(pool, &SliceSource{Keys: keys, Vals: vals}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tr.Insert(uint64(i*4+1), 0); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, tr, 0, 1000)
	if len(got) != 300 {
		t.Fatalf("entries after mixed load = %d", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("not sorted")
	}
}

func TestBulkLoadBadFillFactor(t *testing.T) {
	pool := newPool(t, 4)
	if _, err := BulkLoad(pool, &SliceSource{}, 0); err == nil {
		t.Fatal("fillFactor 0 accepted")
	}
	if _, err := BulkLoad(pool, &SliceSource{}, 1.5); err == nil {
		t.Fatal("fillFactor 1.5 accepted")
	}
}

type errSource struct{ n int }

func (s *errSource) Next() bool  { s.n++; return s.n <= 5 }
func (s *errSource) Key() uint64 { return uint64(s.n) }
func (s *errSource) Val() uint64 { return 0 }
func (s *errSource) Err() error {
	if s.n > 5 {
		return storage.ErrInjected
	}
	return nil
}

func TestBulkLoadSourceError(t *testing.T) {
	pool := newPool(t, 4)
	if _, err := BulkLoad(pool, &errSource{}, 1.0); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("BulkLoad = %v", err)
	}
}

func TestInsertIOErrorPropagates(t *testing.T) {
	d := storage.NewMemDisk(256, storage.CostModel{})
	fd := storage.NewFaultDisk(d)
	pool := buffer.New(fd, 4)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	fd.FailAllocAfter = 2 // next page allocation fails
	var insertErr error
	for k := uint64(0); k < 100; k++ {
		if insertErr = tr.Insert(k, 0); insertErr != nil {
			break
		}
	}
	if !errors.Is(insertErr, storage.ErrInjected) {
		t.Fatalf("Insert never failed: %v", insertErr)
	}
}

func TestDeleteBasic(t *testing.T) {
	pool := newPool(t, 8)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if err := tr.Insert(i, i*10); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := tr.Delete(40, 400)
	if err != nil || !ok {
		t.Fatalf("Delete(40,400) = %v, %v", ok, err)
	}
	if tr.NumKeys() != 99 {
		t.Fatalf("NumKeys = %d, want 99", tr.NumKeys())
	}
	// Wrong value or absent key: not found, nothing removed.
	if ok, err := tr.Delete(41, 999); err != nil || ok {
		t.Fatalf("Delete(41,999) = %v, %v", ok, err)
	}
	if ok, err := tr.Delete(40, 400); err != nil || ok {
		t.Fatalf("re-Delete(40,400) = %v, %v", ok, err)
	}
	got := collect(t, tr, 39, 42)
	if !equalU64(got, []uint64{39, 41, 42}) {
		t.Fatalf("range after delete: %v", got)
	}
}

// TestDeleteDuplicatesAcrossLeaves removes specific (key, value) pairs from
// long duplicate runs that straddle leaf boundaries, including draining
// leaves empty, and checks seeks still work over the hollow chain.
func TestDeleteDuplicatesAcrossLeaves(t *testing.T) {
	pool := newPool(t, 8)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity at 256-byte pages is 15 entries: 60 duplicates of key 5 span
	// several leaves, bracketed by neighbors.
	const dups = 60
	if err := tr.Insert(1, 100); err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < dups; v++ {
		if err := tr.Insert(5, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Insert(9, 900); err != nil {
		t.Fatal(err)
	}
	// Delete every duplicate, in an order that exercises both ends.
	for i := 0; i < dups; i++ {
		v := uint64(i)
		if i%2 == 1 {
			v = uint64(dups - i)
		}
		ok, err := tr.Delete(5, v)
		if err != nil || !ok {
			t.Fatalf("Delete(5,%d) = %v, %v", v, ok, err)
		}
	}
	if ok, err := tr.Delete(5, 0); err != nil || ok {
		t.Fatal("found a duplicate after all were removed")
	}
	if got := collect(t, tr, 0, 10); !equalU64(got, []uint64{1, 9}) {
		t.Fatalf("surviving keys: %v", got)
	}
	if tr.NumKeys() != 2 {
		t.Fatalf("NumKeys = %d, want 2", tr.NumKeys())
	}
	// The hollow leaves still insert correctly afterwards.
	for v := uint64(0); v < 20; v++ {
		if err := tr.Insert(5, 1000+v); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(collect(t, tr, 5, 5)); got != 20 {
		t.Fatalf("reinserted duplicates: %d, want 20", got)
	}
}

// TestDeleteRandomAgainstOracle mirrors the insert oracle test with
// interleaved deletes.
func TestDeleteRandomAgainstOracle(t *testing.T) {
	pool := newPool(t, 16)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var oracle []pair
	for step := 0; step < 3000; step++ {
		if len(oracle) > 0 && rng.Intn(3) == 0 {
			i := rng.Intn(len(oracle))
			p := oracle[i]
			ok, err := tr.Delete(p.k, p.v)
			if err != nil || !ok {
				t.Fatalf("step %d: Delete(%d,%d) = %v, %v", step, p.k, p.v, ok, err)
			}
			oracle = append(oracle[:i], oracle[i+1:]...)
		} else {
			p := pair{k: uint64(rng.Intn(200)), v: uint64(step)}
			if err := tr.Insert(p.k, p.v); err != nil {
				t.Fatal(err)
			}
			oracle = append(oracle, p)
		}
		if int64(len(oracle)) != tr.NumKeys() {
			t.Fatalf("step %d: NumKeys %d, oracle %d", step, tr.NumKeys(), len(oracle))
		}
	}
	sort.Slice(oracle, func(i, j int) bool { return oracle[i].k < oracle[j].k })
	lo, hi := uint64(30), uint64(170)
	if got := collect(t, tr, lo, hi); !equalU64(got, oracleRange(oracle, lo, hi)) {
		t.Fatalf("final range mismatch: %d keys vs oracle %d", len(got), len(oracleRange(oracle, lo, hi)))
	}
}

// TestSeekIntoReusesIterator repositions one iterator across probes, as
// the index joins do: each SeekInto releases the previous pin and lands on
// the first key >= k, without allocating.
func TestSeekIntoReusesIterator(t *testing.T) {
	pool := newPool(t, 8)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 600; k += 3 {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	var it Iter
	probe := func() {
		for _, k := range []uint64{100, 0, 595, 301} {
			if err := tr.SeekInto(&it, k); err != nil {
				t.Fatal(err)
			}
			want := (k + 2) / 3 * 3
			if !it.Next() || it.Key() != want {
				t.Fatalf("SeekInto(%d) -> %d, want %d", k, it.Key(), want)
			}
		}
		if err := tr.SeekInto(&it, 10_000); err != nil {
			t.Fatal(err)
		}
		if it.Next() {
			t.Fatal("Next past end")
		}
		it.Close()
		if n := pool.PinnedFrames(); n != 0 {
			t.Fatalf("%d frames pinned after Close", n)
		}
	}
	if allocs := testing.AllocsPerRun(10, probe); allocs != 0 {
		t.Fatalf("repositioning an iterator allocates %.0f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := tr.Range(100, 130, func(k, v uint64) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Range allocates %.0f objects, want 0", allocs)
	}
}
