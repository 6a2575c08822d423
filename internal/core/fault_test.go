package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/pbicode"
)

// TestJoinsSurfaceDiskErrors drives every algorithm over a disk that
// starts failing mid-join: the error must propagate (not panic, not hang)
// and no buffer pins may leak.
func TestJoinsSurfaceDiskErrors(t *testing.T) {
	const h = 10
	rng := rand.New(rand.NewSource(21))
	aCodes := randCodes(rng, 600, h, -1)
	dCodes := randCodes(rng, 600, h, -1)
	for name, fn := range algorithms() {
		// Fail at several points: during the first scans, mid-partition,
		// and late.
		for _, failAt := range []int64{5, 60, 400} {
			d := storage.NewMemDisk(256, storage.CostModel{})
			fd := storage.NewFaultDisk(d)
			pool := buffer.New(fd, 8)
			ctx := &Context{Pool: pool, TreeHeight: h, Stats: &Stats{}}
			a, err := relation.FromCodes(pool, "A", aCodes)
			if err != nil {
				t.Fatal(err)
			}
			dd, err := relation.FromCodes(pool, "D", dCodes)
			if err != nil {
				t.Fatal(err)
			}
			if err := pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			fd.FailReadAfter = failAt
			fd.FailWriteAfter = failAt
			err = fn(ctx, a, dd, &CountSink{})
			// With a large enough failAt the join may legitimately
			// complete from resident pages; otherwise the injected error
			// must surface.
			if err != nil && !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("%s(failAt=%d): unexpected error %v", name, failAt, err)
			}
			if got := pool.PinnedFrames(); got != 0 {
				t.Fatalf("%s(failAt=%d): leaked %d pins (err=%v)", name, failAt, got, err)
			}
		}
	}
}

// TestJoinsOnBinarizedTrees is the end-to-end property: element sets drawn
// from *real binarized data trees* (not uniform codes) joined by every
// algorithm match the nested-loop oracle.
func TestJoinsOnBinarizedTrees(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random data tree, random tag assignment over 3 tags.
		root := &pbicode.Node{Label: "t0"}
		nodes := []*pbicode.Node{root}
		n := 30 + rng.Intn(250)
		for i := 0; i < n; i++ {
			p := nodes[rng.Intn(len(nodes))]
			c := p.AddChild("t" + string(rune('0'+rng.Intn(3))))
			nodes = append(nodes, c)
		}
		tree, err := pbicode.Binarize(root)
		if err != nil {
			return false
		}
		aCodes := tree.Select("t1")
		dCodes := tree.Select("t2")
		want := oracle(aCodes, dCodes)
		for name, fn := range algorithms() {
			d := storage.NewMemDisk(256, storage.CostModel{})
			pool := buffer.New(d, 6)
			ctx := &Context{Pool: pool, TreeHeight: tree.Height, Stats: &Stats{}}
			a, err := relation.FromCodes(pool, "A", aCodes)
			if err != nil {
				return false
			}
			dd, err := relation.FromCodes(pool, "D", dCodes)
			if err != nil {
				return false
			}
			var sink PairSink
			if err := fn(ctx, a, dd, &sink); err != nil {
				t.Logf("%s: %v", name, err)
				return false
			}
			got := sink.Pairs
			sortPairs(got)
			w := append([]Pair(nil), want...)
			sortPairs(w)
			if len(got) != len(w) {
				t.Logf("%s: %d pairs, want %d", name, len(got), len(w))
				return false
			}
			for i := range w {
				if got[i] != w[i] {
					t.Logf("%s: pair %d mismatch", name, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestEmitErrorStopsJoin verifies sinks can abort any algorithm.
func TestEmitErrorStopsJoin(t *testing.T) {
	const h = 8
	rng := rand.New(rand.NewSource(22))
	aCodes := randCodes(rng, 200, h, -1)
	dCodes := randCodes(rng, 200, h, -1)
	sentinel := errors.New("enough")
	for name, fn := range algorithms() {
		ctx := newCtx(t, 8, h)
		a := load(t, ctx, "A", aCodes)
		d := load(t, ctx, "D", dCodes)
		n := 0
		err := fn(ctx, a, d, sinkFunc(func(ar, dr relation.Rec) error {
			n++
			if n >= 3 {
				return sentinel
			}
			return nil
		}))
		if len(oracle(aCodes, dCodes)) >= 3 && !errors.Is(err, sentinel) {
			t.Errorf("%s: emit error not surfaced: %v", name, err)
		}
		if got := ctx.Pool.PinnedFrames(); got != 0 {
			t.Errorf("%s: leaked %d pins", name, got)
		}
	}
}

// sinkFunc adapts a function to the Sink interface.
type sinkFunc func(a, d relation.Rec) error

func (f sinkFunc) Emit(a, d relation.Rec) error { return f(a, d) }

// indexedAlgorithms are the algorithms that bulk-load index pages (B-tree
// or interval tree) with no free path; their index pages legitimately stay
// resident after the join, so temp-leak baselines exclude them.
var indexedAlgorithms = map[string]bool{"INLJN": true, "ADBPlus": true}

// TestJoinsFreeTempsOnDiskErrors sweeps every algorithm over disks that
// fail at a range of points and asserts failure containment: a clean
// error (no panic, no hang), zero leaked pins, and — for the algorithms
// without index side-structures — every temporary page freed, measured as
// the pool's resident-page count returning to its pre-join baseline. The
// pool is sized above the working set so nothing is evicted and a leaked
// temp necessarily stays visible in the pool table.
func TestJoinsFreeTempsOnDiskErrors(t *testing.T) {
	const h = 10
	rng := rand.New(rand.NewSource(23))
	aCodes := randCodes(rng, 400, h, -1)
	dCodes := randCodes(rng, 400, h, -1)
	for name, fn := range algorithms() {
		for _, failAt := range []int64{1, 3, 10, 40, 150} {
			d := storage.NewMemDisk(256, storage.CostModel{})
			fd := storage.NewFaultDisk(d)
			pool := buffer.New(fd, 512)
			ctx := &Context{Pool: pool, TreeHeight: h, Stats: &Stats{}}
			a, err := relation.FromCodes(pool, "A", aCodes)
			if err != nil {
				t.Fatal(err)
			}
			dd, err := relation.FromCodes(pool, "D", dCodes)
			if err != nil {
				t.Fatal(err)
			}
			if err := pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			baseline := pool.Resident()
			fd.FailReadAfter = failAt
			fd.FailWriteAfter = failAt
			err = fn(ctx, a, dd, &CountSink{})
			if err != nil && !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("%s(failAt=%d): unexpected error %v", name, failAt, err)
			}
			if got := pool.PinnedFrames(); got != 0 {
				t.Fatalf("%s(failAt=%d): leaked %d pins (err=%v)", name, failAt, got, err)
			}
			if !indexedAlgorithms[name] {
				if got := pool.Resident(); got != baseline {
					t.Fatalf("%s(failAt=%d): resident pages %d, want baseline %d — leaked temp pages (err=%v)",
						name, failAt, got, baseline, err)
				}
			}
		}
	}
}

// TestJoinsCancelCleanly sweeps every algorithm with a context that is
// canceled after exactly k page reads (the FaultDisk.OnRead hook fires the
// cancel; the buffer pool's armed interrupt surfaces it on the following
// page request). The join must return ErrCanceled — matching both the
// core sentinel and context.Canceled — leak no pins, and free every
// temporary page.
func TestJoinsCancelCleanly(t *testing.T) {
	const h = 10
	rng := rand.New(rand.NewSource(24))
	aCodes := randCodes(rng, 400, h, -1)
	dCodes := randCodes(rng, 400, h, -1)
	for name, fn := range algorithms() {
		for _, cancelAt := range []int64{0, 2, 8, 30, 120} {
			d := storage.NewMemDisk(256, storage.CostModel{})
			fd := storage.NewFaultDisk(d)
			pool := buffer.New(fd, 512)
			goCtx, cancel := context.WithCancel(context.Background())
			ctx := &Context{Pool: pool, TreeHeight: h, Stats: &Stats{}, Ctx: goCtx}
			a, err := relation.FromCodes(pool, "A", aCodes)
			if err != nil {
				t.Fatal(err)
			}
			dd, err := relation.FromCodes(pool, "D", dCodes)
			if err != nil {
				t.Fatal(err)
			}
			if err := pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			baseline := pool.Resident()
			reads := int64(0)
			at := cancelAt
			fd.OnRead = func(storage.PageID) error {
				if reads++; reads >= at {
					cancel()
				}
				return nil
			}
			if at == 0 {
				cancel() // canceled before the join even starts
			}
			prev := ctx.ArmPool()
			err = fn(ctx, a, dd, &CountSink{})
			ctx.DisarmPool(prev)
			cancel()
			// A join whose whole working set is already resident may finish
			// without another page request; otherwise cancellation must
			// surface through both error vocabularies.
			if err != nil {
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("%s(cancelAt=%d): error %v, want ErrCanceled", name, cancelAt, err)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s(cancelAt=%d): error does not unwrap to context.Canceled", name, cancelAt)
				}
			}
			if got := pool.PinnedFrames(); got != 0 {
				t.Fatalf("%s(cancelAt=%d): leaked %d pins (err=%v)", name, cancelAt, got, err)
			}
			if !indexedAlgorithms[name] {
				if got := pool.Resident(); got != baseline {
					t.Fatalf("%s(cancelAt=%d): resident pages %d, want baseline %d — leaked temp pages (err=%v)",
						name, cancelAt, got, baseline, err)
				}
			}
		}
	}
}
