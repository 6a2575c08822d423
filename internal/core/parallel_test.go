package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/internal/trace"
	"github.com/pbitree/pbitree/pbicode"
)

// parallelAlgorithms lists the joins whose execution changes under
// Context.Parallel: the partition fan-outs (MHCJ, MHCJ+Rollup, VPJ), the
// rule-based Auto dispatch, and the sort-backed baselines whose on-the-fly
// external sorts run their run-generation phase in parallel.
func parallelAlgorithms() map[string]joinFunc {
	return map[string]joinFunc{
		"MHCJ":       MHCJ,
		"MHCJRollup": func(ctx *Context, a, d *relation.Relation, s Sink) error { return MHCJRollup(ctx, a, d, 0, s) },
		"VPJ":        VPJ,
		"Auto": func(ctx *Context, a, d *relation.Relation, s Sink) error {
			_, err := Run(ctx, AlgAuto, InputSpec{}, a, d, s)
			return err
		},
		"StackTree": StackTreeOnTheFly,
		"MPMGJN":    MPMGJNOnTheFly,
		"ADBPlus":   ADBPlusOnTheFly,
	}
}

// runWithDegree evaluates fn over fresh relations on a fresh disk at the
// given intra-engine degree and returns the emitted pairs.
func runWithDegree(t *testing.T, name string, fn joinFunc, b, h, degree int, aCodes, dCodes []pbicode.Code) []Pair {
	t.Helper()
	ctx := newCtx(t, b, h)
	ctx.Parallel = degree
	a := load(t, ctx, "A", aCodes)
	d := load(t, ctx, "D", dCodes)
	var sink PairSink
	if err := fn(ctx, a, d, &sink); err != nil {
		t.Fatalf("%s(parallel=%d): %v", name, degree, err)
	}
	if ctx.Stats.Pairs != int64(len(sink.Pairs)) {
		t.Fatalf("%s(parallel=%d): Stats.Pairs = %d, emitted %d", name, degree, ctx.Stats.Pairs, len(sink.Pairs))
	}
	if got := ctx.Pool.PinnedFrames(); got != 0 {
		t.Fatalf("%s(parallel=%d): leaked %d pins", name, degree, got)
	}
	return sink.Pairs
}

// TestParallelMatchesSerial is the core equivalence property: for every
// algorithm affected by Context.Parallel, the parallel execution emits
// exactly the serial result set (same pairs, same multiplicities) at every
// degree. Inputs are multi-height random code sets so MHCJ actually has
// several per-height units to fan out, and the 24-frame pool keeps VPJ
// partitioning (inputs exceed memory) while allowing up to 8 workers.
// Run with -race this is also the concurrent-pools-over-one-disk test.
func TestParallelMatchesSerial(t *testing.T) {
	const h = 12
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		na, nd := 600+rng.Intn(600), 600+rng.Intn(900)
		aCodes := randCodes(rng, na, h, -1)
		dCodes := randCodes(rng, nd, h, -1)
		for name, fn := range parallelAlgorithms() {
			want := runWithDegree(t, name, fn, 24, h, 0, aCodes, dCodes)
			for _, degree := range []int{1, 2, 8} {
				got := runWithDegree(t, name, fn, 24, h, degree, aCodes, dCodes)
				samePairs(t, fmt.Sprintf("%s(parallel=%d)", name, degree), got, want)
			}
		}
	}
}

// TestParallelDegreeOneIdentical pins the no-drift guarantee: Parallel=1
// must take the exact serial code path, so every join counter and every
// disk counter matches the Parallel=0 run bit for bit.
func TestParallelDegreeOneIdentical(t *testing.T) {
	const h = 12
	rng := rand.New(rand.NewSource(41))
	aCodes := randCodes(rng, 900, h, -1)
	dCodes := randCodes(rng, 1100, h, -1)
	for name, fn := range parallelAlgorithms() {
		run := func(degree int) (Stats, storage.Stats) {
			d := storage.NewMemDisk(256, storage.CostModel{})
			defer d.Close()
			pool := buffer.New(d, 16)
			ctx := &Context{Pool: pool, TreeHeight: h, Stats: &Stats{}, Parallel: degree}
			a := load(t, ctx, "A", aCodes)
			dd := load(t, ctx, "D", dCodes)
			if err := pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			d.ResetStats()
			if err := fn(ctx, a, dd, &CountSink{}); err != nil {
				t.Fatalf("%s(parallel=%d): %v", name, degree, err)
			}
			return *ctx.Stats, d.Stats()
		}
		serialStats, serialIO := run(0)
		oneStats, oneIO := run(1)
		if oneStats != serialStats {
			t.Errorf("%s: degree-1 stats drifted: %+v vs serial %+v", name, oneStats, serialStats)
		}
		if oneIO != serialIO {
			t.Errorf("%s: degree-1 disk counters drifted: %+v vs serial %+v", name, oneIO, serialIO)
		}
	}
}

// TestRunParallelConcurrency proves the fan-out is real: two tasks
// rendezvous through unbuffered channels, which can only complete when
// both run at the same time on different goroutines.
func TestRunParallelConcurrency(t *testing.T) {
	ctx := newCtx(t, 8, 4)
	ctx.Parallel = 2
	// Unbuffered: the send in task 0 can only complete while task 1 is
	// simultaneously receiving on its own goroutine.
	barrier := make(chan struct{})
	err := ctx.runParallel(2, 2, "t", func(i int) string { return fmt.Sprintf("task=%d", i) },
		func(child *Context, i int) error {
			if i == 0 {
				select {
				case barrier <- struct{}{}:
					return nil
				case <-time.After(10 * time.Second):
					return errors.New("no concurrent peer")
				}
			}
			select {
			case <-barrier:
				return nil
			case <-time.After(10 * time.Second):
				return errors.New("no concurrent peer")
			}
		})
	if err != nil {
		t.Fatalf("runParallel: %v", err)
	}
}

// TestRunParallelMergesDeterministically checks the bookkeeping contract:
// per-task stats merge in task order (Pairs excluded — the parent counting
// sink already saw every pair), one trace root per task attaches in task
// order with the task's detail string, and a real error beats concurrent
// cancellation errors regardless of which task hit it.
func TestRunParallelMergesDeterministically(t *testing.T) {
	ctx := newCtx(t, 12, 4)
	ctx.Parallel = 4
	ctx.Trace = trace.New("join", func() trace.Counters { return trace.Counters{} })
	err := ctx.runParallel(4, 8, "unit", func(i int) string { return fmt.Sprintf("u=%d", i) },
		func(child *Context, i int) error {
			child.Stats.Partitions = int64(i)
			child.Stats.Pairs = 100 // must NOT merge into the parent
			child.Stats.MaxRecursion = i
			if i == 3 {
				child.Stats.MaxRecursion = 9
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ctx.Stats.Partitions, int64(0+1+2+3+4+5+6+7); got != want {
		t.Errorf("Partitions = %d, want %d", got, want)
	}
	if ctx.Stats.Pairs != 0 {
		t.Errorf("worker Pairs leaked into parent: %d", ctx.Stats.Pairs)
	}
	if ctx.Stats.MaxRecursion != 9 {
		t.Errorf("MaxRecursion = %d, want 9", ctx.Stats.MaxRecursion)
	}
	root := ctx.Trace.Finish()
	if len(root.Children) != 8 {
		t.Fatalf("trace roots attached = %d, want 8", len(root.Children))
	}
	for i, sp := range root.Children {
		if sp.Name != "unit" || sp.Detail != fmt.Sprintf("u=%d", i) {
			t.Errorf("span %d = %s[%s], want unit[u=%d]", i, sp.Name, sp.Detail, i)
		}
	}

	// Error selection: task 1 fails for real, the others report
	// cancellations — the real failure must win. A start barrier keeps
	// every task running before any of them returns its error, so the
	// failure flag cannot skip task 1 and make the outcome timing-
	// dependent.
	ctx2 := newCtx(t, 12, 4)
	ctx2.Parallel = 4
	boom := errors.New("boom")
	var started sync.WaitGroup
	started.Add(4)
	err = ctx2.runParallel(4, 4, "unit", func(i int) string { return "" },
		func(child *Context, i int) error {
			started.Done()
			started.Wait()
			if i == 1 {
				return boom
			}
			return ErrCanceled
		})
	if !errors.Is(err, boom) {
		t.Errorf("error = %v, want the real failure to beat cancellations", err)
	}
}

func TestParallelDegreeClamps(t *testing.T) {
	cases := []struct {
		parallel, b, n, want int
	}{
		{0, 100, 10, 1}, // serial by default
		{1, 100, 10, 1}, // explicit serial
		{4, 100, 10, 4}, // plenty of everything
		{8, 100, 3, 3},  // clamped to the unit count
		{8, 12, 100, 4}, // clamped to b/3 worker budgets
		{8, 5, 100, 1},  // budget can't carve two 3-page pools
		{16, 100, 0, 1}, // nothing to fan out
	}
	for _, tc := range cases {
		d := storage.NewMemDisk(256, storage.CostModel{})
		ctx := &Context{Pool: buffer.New(d, tc.b), Parallel: tc.parallel}
		if got := ctx.parallelDegree(tc.n); got != tc.want {
			t.Errorf("parallelDegree(parallel=%d b=%d n=%d) = %d, want %d",
				tc.parallel, tc.b, tc.n, got, tc.want)
		}
		d.Close()
	}
}

// TestParallelCancelMidFanOut cancels the Go context from a disk read hook
// while worker goroutines are mid-join: the fan-out must wind down, report
// ErrCanceled through both error vocabularies, leak no pins, and free
// every temporary page (parent pool residency back to its baseline).
func TestParallelCancelMidFanOut(t *testing.T) {
	const h = 12
	rng := rand.New(rand.NewSource(42))
	aCodes := randCodes(rng, 900, h, -1)
	dCodes := randCodes(rng, 1100, h, -1)
	for name, fn := range parallelAlgorithms() {
		for _, cancelAt := range []int64{0, 4, 40, 200} {
			d := storage.NewMemDisk(256, storage.CostModel{})
			fd := storage.NewFaultDisk(d)
			pool := buffer.New(fd, 512)
			goCtx, cancel := context.WithCancel(context.Background())
			ctx := &Context{Pool: pool, TreeHeight: h, Stats: &Stats{}, Ctx: goCtx, Parallel: 4}
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
			// The hook fires concurrently from every worker's disk view.
			var reads atomic.Int64
			at := cancelAt
			fd.OnRead = func(storage.PageID) error {
				if reads.Add(1) >= at {
					cancel()
				}
				return nil
			}
			if at == 0 {
				cancel()
			}
			prev := ctx.ArmPool()
			err = fn(ctx, a, dd, &CountSink{})
			ctx.DisarmPool(prev)
			cancel()
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
					t.Fatalf("%s(cancelAt=%d): resident pages %d, want baseline %d (err=%v)",
						name, cancelAt, got, baseline, err)
				}
			}
			d.Close()
		}
	}
}

// TestParallelFreeTempsOnDiskErrors injects read/write failures while a
// fan-out is running: the injected error must surface (no panic, no hang),
// sibling workers must stop, and every temporary relation — partitions
// built by the parent, run files built inside workers — must be freed.
func TestParallelFreeTempsOnDiskErrors(t *testing.T) {
	const h = 12
	rng := rand.New(rand.NewSource(43))
	aCodes := randCodes(rng, 900, h, -1)
	dCodes := randCodes(rng, 1100, h, -1)
	for name, fn := range parallelAlgorithms() {
		for _, failAt := range []int64{2, 10, 60, 300} {
			d := storage.NewMemDisk(256, storage.CostModel{})
			fd := storage.NewFaultDisk(d)
			pool := buffer.New(fd, 512)
			ctx := &Context{Pool: pool, TreeHeight: h, Stats: &Stats{}, Parallel: 4}
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
					t.Fatalf("%s(failAt=%d): resident pages %d, want baseline %d (err=%v)",
						name, failAt, got, baseline, err)
				}
			}
			d.Close()
		}
	}
}
