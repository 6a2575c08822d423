package extsort

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/internal/trace"
)

func newPoolOn(t *testing.T, d storage.Disk, b int) *buffer.Pool {
	t.Helper()
	return buffer.New(d, b)
}

// TestSortParallelMatchesSerial checks that SortParallel produces exactly
// the serial sort's record sequence for every degree, across buffer
// budgets that exercise the zero-run, one-run and multi-pass shapes.
func TestSortParallelMatchesSerial(t *testing.T) {
	for _, n := range []int{0, 10, 500, 5_000} {
		for _, memPages := range []int{3, 6, 16} {
			for _, degree := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("n=%d/b=%d/d=%d", n, memPages, degree), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(n*1000 + memPages)))
					recs := randomRecs(rng, n, 16)

					serialPool := newPool(t, 64)
					sin := relation.New(serialPool, "in")
					if err := sin.Append(recs...); err != nil {
						t.Fatal(err)
					}
					want, err := Sort(serialPool, sin, ByStartEndDesc, memPages, "out")
					if err != nil {
						t.Fatal(err)
					}
					wantRecs, err := want.ReadAll()
					if err != nil {
						t.Fatal(err)
					}

					parPool := newPool(t, 64)
					pin := relation.New(parPool, "in")
					if err := pin.Append(recs...); err != nil {
						t.Fatal(err)
					}
					got, err := new(Scratch).SortParallel(parPool, pin, ByStartEndDesc, memPages, "out", nil,
						ParallelOpts{Degree: degree})
					if err != nil {
						t.Fatal(err)
					}
					gotRecs, err := got.ReadAll()
					if err != nil {
						t.Fatal(err)
					}
					if len(gotRecs) != len(wantRecs) {
						t.Fatalf("parallel sorted %d records, serial %d", len(gotRecs), len(wantRecs))
					}
					for i := range gotRecs {
						ki, kj := ByStartEndDesc(gotRecs[i]), ByStartEndDesc(wantRecs[i])
						if ki != kj {
							t.Fatalf("record %d: parallel key %v, serial key %v", i, ki, kj)
						}
					}
					if ok, err := IsSorted(got, ByStartEndDesc); err != nil || !ok {
						t.Fatalf("parallel output not sorted (err=%v)", err)
					}
				})
			}
		}
	}
}

// TestSortParallelTrace checks the parallel sort's span tree: a sort-runs
// span carrying one attached sort-run tree per chunk, then serial
// sort-merge spans.
func TestSortParallelTrace(t *testing.T) {
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
	out, err := new(Scratch).SortParallel(pool, in, ByStartEndDesc, 8, "out", tr, ParallelOpts{Degree: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer out.Free() //nolint:errcheck
	root := tr.Finish()
	if len(root.Children) == 0 || root.Children[0].Name != "sort-runs" {
		t.Fatalf("missing sort-runs span: %+v", root.Children)
	}
	runsSpan := root.Children[0]
	if len(runsSpan.Children) == 0 {
		t.Fatal("no per-run spans attached")
	}
	for i, ch := range runsSpan.Children {
		if ch.Name != "sort-run" {
			t.Fatalf("child %d: name %q", i, ch.Name)
		}
		if want := fmt.Sprintf("run=%d", i); ch.Detail != want {
			t.Fatalf("child %d: detail %q, want %q (chunk order)", i, ch.Detail, want)
		}
		if ch.Total.Reads == 0 {
			t.Fatalf("child %d: no reads recorded on worker view", i)
		}
	}
	found := false
	for _, ch := range root.Children[1:] {
		if ch.Name == "sort-merge" {
			found = true
		}
	}
	if !found {
		t.Fatal("missing serial sort-merge span")
	}
}

// TestSortParallelError checks temp cleanup when a worker fails mid
// fan-out: the resident-page count returns to the pre-sort baseline and
// the error surfaces.
func TestSortParallelError(t *testing.T) {
	base := storage.NewMemDisk(256, storage.CostModel{})
	t.Cleanup(func() { base.Close() })
	fd := storage.NewFaultDisk(base)
	pool := newPoolOn(t, fd, 64)
	rng := rand.New(rand.NewSource(9))
	in := relation.New(pool, "in")
	if err := in.Append(randomRecs(rng, 3_000, 16)...); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	baseline := pool.Resident()
	fd.FailWriteAfter = fd.Stats().Writes + 20
	_, err := new(Scratch).SortParallel(pool, in, ByStartEndDesc, 8, "out", nil, ParallelOpts{Degree: 2})
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if got := pool.Resident(); got != baseline {
		t.Fatalf("resident pages %d after failed sort, baseline %d", got, baseline)
	}
}

// interruptFunc adapts a function to buffer.Interrupter.
type interruptFunc func() error

func (f interruptFunc) Canceled() error { return f() }

// TestSortParallelInterrupt checks that a worker-pool interrupt aborts the
// fan-out with the interrupt's error.
func TestSortParallelInterrupt(t *testing.T) {
	pool := newPool(t, 64)
	rng := rand.New(rand.NewSource(11))
	in := relation.New(pool, "in")
	if err := in.Append(randomRecs(rng, 3_000, 16)...); err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	var calls atomic.Int64
	_, err := new(Scratch).SortParallel(pool, in, ByStartEndDesc, 8, "out", nil, ParallelOpts{
		Degree: 2,
		Interrupt: interruptFunc(func() error {
			if calls.Add(1) > 10 {
				return stop
			}
			return nil
		}),
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want interrupt error", err)
	}
}
