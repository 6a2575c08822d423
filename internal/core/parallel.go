// Parallel fan-out of independent partition joins across worker
// goroutines. The paper's partitioning algorithms decompose a containment
// join into units that share no state — per-height equijoins (MHCJ,
// section 3.2) and per-subtree joins (VPJ, section 3.3) — so the engine
// can evaluate them concurrently without changing any result: each worker
// gets a private buffer pool carved from the parent's page budget over a
// storage.View of the shared disk, runs the unit exactly as the serial
// code would, and emits through a mutex-serialized sink into the parent's
// chain. See doc/PARALLEL.md for the full execution model and its
// accounting invariants.
package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/internal/trace"
)

// lockedSink serializes a sink chain shared by concurrent workers. The
// mutex covers the whole downstream — verification filters, the parent's
// counting sink, the user's Emit — so everything below it runs exactly as
// in a serial execution, one pair at a time.
type lockedSink struct {
	mu   sync.Mutex
	sink Sink
}

func (s *lockedSink) Emit(a, d relation.Rec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sink.Emit(a, d)
}

// merge folds a finished worker's counters into the parent's. Pairs is
// deliberately excluded: every emitted pair already passed through the
// parent's counting sink under the lockedSink mutex, so the parent's
// count is authoritative and the workers' counts (kept for per-task trace
// snapshots) would double it.
func (s *Stats) merge(o *Stats) {
	s.FalseHits += o.FalseHits
	s.Partitions += o.Partitions
	s.Replicated += o.Replicated
	s.Rescans += o.Rescans
	s.IndexProbes += o.IndexProbes
	if o.MaxRecursion > s.MaxRecursion {
		s.MaxRecursion = o.MaxRecursion
	}
}

// isCancelErr reports whether err is a cooperative-abort error rather
// than a real failure; error selection prefers real failures.
func isCancelErr(err error) bool {
	return errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadlineExceeded)
}

// errTaskSkipped marks fan-out tasks abandoned because a sibling failed
// first; it never escapes runParallel.
var errTaskSkipped = errors.New("core: task skipped after sibling failure")

// parallelDegree returns the worker count for a fan-out of n independent
// units: the context's Parallel degree, clamped to n and to the number of
// 3-page worker budgets the memory budget can carve (the extsort floor —
// below 3 pages a worker could not even sort). A result of 1 means the
// caller should take its serial path.
func (c *Context) parallelDegree(n int) int {
	d := c.Parallel
	if d > n {
		d = n
	}
	if lim := c.b() / 3; d > lim {
		d = lim
	}
	if d < 1 {
		d = 1
	}
	return d
}

// runParallel evaluates n independent tasks on degree worker goroutines,
// task i on worker i%degree (striped static assignment, so which worker
// runs which task — and therefore every per-worker counter — is
// deterministic). Each worker owns a buffer pool of b/degree pages over a
// private storage.View of the shared disk; fn receives a fresh child
// Context bound to that pool (Parallel=1: nested fan-outs run serially
// inside their worker) and the task index. Worker stats, spans (one root
// per task, named span, Detail = detail(i)) and pool counters merge into
// the parent in task order after all workers finish.
//
// Cancellation: each child is armed via ArmPool as usual; when the parent
// has a Go context, a derived context cancels the siblings as soon as any
// task fails, and without one a failure flag stops workers between tasks.
// The first non-cancellation error in task order wins (matching the
// scatter-gather shard engine), cancellation errors surfacing only when
// no task failed for a real reason.
func (c *Context) runParallel(degree, n int, span string, detail func(i int) string, fn func(child *Context, i int) error) error {
	// Workers read the current disk state through fresh pools: any dirty
	// page resident only in the parent's pool must be written out first.
	if err := c.Pool.FlushAll(); err != nil {
		return err
	}
	bw := c.b() / degree
	if bw < 3 {
		bw = 3
	}
	runCtx := c.Ctx
	var cancel context.CancelFunc
	if c.Ctx != nil {
		runCtx, cancel = context.WithCancel(c.Ctx)
		defer cancel()
	}
	var failed atomic.Bool
	views := make([]*storage.View, degree)
	pools := make([]*buffer.Pool, degree)
	for w := range pools {
		views[w] = storage.NewView(c.Pool.Disk())
		pools[w] = buffer.New(views[w], bw)
	}
	// Each worker goroutine gets the child scratch of its index, made here
	// before the goroutines exist and touched by that worker alone after.
	scratches := make([]*Scratch, degree)
	for w := range scratches {
		scratches[w] = c.scratch().worker(w)
	}
	childStats := make([]*Stats, n)
	childRoots := make([]*trace.Span, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < degree; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view, wp := views[w], pools[w]
			for i := w; i < n; i += degree {
				if failed.Load() {
					errs[i] = errTaskSkipped
					continue
				}
				stats := &Stats{}
				childStats[i] = stats
				child := &Context{
					Pool:            wp,
					TreeHeight:      c.TreeHeight,
					AncestorHeights: c.AncestorHeights,
					VPJRootCut:      c.VPJRootCut,
					Stats:           stats,
					Ctx:             runCtx,
					Parallel:        1,
					Scratch:         scratches[w],
				}
				if c.Trace != nil {
					child.Trace = trace.New(span, func() trace.Counters {
						vs := view.Stats()
						ps := wp.Stats()
						return trace.Counters{
							Reads: vs.Reads, Writes: vs.Writes,
							SeqReads: vs.SeqReads, SeqWrites: vs.SeqWrites,
							VirtualIO: vs.VirtualIO,
							PoolHits:  ps.Hits, PoolMisses: ps.Misses,
							PoolEvictions: ps.Evictions,
							Pairs:         stats.Pairs,
						}
					})
				}
				prev := child.ArmPool()
				err := fn(child, i)
				child.DisarmPool(prev)
				if root := child.Trace.Finish(); root != nil {
					root.Detail = detail(i)
					childRoots[i] = root
				}
				if err != nil {
					errs[i] = err
					failed.Store(true)
					if cancel != nil {
						cancel()
					}
					for u := i + degree; u < n; u += degree {
						errs[u] = errTaskSkipped
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Deterministic merge: stats and spans in task order, pool counters
	// in worker order — none of it depends on completion timing.
	for _, stats := range childStats {
		if stats != nil {
			c.stats().merge(stats)
		}
	}
	for _, root := range childRoots {
		if root != nil {
			c.Trace.Attach(root)
		}
	}
	for _, wp := range pools {
		c.Pool.Absorb(wp.Stats())
	}
	var cancelErr error
	for _, err := range errs {
		switch {
		case err == nil || errors.Is(err, errTaskSkipped):
		case isCancelErr(err):
			if cancelErr == nil {
				cancelErr = err
			}
		default:
			return err
		}
	}
	return cancelErr
}
