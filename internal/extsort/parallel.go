package extsort

import (
	"fmt"
	"sync"

	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/internal/trace"
)

// ParallelOpts configures SortParallel.
type ParallelOpts struct {
	// Degree is the worker count for run generation; <= 1 means the serial
	// Sort path, byte-for-byte.
	Degree int
	// Interrupt, when non-nil, is installed on every worker pool so
	// cancellation reaches a fan-out at page granularity, exactly as
	// core.Context.ArmPool does for the serial path.
	Interrupt buffer.Interrupter
}

// SortParallel is Sort with parallel run generation: the input's
// pages are split into fixed chunks of memPages/Degree pages, and each
// worker sorts its chunks into runs through a private 3-frame buffer pool
// over a storage.View of the shared disk. The (memPages-1)-way merge
// passes stay serial — one output stream — and run on the caller's pool.
//
// The run set is deterministic: chunk boundaries depend only on the input
// size and memPages/Degree, chunks are striped across workers (chunk i on
// worker i mod Degree), and runs are merged in chunk order, so the sorted
// output is identical for every degree. What changes with degree is the
// run size — memPages/Degree pages instead of memPages — so a parallel
// sort may need more merge work than a serial one; callers with a tight
// page budget should prefer serial sorts (Degree is also floored so every
// worker keeps the 3-page minimum).
//
// Memory accounting: the caller's memPages budget bounds the record
// buffers (each worker holds chunkPages worth of records), while the
// worker pools add 3 transient frames each on top — the same "one frame
// per stream" slack the serial appender already has.
func (s *Scratch) SortParallel(pool *buffer.Pool, in *relation.Relation, key KeyFunc, memPages int, name string, tr *trace.Recorder, opts ParallelOpts) (*relation.Relation, error) {
	if memPages < 3 {
		return nil, fmt.Errorf("extsort: need at least 3 memory pages, have %d", memPages)
	}
	degree := opts.Degree
	if degree > memPages/3 {
		degree = memPages / 3 // keep every worker at the 3-page floor
	}
	if degree <= 1 {
		return s.Sort(pool, in, key, memPages, name, tr)
	}
	// A worker's run buffer holds chunkRecs records, memPages/degree pages
	// of working memory; a chunk is as many of the input's pages as hold
	// that many at the input's average density (packed pages hold several
	// times what a page of working memory does).
	chunkPages := memPages / degree
	chunkRecs := chunkPages * relation.PerPage(pool.PageSize())
	if recs := in.NumRecords(); recs > 0 {
		chunkPages = max(1, min(chunkPages, int(int64(chunkRecs)*in.NumPages()/recs)))
	}
	nChunks := int((in.NumPages() + int64(chunkPages) - 1) / int64(chunkPages))
	if nChunks <= 1 {
		return s.Sort(pool, in, key, memPages, name, tr)
	}
	if degree > nChunks {
		degree = nChunks
	}
	// Workers read the input through fresh pools: any dirty input page
	// resident in the caller's pool must be on disk first.
	if err := pool.FlushAll(); err != nil {
		return nil, err
	}
	sp := tr.Start("sort-runs")
	runs, roots, err := s.makeRunsParallel(pool, in, key, chunkPages, chunkRecs, nChunks, degree, name, tr != nil, opts.Interrupt)
	if sp != nil {
		sp.Detail = fmt.Sprintf("runs=%d degree=%d", len(runs), degree)
	}
	for _, root := range roots {
		tr.Attach(root)
	}
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return relation.New(pool, name), nil
	}
	return s.mergePasses(pool, runs, key, memPages, name, tr)
}

// makeRunsParallel sorts the input's page chunks [t*chunkPages,
// (t+1)*chunkPages) into one run each, chunk t on worker t%degree. Each
// worker builds its runs through a private pool and view; finished runs
// are flushed and rebound to the caller's pool, so the caller owns them
// exactly as if makeRuns had produced them. Returns the runs in chunk
// order and, when traced, one finished span tree per chunk (also in chunk
// order).
func (s *Scratch) makeRunsParallel(pool *buffer.Pool, in *relation.Relation, key KeyFunc, chunkPages, chunkRecs, nChunks, degree int, name string, traced bool, interrupt buffer.Interrupter) ([]*relation.Relation, []*trace.Span, error) {
	runs := make([]*relation.Relation, nChunks)
	roots := make([]*trace.Span, nChunks)
	errs := make([]error, nChunks)
	views := make([]*storage.View, degree)
	wpools := make([]*buffer.Pool, degree)
	for w := range wpools {
		views[w] = storage.NewView(pool.Disk())
		wpools[w] = buffer.New(views[w], 3)
		wpools[w].SetInterrupt(interrupt)
	}
	// Each worker's run buffer lives in a child scratch only that worker's
	// goroutine touches, created here before the goroutines start.
	for len(s.workers) < degree {
		s.workers = append(s.workers, new(Scratch))
	}
	var wg sync.WaitGroup
	for w := 0; w < degree; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view, wp, ws := views[w], wpools[w], s.workers[w]
			for t := w; t < nChunks; t += degree {
				if errs[t] != nil {
					continue
				}
				var rec *trace.Recorder
				if traced {
					rec = trace.New("sort-run", func() trace.Counters {
						vs := view.Stats()
						ps := wp.Stats()
						return trace.Counters{
							Reads: vs.Reads, Writes: vs.Writes,
							SeqReads: vs.SeqReads, SeqWrites: vs.SeqWrites,
							VirtualIO:  vs.VirtualIO,
							PoolHits:   ps.Hits,
							PoolMisses: ps.Misses, PoolEvictions: ps.Evictions,
						}
					})
				}
				run, err := ws.sortChunk(pool, wp, in, key, chunkPages, chunkRecs, t, name)
				if root := rec.Finish(); root != nil {
					root.Detail = fmt.Sprintf("run=%d", t)
					roots[t] = root
				}
				if err != nil {
					errs[t] = err
					// Stop this worker's stripe; siblings drain their own.
					for u := t + degree; u < nChunks; u += degree {
						errs[u] = errChunkSkipped
					}
					return
				}
				runs[t] = run
			}
		}(w)
	}
	wg.Wait()
	for _, wp := range wpools {
		pool.Absorb(wp.Stats())
	}
	for _, err := range errs {
		if err != nil && err != errChunkSkipped {
			freeRuns(runs)
			return nil, nil, err
		}
	}
	out := runs[:0]
	for _, r := range runs {
		if r != nil {
			out = append(out, r)
		}
	}
	return out, roots, nil
}

// errChunkSkipped marks chunks abandoned because an earlier chunk of the
// same worker failed; the first real error wins.
var errChunkSkipped = fmt.Errorf("extsort: chunk skipped after earlier failure")

// sortChunk reads the chunk's pages through the worker pool, sorts the
// records in memory, writes them as one run through the worker pool, and
// rebinds the finished run to the caller's pool.
func (s *Scratch) sortChunk(pool, wp *buffer.Pool, in *relation.Relation, key KeyFunc, chunkPages, chunkRecs, t int, name string) (*relation.Relation, error) {
	lo := t * chunkPages
	hi := lo + chunkPages
	var sc relation.Scanner
	sc.ResetPages(in.WithPool(wp), lo, hi)
	defer sc.Close()
	buf := s.runBuffer(chunkRecs)
	for sc.Next() {
		buf = append(buf, keyedRec{key: key(sc.Rec()), rec: sc.Rec()})
	}
	s.run = buf[:0] // a chunk denser than the input's average outgrows the estimate
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(buf) == 0 {
		return nil, nil
	}
	run, err := sortedRun(wp, buf, in, fmt.Sprintf("%s.run%d", name, t))
	if err != nil {
		return nil, err
	}
	// The run was written through the worker pool; push it to disk and
	// hand the caller a binding through its own pool.
	if err := wp.FlushAll(); err != nil {
		run.Free() //nolint:errcheck // cleanup after flush error
		return nil, err
	}
	span, _ := run.Span()
	return relation.Attach(pool, run.Name(), run.Pages(), run.NumRecords(), span), nil
}
