// Package extsort implements external merge sort of relations within a
// fixed budget of buffer pages: run generation sorts b pages worth of
// records in memory, then (b-1)-way merge passes combine runs until one
// sorted relation remains.
//
// It provides the "sort on the fly" step whose cost the paper charges to
// the sort- and index-based baselines (STACKTREE, INLJN, ADB+) when their
// inputs arrive unsorted, and the bulk-load input for the B+-tree.
package extsort

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/trace"
)

// Key is a two-word lexicographic sort key.
type Key [2]uint64

// Less reports whether k orders before l.
func (k Key) Less(l Key) bool {
	if k[0] != l[0] {
		return k[0] < l[0]
	}
	return k[1] < l[1]
}

// compare is the three-way form of Less.
func (k Key) compare(l Key) int {
	if c := cmp.Compare(k[0], l[0]); c != 0 {
		return c
	}
	return cmp.Compare(k[1], l[1])
}

// KeyFunc derives the sort key of a record.
type KeyFunc func(relation.Rec) Key

// ByStartEndDesc orders records in document (pre-) order: region Start
// ascending, then End descending, so that on shared Starts (a node and its
// leftmost descendant) the ancestor comes first. This is the input order
// required by the stack-tree and merge join algorithms.
func ByStartEndDesc(r relation.Rec) Key {
	return Key{r.Code.Start(), ^r.Code.End()}
}

// ByStart orders by region Start only (stable within equal Starts is not
// guaranteed; use ByStartEndDesc when tie order matters).
func ByStart(r relation.Rec) Key { return Key{r.Code.Start(), 0} }

// ByCode orders by the raw PBiTree code (in-order position).
func ByCode(r relation.Rec) Key { return Key{uint64(r.Code), 0} }

// Scratch is the working memory external sorts reuse: the run-generation
// buffer, the merge heap and the merge's fan-in scanners. Whoever sorts
// repeatedly — an engine — owns one for its lifetime and sorts through its
// methods; after the first sort of a given size the only allocations left
// are the output relations' bookkeeping. Nothing is allocated until a sort
// needs it, the run buffer never exceeds memPages pages of keyed records,
// and a Scratch belongs to one goroutine at a time. The zero value is
// ready to use.
type Scratch struct {
	run      []keyedRec
	heap     runHeap
	scanners []relation.Scanner
}

// keyedRec is a record beside its sort key, computed once when the record
// enters the run buffer rather than twice per comparison.
type keyedRec struct {
	key Key
	rec relation.Rec
}

// Sort sorts in by key into a new relation using at most memPages buffer
// pages of working memory (memPages >= 3: one input, one output, one
// spare for merging). The input relation is left untouched. It is
// Scratch.Sort over working memory of its own, for one-off sorts.
func Sort(pool *buffer.Pool, in *relation.Relation, key KeyFunc, memPages int, name string) (*relation.Relation, error) {
	return new(Scratch).Sort(pool, in, key, memPages, name, nil)
}

// Sort sorts in by key into a new relation within memPages buffer pages,
// recording run generation and each merge pass as spans of tr (which may
// be nil).
func (s *Scratch) Sort(pool *buffer.Pool, in *relation.Relation, key KeyFunc, memPages int, name string, tr *trace.Recorder) (*relation.Relation, error) {
	if memPages < 3 {
		return nil, fmt.Errorf("extsort: need at least 3 memory pages, have %d", memPages)
	}
	sp := tr.Start("sort-runs")
	runs, err := s.makeRuns(pool, in, key, memPages, name)
	if sp != nil {
		sp.Detail = fmt.Sprintf("runs=%d", len(runs))
	}
	tr.End(sp)
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return relation.New(pool, name), nil
	}
	// (memPages-1)-way merge passes until one relation remains.
	fanIn := memPages - 1
	pass := 0
	for len(runs) > 1 {
		pass++
		sp := tr.StartDetail("sort-merge", fmt.Sprintf("pass=%d runs=%d fanin=%d", pass, len(runs), fanIn))
		var next []*relation.Relation
		// On error, every surviving run of this pass — merged or not —
		// must be freed here: the caller never sees them.
		fail := func(err error) (*relation.Relation, error) {
			tr.End(sp)
			freeRuns(next)
			freeRuns(runs)
			return nil, err
		}
		for lo := 0; lo < len(runs); lo += fanIn {
			hi := lo + fanIn
			if hi > len(runs) {
				hi = len(runs)
			}
			merged, err := s.mergeRuns(pool, runs[lo:hi], key, fmt.Sprintf("%s.p%d.%d", name, pass, lo))
			if err != nil {
				return fail(err)
			}
			for j := lo; j < hi; j++ {
				if err := runs[j].Free(); err != nil {
					next = append(next, merged)
					return fail(err)
				}
				runs[j] = nil
			}
			next = append(next, merged)
		}
		runs = next
		tr.End(sp)
	}
	return runs[0], nil
}

// freeRuns releases run relations, ignoring errors (cleanup path).
func freeRuns(runs []*relation.Relation) {
	for _, r := range runs {
		if r != nil {
			r.Free() //nolint:errcheck // best-effort cleanup
		}
	}
}

// sortedRun sorts the keyed records and writes them as one run relation
// through pool, in the page layout the sort input in writes.
func sortedRun(pool *buffer.Pool, buf []keyedRec, in *relation.Relation, name string) (*relation.Relation, error) {
	slices.SortFunc(buf, func(x, y keyedRec) int { return x.key.compare(y.key) })
	run := relation.NewLike(in, pool, name)
	app := run.NewAppender()
	for i := range buf {
		if err := app.Append(buf[i].rec); err != nil {
			app.Close() //nolint:errcheck // first error wins
			run.Free()  //nolint:errcheck // cleanup after append error
			return nil, err
		}
	}
	if err := app.Close(); err != nil {
		run.Free() //nolint:errcheck // cleanup after append error
		return nil, err
	}
	return run, nil
}

// runBuffer returns the empty run buffer with room for n records.
func (s *Scratch) runBuffer(n int) []keyedRec {
	if cap(s.run) < n {
		s.run = make([]keyedRec, 0, n)
	}
	return s.run[:0]
}

// makeRuns produces sorted runs of up to memPages pages each.
func (s *Scratch) makeRuns(pool *buffer.Pool, in *relation.Relation, key KeyFunc, memPages int, name string) ([]*relation.Relation, error) {
	chunk := memPages * relation.PerPage(pool.PageSize())
	// Small inputs (a path step's match set) get a buffer of their own
	// size, not a whole chunk.
	buf := s.runBuffer(int(min(int64(chunk), in.NumRecords())))
	defer func() { s.run = buf[:0] }()
	var runs []*relation.Relation
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		run, err := sortedRun(pool, buf, in, fmt.Sprintf("%s.run%d", name, len(runs)))
		if err != nil {
			return err
		}
		runs = append(runs, run)
		buf = buf[:0]
		return nil
	}
	var sc relation.Scanner
	sc.Reset(in)
	defer sc.Close()
	for sc.Next() {
		buf = append(buf, keyedRec{key: key(sc.Rec()), rec: sc.Rec()})
		if len(buf) == chunk {
			if err := flush(); err != nil {
				freeRuns(runs)
				return nil, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		freeRuns(runs)
		return nil, err
	}
	if err := flush(); err != nil {
		freeRuns(runs)
		return nil, err
	}
	return runs, nil
}

// mergeItem is one head-of-run entry in the merge heap.
type mergeItem struct {
	rec relation.Rec
	key Key
	src int
}

// runHeap is a concrete binary min-heap of run heads ordered by key. The
// merge loop only ever replaces or removes the minimum, so two sift-down
// entry points suffice; compared to container/heap this keeps every
// mergeItem out of interface boxes — no per-record allocation on the
// merge path.
type runHeap struct {
	items []mergeItem
}

func (h *runHeap) init() {
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *runHeap) siftDown(i int) {
	items := h.items
	n := len(items)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && items[r].key.Less(items[l].key) {
			m = r
		}
		if !items[m].key.Less(items[i].key) {
			return
		}
		items[i], items[m] = items[m], items[i]
		i = m
	}
}

// replaceTop overwrites the minimum with it and restores heap order.
func (h *runHeap) replaceTop(it mergeItem) {
	h.items[0] = it
	h.siftDown(0)
}

// popTop removes the minimum.
func (h *runHeap) popTop() {
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	if n > 1 {
		h.siftDown(0)
	}
}

// mergeRuns merges already-sorted runs into one relation.
func (s *Scratch) mergeRuns(pool *buffer.Pool, runs []*relation.Relation, key KeyFunc, name string) (*relation.Relation, error) {
	// Runs inherit the page layout of the sort input; the merged output
	// keeps it (all runs of one sort share it, so the first speaks for all).
	out := relation.NewLike(runs[0], pool, name)
	app := out.NewAppender()
	if cap(s.scanners) < len(runs) {
		s.scanners = make([]relation.Scanner, len(runs))
	}
	scanners := s.scanners[:len(runs)]
	defer func() {
		for i := range scanners {
			scanners[i].Close()
		}
	}()
	// fail abandons the partially-written output: the caller never sees it.
	fail := func(err error) (*relation.Relation, error) {
		app.Close() //nolint:errcheck // first error wins
		out.Free()  //nolint:errcheck // cleanup after earlier error
		return nil, err
	}
	h := &s.heap
	h.items = h.items[:0]
	for i, r := range runs {
		sc := &scanners[i]
		sc.Reset(r)
		if sc.Next() {
			h.items = append(h.items, mergeItem{rec: sc.Rec(), key: key(sc.Rec()), src: i})
		} else if err := sc.Err(); err != nil {
			return fail(err)
		}
	}
	h.init()
	for len(h.items) > 0 {
		it := h.items[0]
		if err := app.Append(it.rec); err != nil {
			return fail(err)
		}
		sc := &scanners[it.src]
		if sc.Next() {
			h.replaceTop(mergeItem{rec: sc.Rec(), key: key(sc.Rec()), src: it.src})
		} else if err := sc.Err(); err != nil {
			return fail(err)
		} else {
			h.popTop()
		}
	}
	if err := app.Close(); err != nil {
		out.Free() //nolint:errcheck // cleanup after earlier error
		return nil, err
	}
	return out, nil
}

// IsSorted reports whether the relation is ordered by key (scan-verifies;
// used by tests and by defensive checks in the baselines).
func IsSorted(in *relation.Relation, key KeyFunc) (bool, error) {
	s := in.Scan()
	defer s.Close()
	first := true
	var prev Key
	for s.Next() {
		k := key(s.Rec())
		if !first && k.Less(prev) {
			return false, nil
		}
		prev, first = k, false
	}
	return true, s.Err()
}
