package relation

import "fmt"

// BatchScanner iterates a relation page-at-a-time, decoding each page's
// records into two reusable column slabs — codes and aux words as bare
// []uint64 — instead of a []Rec row buffer. Join kernels iterate the slabs
// in tight loops: no per-record method dispatch, one bounds check per
// slab, and the code column is laid out exactly as the batched pbicode
// kernels (FBatch and friends) want it.
//
// Like Scanner, it unpins each page immediately after decoding, so no pin
// is held between Next calls and cancellation is polled at page
// granularity through the pool's interrupt hook.
type BatchScanner struct {
	r       *Relation
	pageIdx int
	endPage int // exclusive page bound; scanEnd sentinel = live tail
	page    pageSlab
	err     error
}

// scanEnd marks a batch scanner bounded by the relation's live page count rather
// than a fixed range.
const scanEnd = -1

// clampPages clamps the half-open page range [lo, hi) to r's pages.
func (r *Relation) clampPages(lo, hi int) (int, int) {
	if hi > len(r.pages) {
		hi = len(r.pages)
	}
	if lo < 0 {
		lo = 0
	}
	return lo, hi
}

// BatchScan returns a batch scanner positioned before the first page.
func (r *Relation) BatchScan() *BatchScanner {
	return &BatchScanner{r: r, endPage: scanEnd}
}

// BatchScanPages returns a batch scanner over the half-open page range
// [lo, hi), clamped to the relation's pages.
func (r *Relation) BatchScanPages(lo, hi int) *BatchScanner {
	lo, hi = r.clampPages(lo, hi)
	return &BatchScanner{r: r, pageIdx: lo, endPage: hi}
}

// Reset repositions the scanner at the start of r, keeping the slabs.
func (s *BatchScanner) Reset(r *Relation) {
	*s = BatchScanner{r: r, endPage: scanEnd, page: pageSlab{buf: s.page.buf}}
}

// ResetPages repositions the scanner over [lo, hi) of r, keeping the
// slabs.
func (s *BatchScanner) ResetPages(r *Relation, lo, hi int) {
	lo, hi = r.clampPages(lo, hi)
	*s = BatchScanner{r: r, pageIdx: lo, endPage: hi, page: pageSlab{buf: s.page.buf}}
}

// Next loads the next non-empty page into the slabs, reporting false at
// the end of the range or on error. After a true Next, Codes and Aux
// return the page's columns; their contents are valid until the following
// Next, Reset or Close. At the end of the range the slabs go back to the
// pool, as with Scanner.
func (s *BatchScanner) Next() bool {
	if s.err != nil {
		return false
	}
	for {
		end := s.endPage
		if end == scanEnd {
			end = len(s.r.pages)
		}
		if s.pageIdx >= end {
			s.page.release(s.r.pool)
			return false
		}
		if err := s.page.load(s.r, s.pageIdx); err != nil {
			s.err = fmt.Errorf("relation %s: batch scan: %w", s.r.name, err)
			return false
		}
		s.pageIdx++
		if len(s.page.codes) > 0 {
			return true
		}
	}
}

// Page returns the index in the relation of the page the last true Next
// decoded.
func (s *BatchScanner) Page() int { return s.pageIdx - 1 }

// Codes returns the code column of the current page. Valid after a true
// Next, until the following Next, Reset or Close.
func (s *BatchScanner) Codes() []uint64 { return s.page.codes }

// Aux returns the aux column of the current page, index-aligned with
// Codes.
func (s *BatchScanner) Aux() []uint64 { return s.page.aux }

// Err returns the first error encountered, if any.
func (s *BatchScanner) Err() error { return s.err }

// Close ends a scan abandoned before its end, giving the slabs back to the
// pool (an exhausted scanner already has).
func (s *BatchScanner) Close() {
	if s.r != nil {
		s.page.release(s.r.pool)
	}
}
