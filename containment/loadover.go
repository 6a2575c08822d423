package containment

import (
	"fmt"

	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/pbicode"
)

// codeStats is what a catalog entry records of a run of codes besides their
// number: the smallest region covering them and the set of heights they
// occupy; and the run's last code, which a run that follows it must not
// start before for the two to be in document order. The zero value is the
// empty run (every code has a height, so a non-empty run has a non-zero
// mask).
type codeStats struct {
	minStart, maxEnd uint64
	heights          uint64
	last             pbicode.Code
}

func (s *codeStats) add(c pbicode.Code) {
	start, end := c.Start(), c.End()
	if s.heights == 0 || start < s.minStart {
		s.minStart = start
	}
	if s.heights == 0 || end > s.maxEnd {
		s.maxEnd = end
	}
	s.heights |= 1 << uint(c.Height())
	s.last = c
}

func (s codeStats) merge(o codeStats) codeStats {
	switch {
	case o.heights == 0:
		return s
	case s.heights == 0:
		return o
	}
	return codeStats{min(s.minStart, o.minStart), max(s.maxEnd, o.maxEnd), s.heights | o.heights, o.last}
}

// LoadOver stores the code list that supersedes old, a relation of this
// engine: old's first from records, in storage order, followed by tail. The
// result holds exactly what Load of that list would — records, ordinals,
// span, height mask — but the closed pages of old whose records the list
// repeats at the same ordinals are shared by page ID instead of rewritten.
// The caller says where the list may first differ (from), so the pages
// wholly below it are found from page headers, in O(log pages) fetches and
// without decoding them; the page holding ordinal from is decoded to
// re-append its records before from. A page past from is shared too when
// tail happens to repeat it, so a from below the first real change costs
// reads, never pages. An update that leaves existing codes where they were
// — what PBiTree's virtual-node gaps are for — therefore costs work and
// pages in proportion to the changed suffix, not to the relation.
//
// Only closed pages are shared, never old's tail, so no stored page is
// written again: old stays valid, and an epoch that still references those
// page IDs keeps reading the same bytes (SharedPages reports how many). A
// nil old, with from 0, is a plain load. The result is in document order
// (Relation.Ordered) exactly when a plain Load of the list would find it
// so.
func (e *Engine) LoadOver(old *Relation, name string, from int, tail []pbicode.Code) (*Relation, error) {
	var oldLen int64
	if old != nil {
		if old.rel.Pool() != e.pool {
			return nil, fmt.Errorf("containment: LoadOver: relation %s belongs to another engine", old.Name())
		}
		oldLen = old.Len()
	}
	if from < 0 || int64(from) > oldLen {
		return nil, fmt.Errorf("containment: LoadOver: keeps %d records of relation %s, which has %d", from, name, oldLen)
	}
	var (
		shared []storage.PageID
		kept   int      // ordinal of the first record stored anew
		redo   []uint64 // old's records from kept to from, stored anew
		sc     relation.BatchScanner
	)
	defer sc.Close()
	if old != nil && old.Pages() > 0 {
		k, first, err := boundaryPage(old.rel, from)
		if err != nil {
			return nil, err
		}
		kept = first
		for m := int(old.Pages()); ; k++ {
			codes, aux, err := readPage(&sc, old.rel, k)
			if err != nil {
				return nil, err
			}
			if len(aux) > 0 && aux[0] != uint64(kept) {
				return nil, fmt.Errorf("containment: LoadOver: relation %s: page %d starts at ordinal %d, not %d", name, k, aux[0], kept)
			}
			if k == m-1 || !repeats(codes, aux, kept, from, tail) {
				redo = codes[:max(0, min(len(codes), from-kept))]
				break
			}
			kept += len(codes)
		}
		shared = old.rel.Pages()[:k]
	}

	rel := relation.New(e.pool, name)
	rel.SetPaperLayout(e.cfg.PaperLayout)
	app := rel.NewAppender()
	// The new records' statistics, per page when old is given, so that the
	// result keeps them for the next LoadOver over it: a record whose Append
	// grows the page list begins a page (the packed layout lists a page
	// when the next record does not fit it, the fixed one when its first
	// record opens it). A plain load keeps none and allocates nothing more.
	track := old != nil
	var page codeStats
	var pages []codeStats
	var maxCode pbicode.Code
	add := func(c pbicode.Code, ord int) error {
		n := rel.NumPages()
		if err := app.Append(relation.Rec{Code: c, Aux: uint64(ord)}); err != nil {
			return err
		}
		if track && rel.NumPages() != n && page.heights != 0 {
			pages, page = append(pages, page), codeStats{}
		}
		page.add(c)
		maxCode = max(maxCode, c)
		return nil
	}
	for i, c := range redo {
		if err := add(pbicode.Code(c), kept+i); err != nil {
			app.Close() //nolint:errcheck // first error wins
			return nil, err
		}
	}
	for i := max(0, kept-from); i < len(tail); i++ {
		if err := add(tail[i], from+i); err != nil {
			app.Close() //nolint:errcheck // first error wins
			return nil, err
		}
	}
	if err := app.Close(); err != nil {
		return nil, err
	}
	fresh := page
	if track && page.heights != 0 {
		pages = append(pages, page)
		for _, p := range pages[:len(pages)-1] {
			fresh = fresh.merge(p)
		}
	}

	// The shared records' statistics: the shared pages' as old keeps them,
	// or, for a pure append, old's own entry, which the re-appended records
	// complete; decoded from the shared pages otherwise.
	k := len(shared)
	var prefix codeStats
	if k > 0 {
		if len(old.stats) < k && int64(from) == oldLen && old.heights != 0 {
			span, _ := old.rel.Span()
			prefix = codeStats{minStart: span.Start, maxEnd: span.End, heights: old.heights}
		} else {
			var err error
			if prefix, err = old.statsThrough(k); err != nil {
				return nil, err
			}
		}
	}
	var stats []codeStats
	if track && len(old.stats) >= k && len(pages) == int(rel.NumPages()) {
		stats = make([]codeStats, k, k+len(pages))
		copy(stats, old.stats[:k])
		run := prefix
		for _, p := range pages {
			run = run.merge(p)
			stats = append(stats, run)
		}
	}
	total := prefix.merge(fresh)
	if k > 0 {
		ordered, err := old.sharedOrdered(k, rel, redo, kept, from, tail)
		if err != nil {
			return nil, err
		}
		// The appended pages start on a fresh page of their own, so the
		// result is the shared page IDs followed by the new ones, and its
		// fences old's for the shared pages and the appender's for the rest.
		var fences []uint64
		if of, nf := old.rel.Fences(), rel.Fences(); ordered && of != nil && nf != nil {
			fences = append(of[:k:k], nf...)
		}
		rel = relation.Attach(e.pool, name, append(shared, rel.Pages()...), int64(from+len(tail)),
			pbicode.Region{Start: total.minStart, End: total.maxEnd}, ordered, fences)
		rel.SetPaperLayout(e.cfg.PaperLayout)
	}
	// Grow the engine's PBiTree height to cover every loaded code. A
	// configured height is a floor, not a cap: embedding codes in a
	// taller perfect tree preserves all ancestor relationships, so
	// growing is always safe, while an undersized height would corrupt
	// the vertical partitioning's level arithmetic. Old's codes are
	// covered already.
	if need := minTreeHeight(maxCode); need > e.cfg.TreeHeight {
		e.cfg.TreeHeight = need
	}
	return &Relation{rel: rel, shared: len(shared), heights: total.heights, stats: stats}, nil
}

// sharedOrdered says whether the relation LoadOver assembles from old's
// first k pages, holding its records up to ordinal kept, and fresh, the
// records it stored anew, is in document order. Appending checked fresh,
// and old's order covers its shared records. What is left is the seam
// between the two: the last shared record is old's own when fresh begins
// with redo, old's records re-appended from kept — every pure append does
// — and tail's when the shared pages reach past from. When they end
// exactly at from, it is the last record of old's page k-1, which old's
// per-page statistics keep (decoded once if it has none yet).
func (old *Relation) sharedOrdered(k int, fresh *relation.Relation, redo []uint64, kept, from int, tail []pbicode.Code) (bool, error) {
	switch {
	case !old.rel.Ordered() || !fresh.Ordered():
		return false, nil
	case len(redo) > 0 || fresh.NumRecords() == 0:
		return true, nil
	case kept > from:
		return !relation.DocLess(tail[kept-from], tail[kept-from-1]), nil
	}
	s, err := old.statsThrough(k)
	return err == nil && !relation.DocLess(tail[0], s.last), err
}

// boundaryPage finds the page of r that holds ordinal from — the last page
// whose first record's ordinal, its Aux, is at most from — and that
// ordinal, from page headers alone: the last page first, where appends
// land, and a binary search when the change lies before it.
func boundaryPage(r *relation.Relation, from int) (k, first int, err error) {
	lo, hi := 0, int(r.NumPages())-1
	for probe := hi; lo < hi; probe = (lo + hi + 1) / 2 {
		rec, err := r.FirstRecord(probe)
		if err != nil {
			return 0, 0, err
		}
		if rec.Aux <= uint64(from) {
			lo, first = probe, int(rec.Aux)
		} else {
			hi = probe - 1
		}
	}
	return lo, first, nil
}

// readPage decodes page k of r through sc: its codes and aux words, valid
// until sc moves on (both empty for an empty page).
func readPage(sc *relation.BatchScanner, r *relation.Relation, k int) (codes, aux []uint64, err error) {
	sc.ResetPages(r, k, k+1)
	if sc.Next() {
		return sc.Codes(), sc.Aux(), nil
	}
	return nil, nil, sc.Err()
}

// repeats reports whether a page of records starting at ordinal kept holds
// what the list of LoadOver's from and tail puts at the same ordinals: each
// record's Aux is its ordinal, and the records from ordinal from on are
// tail's. Those before from are the list's by LoadOver's contract.
func repeats(codes, aux []uint64, kept, from int, tail []pbicode.Code) bool {
	for i, c := range codes {
		ord := kept + i
		if aux[i] != uint64(ord) {
			return false
		}
		if ord >= from && (ord-from >= len(tail) || tail[ord-from] != pbicode.Code(c)) {
			return false
		}
	}
	return true
}

// statsThrough returns the statistics of the records on r's first k pages,
// decoding the pages past the ones r keeps statistics of — once: it keeps
// theirs too.
func (r *Relation) statsThrough(k int) (codeStats, error) {
	var sc relation.BatchScanner
	defer sc.Close()
	for j := len(r.stats); j < k; j++ {
		codes, _, err := readPage(&sc, r.rel, j)
		if err != nil {
			return codeStats{}, err
		}
		var s codeStats
		if j > 0 {
			s = r.stats[j-1]
		}
		for _, c := range codes {
			s.add(pbicode.Code(c))
		}
		r.stats = append(r.stats, s)
	}
	if k == 0 {
		return codeStats{}, nil
	}
	return r.stats[k-1], nil
}

// SharedPrefix is the reference LoadOver's sharing is held to: how many
// leading pages of r a relation loaded from the whole list codes could
// share, found by comparing every record of them (relation's
// SharedPrefix). Tests call it; the loaders do not.
func (r *Relation) SharedPrefix(codes []pbicode.Code) (int64, error) {
	pages, _, err := r.rel.SharedPrefix(codes)
	return int64(pages), err
}
