// Package relation implements heap files of element records over the buffer
// pool: the unsorted input sets A and D of a containment join, the
// partition files produced by the partitioning algorithms, and the sorted
// runs of the external sort all live in relations.
//
// A record is two words: the element's PBiTree code plus an auxiliary word
// (the element's ordinal in its document, or — in rolled-up relations — the
// element's original code before rollup). Pages are written packed (see
// page.go), about 2 bytes a record on document-ordered codes; in the paper's
// own layout a record is 16 bytes and a 4 KiB page holds 255, so the paper's
// 1 M-element sets occupy ~3900 pages against the 500-page buffer pool of
// the experiments.
package relation

import (
	"encoding/binary"
	"fmt"

	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/pbicode"
)

// Rec is one element record.
type Rec struct {
	Code pbicode.Code
	// Aux carries per-record payload: the element ordinal for base
	// relations, or the pre-rollup code for rolled-up relations.
	Aux uint64
}

// RecSize is the size of a record in the fixed-width layout, in bytes.
const RecSize = 16

// Relation is an append-only heap file: an ordered list of pages, each
// packed with records. The page list is kept in memory (the paper's
// Minibase keeps it in directory pages; at one entry per 255 records the
// difference is negligible and excluded from I/O accounting, as is
// conventional).
type Relation struct {
	name    string
	pool    *buffer.Pool
	pages   []storage.PageID
	count   int64
	perPage int
	// minStart / maxEnd track the region span of all records ever
	// appended (zero value = none yet). The vertical partitioning join
	// uses them to cut below the data's common ancestor, which keeps
	// partitions balanced on skewed embeddings.
	minStart uint64
	maxEnd   uint64
	// paper makes appends write the paper's fixed-width pages instead of
	// packed ones. Existing pages are never rewritten — each carries its own
	// format tag — so the flag only decides what the tail onward looks like.
	paper bool
	// ordered is whether the records are in document order (see DocLess),
	// kept by Append at one comparison a record against last, the code of
	// the last record — when lastKnown: an attached relation's is not known
	// until an appender reads its tail page, and an append that cannot
	// compare clears the bit rather than guess.
	ordered   bool
	last      pbicode.Code
	lastKnown bool
	// trusted is set when the ordered bit came from Attach's caller rather
	// than from appends that checked it (OrderTrusted).
	trusted bool
	// borrowed relations read another relation's pages without owning
	// them (Borrow): Free forgets the pages instead of discarding them.
	borrowed bool
}

// DocLess reports whether code x precedes code y in document order: region
// Start ascending and, on a shared Start, the longer region — the
// ancestor — first. It is the order of extsort.ByStartEndDesc, the input
// order of the merge joins.
func DocLess(x, y pbicode.Code) bool {
	// x&(x-1) clears x's lowest set bit: Start-1. Of two regions that
	// start together the longer has the larger code.
	if sx, sy := x&(x-1), y&(y-1); sx != sy {
		return sx < sy
	}
	return x > y
}

// Ordered reports whether the relation's records are in document order:
// no record precedes the one stored before it by DocLess. The claim is
// exact for every relation written by appends since New — Append checks
// each record — and is taken on trust from the caller of Attach. A
// relation that writes the paper's layout never claims it: the paper's
// inputs arrive unsorted, and its experiments pay the sort.
func (r *Relation) Ordered() bool { return r.ordered && !r.paper }

// OrderTrusted reports whether the relation claims document order
// (Ordered) on the word of Attach's caller, not because its appends
// checked it. A merge over such a relation checks the order as it reads
// and reads to the end an input whose unread tail could hide a false
// claim; a claim its appends made needs neither.
func (r *Relation) OrderTrusted() bool { return r.Ordered() && r.trusted }

// SetPaperLayout makes subsequent appends write the paper's layout, 16-byte
// records at 255 per 4 KiB page, instead of packed pages. Existing pages
// keep their format; scans read every format transparently.
func (r *Relation) SetPaperLayout(on bool) { r.paper = on }

// PaperLayout reports whether the relation appends the paper's fixed-width
// pages.
func (r *Relation) PaperLayout() bool { return r.paper }

// Span returns the smallest region covering every record appended so far
// and whether the relation has any records. The bounds are maintained
// incrementally on append and start over after Free.
func (r *Relation) Span() (pbicode.Region, bool) {
	if r.count == 0 {
		return pbicode.Region{}, false
	}
	return pbicode.Region{Start: r.minStart, End: r.maxEnd}, true
}

// New returns an empty relation using pool for all its I/O.
func New(pool *buffer.Pool, name string) *Relation {
	return &Relation{name: name, pool: pool, perPage: PerPage(pool.PageSize()), ordered: true}
}

// Borrow returns a relation named name over r's pages, which it reads
// without owning them: its Free forgets the pages instead of discarding
// them, so r stays readable. It is how a sort of a relation already in
// document order returns its input. It must not be appended to.
func (r *Relation) Borrow(name string) *Relation {
	b := *r
	b.name, b.pages, b.borrowed = name, r.pages[:len(r.pages):len(r.pages)], true
	return &b
}

// NewLike returns an empty relation on pool that writes the page layout src
// writes: the partitions, sort runs and rolled-up copies of a join inherit
// their input's.
func NewLike(src *Relation, pool *buffer.Pool, name string) *Relation {
	r := New(pool, name)
	r.paper = src.paper
	return r
}

// Name returns the relation's diagnostic name.
func (r *Relation) Name() string { return r.name }

// Rename changes the relation's name (catalog identity).
func (r *Relation) Rename(name string) { r.name = name }

// NumRecords returns the number of records |R|.
func (r *Relation) NumRecords() int64 { return r.count }

// NumPages returns the number of pages ‖R‖.
func (r *Relation) NumPages() int64 { return int64(len(r.pages)) }

// Pool returns the buffer pool the relation performs I/O through.
func (r *Relation) Pool() *buffer.Pool { return r.pool }

// Free drops the relation's pages from the buffer pool without write-back:
// the relation is deleted, so dirty resident pages are dead data. The disk
// space itself is not reclaimed (temporary files are cheap; benchmark runs
// use a fresh disk). A borrowed relation only forgets the pages, which
// remain its lender's. Either way the relation is empty afterwards, and
// ordered like a new one.
func (r *Relation) Free() error {
	if !r.borrowed {
		for _, id := range r.pages {
			if err := r.pool.Discard(id); err != nil {
				return err
			}
		}
	}
	r.pages = nil
	r.count = 0
	r.ordered, r.trusted = true, false
	return nil
}

// pageSlab is one decoded page: the records' codes and aux words as two
// columns carved from a single buffer. The buffer comes from the free list
// of the buffer pool the scan reads through (Pool.TakeSlab) and goes back
// there when the scan is exhausted or closed, so the thousands of short
// scans a join opens — one per partition, one per merge run — share a
// handful of buffers instead of allocating one each. Every buffer holds the
// densest page the pool's page size allows, so one fits any page of any
// format. Both scanners decode through it.
type pageSlab struct {
	buf    []uint64 // backs both columns; nil while no buffer is held
	codes  []uint64 // the current page's codes, one per record
	aux    []uint64 // the aux words, index-aligned with codes
	format int      // the current page's format tag
}

// takeSlab returns a buffer for the two columns of any page of pool.
func takeSlab(pool *buffer.Pool) []uint64 {
	return pool.TakeSlab(2 * MaxPageRecs(pool.PageSize()))
}

// load fetches page pageIdx of r, decodes every record into the columns
// and unpins before returning. All page formats decode into the same
// columns.
func (ps *pageSlab) load(r *Relation, pageIdx int) error {
	ps.codes, ps.aux = nil, nil // a failed load leaves no stale records behind
	f, err := r.pool.Fetch(r.pages[pageIdx])
	if err != nil {
		return err
	}
	defer r.pool.Unpin(f, false)
	n, format, err := pageRecords(f.Data)
	if err != nil {
		return fmt.Errorf("page %d: %w", r.pages[pageIdx], err)
	}
	if ps.buf == nil {
		ps.buf = takeSlab(r.pool)
	}
	half := len(ps.buf) / 2
	codes, aux := ps.buf[:n], ps.buf[half:half+n]
	if err := decodePage(f.Data, format, codes, aux); err != nil {
		return fmt.Errorf("page %d: %w", r.pages[pageIdx], err)
	}
	ps.codes, ps.aux, ps.format = codes, aux, format
	return nil
}

// release empties the columns and gives the buffer back to pool.
func (ps *pageSlab) release(pool *buffer.Pool) {
	if ps.buf != nil {
		pool.GiveSlab(ps.buf)
	}
	*ps = pageSlab{}
}

// Appender adds records at a relation's tail. Exactly one Appender may be
// active per relation, and the relation must not be scanned until it is
// closed. Packed pages — the default — are buffered as two columns in a
// pool slab and encoded when the page is full, which a packedSizer knows
// exactly without encoding anything; the paper's layout is written in place
// into a pinned tail frame, the textbook one output frame per stream.
type Appender struct {
	r      *Relation
	active bool
	n      int // records in the open page
	// Paper layout: the pinned tail page.
	frame buffer.Frame
	// Packed layout: the open page's columns (codes in the first half of
	// buf, aux in the second), the size they will encode to, whether the
	// open page is the relation's existing tail being extended rather than
	// a new page, and whether it has gained a record since it was opened.
	buf     []uint64
	room    int // payload bytes of a page
	size    packedSizer
	resumed bool
	dirty   bool
}

// NewAppender returns an appender positioned at the relation's tail: a
// partially filled last page of the layout being written is resumed,
// otherwise a fresh page is started on the first Append.
func (r *Relation) NewAppender() *Appender { return &Appender{r: r} }

// Append adds one record.
func (a *Appender) Append(rec Rec) error {
	if !a.active {
		if err := a.open(); err != nil {
			return fmt.Errorf("relation %s: append: %w", a.r.name, err)
		}
	}
	if a.r.paper {
		putRec(a.frame.Data, a.n, rec)
		a.n++
		setPageCount(a.frame.Data, a.n)
		if a.n == a.r.perPage {
			a.r.pool.Unpin(a.frame, true)
			a.active = false
		}
	} else {
		half := len(a.buf) / 2
		var dc, da int64
		if a.n > 0 {
			dc, da = int64(uint64(rec.Code)-a.buf[a.n-1]), int64(rec.Aux-a.buf[half+a.n-1])
		}
		if a.n == half || !a.size.add(dc, da, a.room) {
			if err := a.flush(); err != nil {
				return fmt.Errorf("relation %s: append: %w", a.r.name, err)
			}
			a.size.add(0, 0, a.room) // rec is the next page's base record
		}
		a.buf[a.n], a.buf[half+a.n] = uint64(rec.Code), rec.Aux
		a.n++
		a.dirty = true
	}
	if a.r.ordered && a.r.count > 0 && (!a.r.lastKnown || DocLess(rec.Code, a.r.last)) {
		a.r.ordered = false
	}
	a.r.last, a.r.lastKnown = rec.Code, true
	if s := rec.Code.Start(); a.r.count == 0 || s < a.r.minStart {
		a.r.minStart = s
	}
	if e := rec.Code.End(); a.r.count == 0 || e > a.r.maxEnd {
		a.r.maxEnd = e
	}
	a.r.count++
	return nil
}

// open positions the appender on the page the next record goes to: the
// relation's partial tail page when it has the layout being written, a new
// page otherwise (a tail of another layout is left as it is). A paper-layout
// page is pinned, and allocated here if new; a packed tail is decoded back
// into the columns and its size replayed, and a new packed page exists only
// once flush writes it.
func (a *Appender) open() error {
	if a.r.borrowed {
		return fmt.Errorf("borrowed relation is read-only")
	}
	last := len(a.r.pages) - 1
	if a.r.paper {
		if last >= 0 {
			f, err := a.r.pool.Fetch(a.r.pages[last])
			if err != nil {
				return err
			}
			if c := pageCount(f.Data); pageFormat(f.Data) == pageFixed && c < a.r.perPage {
				a.frame, a.n, a.active = f, c, true
				return nil
			}
			a.r.pool.Unpin(f, false)
		}
		f, err := a.r.pool.NewPage()
		if err != nil {
			return err
		}
		a.frame, a.n, a.active = f, 0, true
		a.r.pages = append(a.r.pages, f.ID)
		return nil
	}
	a.buf = takeSlab(a.r.pool)[:2*MaxPageRecs(a.r.pool.PageSize())]
	a.room = a.r.pool.PageSize() - pageHeader
	a.n, a.size, a.resumed, a.dirty, a.active = 0, packedSizer{}, false, false, true
	if last < 0 {
		return nil
	}
	tail := pageSlab{buf: a.buf}
	if err := tail.load(a.r, last); err != nil {
		return err
	}
	if n := len(tail.codes); n > 0 {
		a.r.last, a.r.lastKnown = pbicode.Code(tail.codes[n-1]), true
	}
	if tail.format != pagePacked {
		return nil
	}
	for i, c := range tail.codes {
		var dc, da int64
		if i > 0 {
			dc, da = int64(c-tail.codes[i-1]), int64(tail.aux[i]-tail.aux[i-1])
		}
		if !a.size.add(dc, da, a.room) {
			return fmt.Errorf("page %d: packed records exceed their page", a.r.pages[last])
		}
	}
	a.n, a.resumed = len(tail.codes), len(tail.codes) > 0
	return nil
}

// flush encodes the open packed page's records into their page — a new one,
// or the resumed tail — and leaves the columns empty for the next page. A
// resumed tail that gained nothing is left alone.
func (a *Appender) flush() error {
	if a.n > 0 && a.dirty {
		var f buffer.Frame
		var err error
		if a.resumed {
			f, err = a.r.pool.Fetch(a.r.pages[len(a.r.pages)-1])
		} else if f, err = a.r.pool.NewPage(); err == nil {
			a.r.pages = append(a.r.pages, f.ID)
		}
		if err != nil {
			return err
		}
		half := len(a.buf) / 2
		encodePacked(f.Data, a.buf[:a.n], a.buf[half:half+a.n])
		a.r.pool.Unpin(f, true)
	}
	a.n, a.size, a.resumed, a.dirty = 0, packedSizer{}, false, false
	return nil
}

// Close writes out the partial tail page, if any. The appender must not be
// used afterwards.
func (a *Appender) Close() error {
	if !a.active {
		return nil
	}
	a.active = false
	if a.r.paper {
		a.r.pool.Unpin(a.frame, true)
		return nil
	}
	err := a.flush()
	a.r.pool.GiveSlab(a.buf)
	a.buf = nil
	if err != nil {
		return fmt.Errorf("relation %s: append: %w", a.r.name, err)
	}
	return nil
}

// Append is a convenience for bulk-loading a relation from a slice.
func (r *Relation) Append(recs ...Rec) error {
	a := r.NewAppender()
	for _, rec := range recs {
		if err := a.Append(rec); err != nil {
			a.Close()
			return err
		}
	}
	return a.Close()
}

// Pages returns the relation's page list, in storage order (catalog
// persistence).
func (r *Relation) Pages() []storage.PageID {
	return append([]storage.PageID(nil), r.pages...)
}

// Attach reconstructs a relation from a persisted catalog entry: the page
// list plus the cached statistics, ordered among them — which the relation
// then claims on the caller's word, so a caller must have checked it. The
// pages must exist on the pool's disk and hold valid heap pages. The
// relation takes pages over; the caller must not modify the slice
// afterwards.
func Attach(pool *buffer.Pool, name string, pages []storage.PageID, count int64, span pbicode.Region, ordered bool) *Relation {
	return &Relation{
		name:     name,
		pool:     pool,
		pages:    pages,
		count:    count,
		perPage:  PerPage(pool.PageSize()),
		minStart: span.Start,
		maxEnd:   span.End,
		ordered:  ordered || count == 0,
		trusted:  ordered && count > 0,
	}
}

// FirstRecord reads the first record of page i without decoding the rest
// of the page: every format stores it whole (fixed pages all their
// records, packed pages their base record, varint pages a delta from
// zero). An empty page's is the zero Rec.
func (r *Relation) FirstRecord(i int) (Rec, error) {
	f, err := r.pool.Fetch(r.pages[i])
	if err != nil {
		return Rec{}, err
	}
	defer r.pool.Unpin(f, false)
	var code, aux [1]uint64
	n, format, err := pageRecords(f.Data)
	switch {
	case err != nil || n == 0:
	case format == pageVarint:
		err = decodeVarint(f.Data[pageHeader:pageHeader+pageUsed(f.Data)], code[:], aux[:])
	default:
		code[0] = binary.LittleEndian.Uint64(f.Data[pageHeader:])
		aux[0] = binary.LittleEndian.Uint64(f.Data[pageHeader+8:])
	}
	if err != nil {
		return Rec{}, fmt.Errorf("relation %s: page %d: %w", r.name, r.pages[i], err)
	}
	return Rec{Code: pbicode.Code(code[0]), Aux: aux[0]}, nil
}

// SharedPrefix reports how much of r a relation bulk-loaded from codes
// (Aux = ordinal, as FromCodes writes it) could share by page ID instead of
// rewriting: the number of r's leading pages whose every record equals the
// record codes would put at the same ordinal, and the records they hold.
// The tail page is never counted — it may be partial, and a page that could
// still be appended to cannot be shared between two relations — so every
// counted page is closed and safe to Attach as is. The walk goes page by
// page on each page's own record count, whatever its format, and stops
// reading at the first page that differs. It decodes every page it shares:
// the loaders share by what changed instead (containment's LoadOver), and
// tests hold them to this reference.
func (r *Relation) SharedPrefix(codes []pbicode.Code) (pages int, recs int, err error) {
	var ps pageSlab
	defer ps.release(r.pool)
	for pages < len(r.pages)-1 {
		if err := ps.load(r, pages); err != nil {
			return 0, 0, fmt.Errorf("relation %s: shared prefix: %w", r.name, err)
		}
		if recs+len(ps.codes) > len(codes) {
			break
		}
		for i, c := range ps.codes {
			if c != uint64(codes[recs+i]) || ps.aux[i] != uint64(recs+i) {
				return pages, recs, nil
			}
		}
		pages++
		recs += len(ps.codes)
	}
	return pages, recs, nil
}

// FromCodes bulk-loads codes into a new relation, Aux = ordinal.
func FromCodes(pool *buffer.Pool, name string, codes []pbicode.Code) (*Relation, error) {
	r := New(pool, name)
	a := r.NewAppender()
	for i, c := range codes {
		if err := a.Append(Rec{Code: c, Aux: uint64(i)}); err != nil {
			a.Close()
			return nil, err
		}
	}
	if err := a.Close(); err != nil {
		return nil, err
	}
	return r, nil
}

// Scanner iterates a relation's records in storage order. On entering a
// page it decodes the whole page into a reused column buffer (pageSlab) and
// unpins immediately, so Next is a bounds check and two slice reads — no
// per-record pool traffic, no pin held between calls. The buffer snapshots
// the page as of the fetch; relations are append-only and never scanned
// while the same page is being appended to, so the snapshot is exact.
type Scanner struct {
	r       *Relation
	pageIdx int
	recIdx  int
	page    pageSlab
	loaded  bool
	rec     Rec
	err     error
}

// Scan returns a scanner positioned before the first record.
func (r *Relation) Scan() *Scanner { return &Scanner{r: r} }

// Pos identifies a record position within a relation, as reported by
// Scanner.Pos. The zero Pos is the start of the relation.
type Pos struct {
	page int
	slot int
}

// Pos returns the position of the next record Next would return. Calling
// it before any Next yields the start position; after Next returned a
// record, Pos is the position immediately after that record.
func (s *Scanner) Pos() Pos { return Pos{page: s.pageIdx, slot: s.recIdx} }

// Next advances to the next record, reporting false at the end or on
// error. The fast path is a bounds compare and two slice reads against the
// current page's decoded columns.
func (s *Scanner) Next() bool {
	if i := s.recIdx; i < len(s.page.codes) {
		s.rec = Rec{Code: pbicode.Code(s.page.codes[i]), Aux: s.page.aux[i]}
		s.recIdx = i + 1
		return true
	}
	return s.advance()
}

// advance loads pages until one yields a record at the scan position, the
// end of the relation is reached, or an error occurs. At the end the
// decode buffer goes back to the pool: an exhausted scanner holds no
// memory, whether or not its owner remembers to Close it.
func (s *Scanner) advance() bool {
	if s.err != nil {
		return false
	}
	for {
		if s.loaded {
			s.loaded = false
			s.pageIdx++
			s.recIdx = 0
		}
		if s.pageIdx >= len(s.r.pages) {
			s.page.release(s.r.pool)
			return false
		}
		if err := s.page.load(s.r, s.pageIdx); err != nil {
			s.err = fmt.Errorf("relation %s: scan: %w", s.r.name, err)
			return false
		}
		s.loaded = true
		if s.recIdx < len(s.page.codes) {
			s.rec = Rec{Code: pbicode.Code(s.page.codes[s.recIdx]), Aux: s.page.aux[s.recIdx]}
			s.recIdx++
			return true
		}
	}
}

// Reset repositions the scanner at the start of r, keeping the decode
// buffer. Join inner loops that rescan a relation per block use it to
// avoid allocating a fresh Scanner per pass.
func (s *Scanner) Reset(r *Relation) { s.ResetFrom(r, Pos{}) }

// ResetFrom repositions the scanner at position p of r, so that the next
// Next returns the record at p (or the following ones if p's page has been
// exhausted), keeping the decode buffer. Positions must come from a Scanner
// over the same relation. Merge joins that re-read descendant segments
// (MPMGJN) reposition one scanner per ancestor; when p lies on the page the
// scanner already holds decoded, only the cursor moves — no fetch, no
// decode.
func (s *Scanner) ResetFrom(r *Relation, p Pos) {
	if s.loaded && s.r == r && s.pageIdx == p.page {
		s.recIdx = p.slot
		return
	}
	*s = Scanner{r: r, pageIdx: p.page, recIdx: p.slot, page: pageSlab{buf: s.page.buf}}
}

// Rec returns the current record. Valid after a true Next.
func (s *Scanner) Rec() Rec { return s.rec }

// Err returns the first error encountered, if any.
func (s *Scanner) Err() error { return s.err }

// Close ends the scan, giving the decode buffer back to the pool. The
// scanner holds no pin between Next calls, so an unclosed scanner leaks
// nothing; closing one that was abandoned early just lets the next scan
// reuse its buffer.
func (s *Scanner) Close() {
	s.loaded = false
	if s.r != nil {
		s.page.release(s.r.pool)
	}
}

// LayoutInfo summarizes a relation's on-page layout: how many pages use
// each format and how the stored footprint compares to the fixed-width
// layout of the same records (pbistat -layout).
type LayoutInfo struct {
	Pages       int64 // total pages
	FixedPages  int64 // the paper's fixed-width pages
	VarintPages int64 // legacy varint-delta pages
	PackedPages int64 // packed pages
	Records     int64 // records counted from page headers
	// PayloadBytes is the record payload actually stored: count*16 on
	// fixed pages, the encoded byte count on the others.
	PayloadBytes int64
	// FixedEquivPages is how many pages the same records would occupy in
	// the fixed-width layout — the denominator of the scan-page savings.
	FixedEquivPages int64
}

// Layout reads the relation's page headers and returns the layout summary.
// It fetches every page through the pool, so it costs a full scan's I/O.
func (r *Relation) Layout() (LayoutInfo, error) {
	var li LayoutInfo
	li.Pages = int64(len(r.pages))
	for _, id := range r.pages {
		f, err := r.pool.Fetch(id)
		if err != nil {
			return li, fmt.Errorf("relation %s: layout: %w", r.name, err)
		}
		n, format, err := pageRecords(f.Data)
		used := int64(pageUsed(f.Data))
		r.pool.Unpin(f, false)
		if err != nil {
			return li, fmt.Errorf("relation %s: layout: page %d: %w", r.name, id, err)
		}
		switch format {
		case pageFixed:
			li.FixedPages++
			used = int64(n * RecSize)
		case pageVarint:
			li.VarintPages++
		default:
			li.PackedPages++
		}
		li.PayloadBytes += used
		li.Records += int64(n)
	}
	if r.perPage > 0 {
		li.FixedEquivPages = (li.Records + int64(r.perPage) - 1) / int64(r.perPage)
	}
	return li, nil
}

// ReadAll materializes the whole relation as a slice (test and in-memory
// join helper). The caller is responsible for it fitting in memory.
func (r *Relation) ReadAll() ([]Rec, error) {
	out := make([]Rec, 0, r.count)
	s := r.Scan()
	defer s.Close()
	for s.Next() {
		out = append(out, s.Rec())
	}
	return out, s.Err()
}
