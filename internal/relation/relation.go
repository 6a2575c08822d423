// Package relation implements heap files of fixed-width element records over
// the buffer pool: the unsorted input sets A and D of a containment join,
// the partition files produced by the partitioning algorithms, and the
// sorted runs of the external sort all live in relations.
//
// A record is 16 bytes: the element's PBiTree code plus an auxiliary word
// (the element's ordinal in its document, or — in rolled-up relations — the
// element's original code before rollup). A 4 KiB page holds 255 records,
// so the paper's 1 M-element sets occupy ~3900 pages against the 500-page
// buffer pool of the experiments.
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

// RecSize is the on-page size of a record in bytes (fixed-width pages).
const RecSize = 16

// pageHeader is the per-page header: bytes [0:2] hold the record count,
// byte [2] the page format tag, and bytes [4:6] the used payload size of
// compressed pages. Legacy pages wrote zeros beyond the count, which is
// why pageFixed must stay 0: every page written before compression landed
// reads back as fixed-width without rewriting.
const pageHeader = 8

// Page format tags, stored in the header's format byte. The format is
// per-page, not per-relation, so fixed and compressed pages coexist in one
// relation (and one database) freely.
const (
	pageFixed      = 0 // fixed-width 16-byte records
	pageCompressed = 1 // zigzag-varint delta-encoded records
)

const (
	// maxCompRec bounds one delta-encoded record: two zigzag varints of up
	// to 10 bytes each. A compressed page accepts appends while this much
	// room remains, so no record ever splits across pages.
	maxCompRec = 2 * binary.MaxVarintLen64
	// maxPageRecs caps records per page at what the uint16 count holds.
	// Only reachable on compressed pages (2-byte deltas on a 1 MiB page).
	maxPageRecs = 1<<16 - 1
)

// zigzag folds a signed delta into an unsigned varint-friendly form; small
// magnitudes of either sign encode short.
func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// PerPage returns the number of records that fit a page of the given size.
func PerPage(pageSize int) int { return (pageSize - pageHeader) / RecSize }

// PageFormatName classifies a raw page image by its header format byte:
// "fixed", "compressed", or "" for a byte no known layout uses. Offline
// tools (pbifsck) use it to tally formats without a Relation handle.
func PageFormatName(p []byte) string {
	if len(p) < pageHeader {
		return ""
	}
	switch p[2] {
	case pageFixed:
		return "fixed"
	case pageCompressed:
		return "compressed"
	default:
		return ""
	}
}

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
	// compress selects the page format for future appends: delta-encoded
	// varint pages when set, fixed-width 16-byte records otherwise. The
	// flag never rewrites existing pages — each page carries its own
	// format tag — so flipping it mid-life just changes the tail onward.
	compress bool
}

// SetCompress selects the page format for subsequent appends: compressed
// (delta-encoded sorted codes) when on, fixed-width otherwise. Existing
// pages keep their format; scans handle both transparently.
func (r *Relation) SetCompress(on bool) { r.compress = on }

// Compressed reports whether the relation appends compressed pages.
// Partitioning and external sort propagate the flag from their inputs to
// the temporary relations they create.
func (r *Relation) Compressed() bool { return r.compress }

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
	return &Relation{name: name, pool: pool, perPage: PerPage(pool.PageSize())}
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
// use a fresh disk).
func (r *Relation) Free() error {
	for _, id := range r.pages {
		if err := r.pool.Discard(id); err != nil {
			return err
		}
	}
	r.pages = nil
	r.count = 0
	return nil
}

func putRec(p []byte, i int, rec Rec) {
	off := pageHeader + i*RecSize
	binary.LittleEndian.PutUint64(p[off:], uint64(rec.Code))
	binary.LittleEndian.PutUint64(p[off+8:], rec.Aux)
}

func pageCount(p []byte) int       { return int(binary.LittleEndian.Uint16(p)) }
func setPageCount(p []byte, n int) { binary.LittleEndian.PutUint16(p, uint16(n)) }

func pageFormat(p []byte) int       { return int(p[2]) }
func setPageFormat(p []byte, f int) { p[2] = byte(f) }

// pageUsed is the payload byte count of a compressed page (bytes beyond
// the header holding encoded records). Meaningless on fixed pages.
func pageUsed(p []byte) int       { return int(binary.LittleEndian.Uint16(p[4:])) }
func setPageUsed(p []byte, n int) { binary.LittleEndian.PutUint16(p[4:], uint16(n)) }

// pageSlab is one decoded page: the records' codes and aux words as two
// columns carved from a single buffer. The buffer comes from the free list
// of the buffer pool the scan reads through (Pool.TakeSlab) and goes back
// there when the scan is exhausted or closed, so the thousands of short
// scans a join opens — one per partition, one per merge run — share a
// handful of buffers instead of allocating a page-sized one each. Both
// scanners decode through it.
type pageSlab struct {
	buf   []uint64 // backs both columns; nil while no buffer is held
	codes []uint64 // the current page's codes, one per record
	aux   []uint64 // the aux words, index-aligned with codes
}

// load fetches page pageIdx of r, decodes every record into the columns
// and unpins before returning. Both page formats decode into the same
// columns; a compressed page can carry more records than perPage, so the
// buffer is exchanged for a larger one when needed.
func (ps *pageSlab) load(r *Relation, pageIdx int) error {
	ps.codes, ps.aux = nil, nil // a failed load leaves no stale records behind
	f, err := r.pool.Fetch(r.pages[pageIdx])
	if err != nil {
		return err
	}
	defer r.pool.Unpin(f, false)
	p := f.Data
	n := pageCount(p)
	format := pageFormat(p)
	switch format {
	case pageFixed:
		if n > r.perPage {
			n = r.perPage
		}
	case pageCompressed:
	default:
		return fmt.Errorf("page %d: unknown page format %d", r.pages[pageIdx], format)
	}
	if len(ps.buf) < 2*n {
		want := r.perPage
		if want < n {
			want = n
		}
		ps.buf = r.pool.TakeSlab(2 * want)
	}
	half := len(ps.buf) / 2
	codes, aux := ps.buf[:n], ps.buf[half:half+n]
	if format == pageFixed {
		for i := range codes {
			off := pageHeader + i*RecSize
			codes[i] = binary.LittleEndian.Uint64(p[off:])
			aux[i] = binary.LittleEndian.Uint64(p[off+8:])
		}
	} else if err := decodeCompressed(p, codes, aux); err != nil {
		return err
	}
	ps.codes, ps.aux = codes, aux
	return nil
}

// release empties the columns and gives the buffer back to pool.
func (ps *pageSlab) release(pool *buffer.Pool) {
	if ps.buf != nil {
		pool.GiveSlab(ps.buf)
	}
	*ps = pageSlab{}
}

// decodeCompressed decodes a compressed page's records into the two
// columns, which must each hold pageCount(p) entries. Deltas are
// accumulated with wrapping arithmetic, so any uint64 sequence — sorted or
// adversarial — round-trips exactly (the encoder used the matching
// wrapping subtraction).
func decodeCompressed(p []byte, codes, aux []uint64) error {
	n := len(codes)
	used := pageUsed(p)
	if pageHeader+used > len(p) {
		return fmt.Errorf("compressed page claims %d payload bytes of %d", used, len(p)-pageHeader)
	}
	data := p[pageHeader : pageHeader+used]
	off := 0
	var code, ax uint64
	for i := 0; i < n; i++ {
		u, k := binary.Uvarint(data[off:])
		if k <= 0 {
			return fmt.Errorf("compressed page truncated at record %d/%d", i, n)
		}
		code += uint64(unzigzag(u))
		off += k
		u, k = binary.Uvarint(data[off:])
		if k <= 0 {
			return fmt.Errorf("compressed page truncated at record %d/%d", i, n)
		}
		ax += uint64(unzigzag(u))
		off += k
		codes[i] = code
		aux[i] = ax
	}
	return nil
}

// Appender buffers appends into a pinned tail page, the textbook model of
// one output frame per stream. Close flushes and unpins the tail; exactly
// one Appender may be active per relation.
type Appender struct {
	r      *Relation
	frame  buffer.Frame
	n      int // records in the pinned page
	active bool
	// Compressed-page write state: absolute write offset into the page and
	// the running previous code/aux the next deltas are taken against.
	off      int
	prevCode uint64
	prevAux  uint64
}

// NewAppender returns an appender positioned at the relation's tail: a
// partially filled last page is resumed, otherwise a fresh page is
// allocated on the first Append.
func (r *Relation) NewAppender() *Appender { return &Appender{r: r} }

// Append adds one record.
func (a *Appender) Append(rec Rec) error {
	if !a.active {
		if err := a.open(); err != nil {
			return fmt.Errorf("relation %s: append: %w", a.r.name, err)
		}
	}
	if a.r.compress {
		// Wrapping deltas: exact for arbitrary uint64 sequences, shortest
		// for the sorted-code relations joins actually produce.
		var tmp [maxCompRec]byte
		k := binary.PutUvarint(tmp[:], zigzag(int64(uint64(rec.Code)-a.prevCode)))
		k += binary.PutUvarint(tmp[k:], zigzag(int64(rec.Aux-a.prevAux)))
		copy(a.frame.Data[a.off:], tmp[:k])
		a.off += k
		a.prevCode, a.prevAux = uint64(rec.Code), rec.Aux
		a.n++
		setPageCount(a.frame.Data, a.n)
		setPageUsed(a.frame.Data, a.off-pageHeader)
		if a.off+maxCompRec > len(a.frame.Data) || a.n == maxPageRecs {
			a.r.pool.Unpin(a.frame, true)
			a.active = false
		}
	} else {
		putRec(a.frame.Data, a.n, rec)
		a.n++
		setPageCount(a.frame.Data, a.n)
		if a.n == a.r.perPage {
			a.r.pool.Unpin(a.frame, true)
			a.active = false
		}
	}
	if s := rec.Code.Start(); a.r.count == 0 || s < a.r.minStart {
		a.r.minStart = s
	}
	if e := rec.Code.End(); a.r.count == 0 || e > a.r.maxEnd {
		a.r.maxEnd = e
	}
	a.r.count++
	return nil
}

// open pins the page the next record goes to: the partial tail page when
// one exists and matches the append format, a freshly allocated page
// otherwise. A compressed tail is resumed by re-walking its deltas to
// recover the running previous values; a format-mismatched tail (the
// relation's compress flag flipped mid-life) is left as-is and a fresh
// page started.
func (a *Appender) open() error {
	if n := len(a.r.pages); n > 0 {
		f, err := a.r.pool.Fetch(a.r.pages[n-1])
		if err != nil {
			return err
		}
		if a.r.compress {
			if pageFormat(f.Data) == pageCompressed {
				c := pageCount(f.Data)
				off := pageHeader + pageUsed(f.Data)
				if off+maxCompRec <= len(f.Data) && c < maxPageRecs {
					prevC, prevA, err := walkCompressed(f.Data, c)
					if err != nil {
						a.r.pool.Unpin(f, false)
						return err
					}
					a.frame, a.n, a.active = f, c, true
					a.off, a.prevCode, a.prevAux = off, prevC, prevA
					return nil
				}
			}
		} else if pageFormat(f.Data) == pageFixed {
			if c := pageCount(f.Data); c < a.r.perPage {
				a.frame, a.n, a.active = f, c, true
				return nil
			}
		}
		a.r.pool.Unpin(f, false)
	}
	f, err := a.r.pool.NewPage()
	if err != nil {
		return err
	}
	a.frame, a.n, a.active = f, 0, true
	a.r.pages = append(a.r.pages, f.ID)
	if a.r.compress {
		setPageFormat(f.Data, pageCompressed)
		a.off, a.prevCode, a.prevAux = pageHeader, 0, 0
	}
	return nil
}

// walkCompressed replays a compressed page's deltas and returns the last
// record's code and aux — the values the next appended delta is relative
// to.
func walkCompressed(p []byte, n int) (code, aux uint64, err error) {
	used := pageUsed(p)
	if pageHeader+used > len(p) {
		return 0, 0, fmt.Errorf("compressed page claims %d payload bytes of %d", used, len(p)-pageHeader)
	}
	data := p[pageHeader : pageHeader+used]
	off := 0
	for i := 0; i < n; i++ {
		u, k := binary.Uvarint(data[off:])
		if k <= 0 {
			return 0, 0, fmt.Errorf("compressed page truncated at record %d/%d", i, n)
		}
		code += uint64(unzigzag(u))
		off += k
		u, k = binary.Uvarint(data[off:])
		if k <= 0 {
			return 0, 0, fmt.Errorf("compressed page truncated at record %d/%d", i, n)
		}
		aux += uint64(unzigzag(u))
		off += k
	}
	return code, aux, nil
}

// Close unpins the partial tail page, if any. The appender must not be used
// afterwards.
func (a *Appender) Close() error {
	if a.active {
		a.r.pool.Unpin(a.frame, true)
		a.active = false
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
// list plus the cached statistics. The pages must exist on the pool's disk
// and hold valid heap pages.
func Attach(pool *buffer.Pool, name string, pages []storage.PageID, count int64, span pbicode.Region) *Relation {
	return &Relation{
		name:     name,
		pool:     pool,
		pages:    append([]storage.PageID(nil), pages...),
		count:    count,
		perPage:  PerPage(pool.PageSize()),
		minStart: span.Start,
		maxEnd:   span.End,
	}
}

// SharedPrefix reports how much of r a relation bulk-loaded from codes
// (Aux = ordinal, as FromCodes writes it) could share by page ID instead of
// rewriting: the number of r's leading pages whose every record equals the
// record codes would put at the same ordinal, and the records they hold.
// The tail page is never counted — it may be partial, and a page that could
// still be appended to cannot be shared between two relations — so every
// counted page is closed and safe to Attach as is. The walk goes page by
// page on each page's own record count, whatever its format, and stops
// reading at the first page that differs.
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

// WithPool returns a read view of the relation bound to another buffer
// pool: a shallow copy sharing the page list and statistics but performing
// its I/O through pool. Parallel workers use it to scan a shared input
// through their private pools; the view must not be appended to or freed
// while the original is live (the page list is shared).
func (r *Relation) WithPool(pool *buffer.Pool) *Relation {
	v := *r
	v.pool = pool
	return &v
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
	endPage int // exclusive page bound; scanEnd sentinel = live tail
	page    pageSlab
	loaded  bool
	rec     Rec
	err     error
}

// scanEnd marks a scanner bounded by the relation's live page count rather
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

// Scan returns a scanner positioned before the first record.
func (r *Relation) Scan() *Scanner { return &Scanner{r: r, endPage: scanEnd} }

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
// end of the range is reached, or an error occurs. At the end of the range
// the decode buffer goes back to the pool: an exhausted scanner holds no
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
		end := s.endPage
		if end == scanEnd {
			end = len(s.r.pages)
		}
		if s.pageIdx >= end {
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
// (MPMGJN) reposition one scanner per ancestor.
func (s *Scanner) ResetFrom(r *Relation, p Pos) {
	*s = Scanner{r: r, pageIdx: p.page, recIdx: p.slot, endPage: scanEnd, page: pageSlab{buf: s.page.buf}}
}

// ResetPages repositions the scanner over the half-open page range
// [lo, hi) of r, in storage order, keeping the decode buffer; hi is clamped
// to the current page count. Parallel sort-run generation uses it to hand
// each worker a disjoint chunk of the input.
func (s *Scanner) ResetPages(r *Relation, lo, hi int) {
	lo, hi = r.clampPages(lo, hi)
	*s = Scanner{r: r, pageIdx: lo, endPage: hi, page: pageSlab{buf: s.page.buf}}
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
// each format and how the compressed footprint compares to the fixed-width
// layout of the same records (pbistat -layout).
type LayoutInfo struct {
	Pages           int64 // total pages
	FixedPages      int64 // fixed-width pages
	CompressedPages int64 // delta-compressed pages
	Records         int64 // records counted from page headers
	// PayloadBytes is the record payload actually stored: count*16 on
	// fixed pages, the encoded byte count on compressed pages.
	PayloadBytes int64
	// FixedEquivPages is how many pages the same records would occupy in
	// the fixed-width layout — the denominator of the scan-page savings.
	FixedEquivPages int64
}

// Layout scans the relation's page headers and returns the layout summary.
// It fetches every page through the pool, so it costs a full scan's I/O.
func (r *Relation) Layout() (LayoutInfo, error) {
	var li LayoutInfo
	li.Pages = int64(len(r.pages))
	for _, id := range r.pages {
		f, err := r.pool.Fetch(id)
		if err != nil {
			return li, fmt.Errorf("relation %s: layout: %w", r.name, err)
		}
		n := pageCount(f.Data)
		switch pageFormat(f.Data) {
		case pageCompressed:
			li.CompressedPages++
			li.PayloadBytes += int64(pageUsed(f.Data))
		default:
			li.FixedPages++
			if n > r.perPage {
				n = r.perPage
			}
			li.PayloadBytes += int64(n * RecSize)
		}
		li.Records += int64(n)
		r.pool.Unpin(f, false)
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
