package relation

import (
	"errors"
	"testing"

	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/pbicode"
)

func newPool(t *testing.T, b int) *buffer.Pool {
	t.Helper()
	d := storage.NewMemDisk(256, storage.CostModel{})
	t.Cleanup(func() { d.Close() })
	return buffer.New(d, b)
}

// bothLayouts runs f once per page layout a relation can write.
func bothLayouts(t *testing.T, f func(t *testing.T, paper bool)) {
	for _, paper := range []bool{false, true} {
		name := "packed"
		if paper {
			name = "paper"
		}
		t.Run(name, func(t *testing.T) { f(t, paper) })
	}
}

// spread returns n records in ascending code order whose gaps are irregular
// and up to 2^20 wide, so that a packed page needs 3-byte code residuals and
// a 256-byte page closes after about 70 of them: relations of a few hundred
// span several pages in either layout.
func spread(n int) []Rec {
	recs := make([]Rec, n)
	c := uint64(0)
	for i := range recs {
		c += 1 + uint64(i)*2654435761%(1<<20)
		recs[i] = Rec{Code: pbicode.Code(c), Aux: uint64(i * 7)}
	}
	return recs
}

func TestPerPage(t *testing.T) {
	if got := PerPage(256); got != (256-8)/16 {
		t.Fatalf("PerPage(256) = %d", got)
	}
	if got := PerPage(4096); got != 255 {
		t.Fatalf("PerPage(4096) = %d", got)
	}
}

func TestAppendScanRoundtrip(t *testing.T) {
	bothLayouts(t, func(t *testing.T, paper bool) {
		pool := newPool(t, 4)
		r := New(pool, "t")
		r.SetPaperLayout(paper)
		const n = 300
		want := spread(n)
		if err := r.Append(want...); err != nil {
			t.Fatal(err)
		}
		if r.NumRecords() != n {
			t.Fatalf("NumRecords = %d", r.NumRecords())
		}
		// 15 fixed-width records fit a 256-byte page; packed pages hold
		// several times that, and still more than one page is needed.
		fixedPages := int64((n + 14) / 15)
		if paper && r.NumPages() != fixedPages {
			t.Fatalf("NumPages = %d, want %d", r.NumPages(), fixedPages)
		}
		if !paper && (r.NumPages() < 2 || r.NumPages() > fixedPages/3) {
			t.Fatalf("NumPages = %d packed against %d fixed-width", r.NumPages(), fixedPages)
		}
		got, err := r.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("ReadAll len = %d", len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("rec %d = %+v, want %+v", i, got[i], want[i])
			}
		}
		if pool.PinnedFrames() != 0 {
			t.Fatalf("leaked pins: %d", pool.PinnedFrames())
		}
	})
}

func TestAppenderSpansBatches(t *testing.T) {
	bothLayouts(t, func(t *testing.T, paper bool) {
		pool := newPool(t, 4)
		r := New(pool, "t")
		r.SetPaperLayout(paper)
		a := r.NewAppender()
		for i := 0; i < 20; i++ {
			if err := a.Append(Rec{Code: pbicode.Code(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		pages := r.NumPages()
		// A second appender resumes the partial tail page; records still
		// scan in append order.
		if err := r.Append(Rec{Code: 100}); err != nil {
			t.Fatal(err)
		}
		if r.NumPages() != pages {
			t.Fatalf("tail not resumed: %d pages became %d", pages, r.NumPages())
		}
		got, err := r.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 21 || got[20].Code != 100 {
			t.Fatalf("got %d recs, last %v", len(got), got[len(got)-1])
		}
	})
}

func TestFromCodes(t *testing.T) {
	pool := newPool(t, 4)
	r, err := FromCodes(pool, "c", []pbicode.Code{5, 3, 9})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1] != (Rec{Code: 3, Aux: 1}) {
		t.Fatalf("got %+v", got)
	}
	if r.Name() != "c" {
		t.Fatalf("Name = %q", r.Name())
	}
}

func TestEmptyRelation(t *testing.T) {
	pool := newPool(t, 2)
	r := New(pool, "e")
	got, err := r.ReadAll()
	if err != nil || len(got) != 0 {
		t.Fatalf("ReadAll = %v, %v", got, err)
	}
	s := r.Scan()
	if s.Next() {
		t.Fatal("Next on empty relation")
	}
	s.Close()
	if r.NumPages() != 0 || r.NumRecords() != 0 {
		t.Fatal("empty relation has pages")
	}
}

func TestScannerCloseMidway(t *testing.T) {
	pool := newPool(t, 4)
	r := New(pool, "t")
	for i := 0; i < 50; i++ {
		if err := r.Append(Rec{Code: pbicode.Code(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	s := r.Scan()
	if !s.Next() {
		t.Fatal("no first record")
	}
	s.Close()
	if pool.PinnedFrames() != 0 {
		t.Fatalf("pin leaked after Close: %d", pool.PinnedFrames())
	}
	s.Close() // double close is safe
}

func TestFreeReleasesFrames(t *testing.T) {
	pool := newPool(t, 4)
	r := New(pool, "t")
	for i := 0; i < 30; i++ {
		if err := r.Append(Rec{Code: pbicode.Code(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Free(); err != nil {
		t.Fatal(err)
	}
	if r.NumPages() != 0 || r.NumRecords() != 0 {
		t.Fatal("Free did not reset")
	}
}

func TestScanErrorPropagates(t *testing.T) {
	d := storage.NewMemDisk(256, storage.CostModel{})
	fd := storage.NewFaultDisk(d)
	pool := buffer.New(fd, 2)
	r := New(pool, "t")
	if err := r.Append(spread(400)...); err != nil { // several pages
		t.Fatal(err)
	}
	if r.NumPages() < 4 {
		t.Fatalf("%d pages, the scan needs more than the 2 reads allowed", r.NumPages())
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Force pages out so the scan must hit the disk, then poison reads.
	for id := storage.PageID(0); id < d.NumPages(); id++ {
		if err := pool.Evict(id); err != nil {
			t.Fatal(err)
		}
	}
	fd.FailReadAfter = 2
	s := r.Scan()
	n := 0
	for s.Next() {
		n++
	}
	if !errors.Is(s.Err(), storage.ErrInjected) {
		t.Fatalf("Err = %v after %d recs", s.Err(), n)
	}
	if s.Next() {
		t.Fatal("Next true after error")
	}
	s.Close()
	if pool.PinnedFrames() != 0 {
		t.Fatal("pins leaked on error path")
	}
}

func TestAppendErrorPropagates(t *testing.T) {
	d := storage.NewMemDisk(256, storage.CostModel{})
	fd := storage.NewFaultDisk(d)
	pool := buffer.New(fd, 2)
	r := New(pool, "t")
	fd.FailAllocAfter = 1
	if err := r.Append(Rec{Code: 1}); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("Append = %v", err)
	}
}

func TestSpan(t *testing.T) {
	pool := newPool(t, 4)
	r := New(pool, "t")
	if _, ok := r.Span(); ok {
		t.Fatal("empty relation has a span")
	}
	// Codes 6 (region 5..7) and 24 (region 17..31) in an h=5 tree.
	if err := r.Append(Rec{Code: 6}, Rec{Code: 24}); err != nil {
		t.Fatal(err)
	}
	span, ok := r.Span()
	if !ok || span.Start != 5 || span.End != 31 {
		t.Fatalf("Span = %+v, %v", span, ok)
	}
	// Free resets the span with the records.
	if err := r.Free(); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Span(); ok {
		t.Fatal("span survived Free")
	}
	if err := r.Append(Rec{Code: 2}); err != nil {
		t.Fatal(err)
	}
	span, _ = r.Span()
	if span.Start != 1 || span.End != 3 {
		t.Fatalf("span after Free+Append = %+v", span)
	}
}

func TestScanFromPos(t *testing.T) {
	bothLayouts(t, func(t *testing.T, paper bool) {
		pool := newPool(t, 4)
		r := New(pool, "t")
		r.SetPaperLayout(paper)
		const n = 200
		recs := spread(n)
		if err := r.Append(recs...); err != nil {
			t.Fatal(err)
		}
		if r.NumPages() < 2 {
			t.Fatalf("%d pages: resuming across a page boundary is not exercised", r.NumPages())
		}
		// Record positions as we scan, then resume from each and check the
		// suffix. One scanner serves every resume, so consecutive positions
		// on one page move its cursor without decoding the page again.
		var positions []Pos
		s := r.Scan()
		positions = append(positions, s.Pos()) // start
		for s.Next() {
			positions = append(positions, s.Pos())
		}
		s.Close()
		if len(positions) != n+1 {
			t.Fatalf("positions = %d", len(positions))
		}
		var rs Scanner
		for i, p := range positions {
			rs.ResetFrom(r, p)
			count := 0
			for rs.Next() {
				if count == 0 && rs.Rec() != recs[i] {
					t.Fatalf("resume at %d: first rec %v, want %v", i, rs.Rec(), recs[i])
				}
				count++
			}
			if count != n-i {
				t.Fatalf("resume at %d: %d records, want %d", i, count, n-i)
			}
		}
	})
}

// TestResetFromKeepsLoadedPage: repositioning within the page the scanner
// holds decoded costs no pool request at all — MPMGJN repositions once per
// ancestor, and used to fetch and decode the mark's page every time.
func TestResetFromKeepsLoadedPage(t *testing.T) {
	pool := newPool(t, 4)
	r := New(pool, "t")
	recs := spread(60)
	if err := r.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if r.NumPages() != 1 {
		t.Fatalf("%d pages, want the one page every reset lands on", r.NumPages())
	}
	var s Scanner
	defer s.Close()
	s.Reset(r)
	if !s.Next() {
		t.Fatal("no first record")
	}
	mark := s.Pos()
	before := pool.Stats()
	for i := 0; i < 100; i++ {
		s.ResetFrom(r, mark)
		if !s.Next() || s.Rec() != recs[1] {
			t.Fatalf("reset %d: got %+v, want %+v", i, s.Rec(), recs[1])
		}
	}
	if got := pool.Stats().Sub(before); got.Hits+got.Misses != 0 {
		t.Fatalf("100 resets within the loaded page made %d pool requests, want 0", got.Hits+got.Misses)
	}
}

func TestIOAccountingThroughPool(t *testing.T) {
	// With a pool larger than the relation, appends and scans should cost
	// exactly one write per page (at flush) and zero reads — also when
	// every record goes through an appender of its own, each resuming the
	// tail the last one left.
	bothLayouts(t, func(t *testing.T, paper bool) {
		d := storage.NewMemDisk(256, storage.CostModel{})
		pool := buffer.New(d, 16)
		r := New(pool, "t")
		r.SetPaperLayout(paper)
		for _, rec := range spread(150) {
			if err := r.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if paper && r.NumPages() != 10 {
			t.Fatalf("%d pages, want 10 of 15 records", r.NumPages())
		}
		if _, err := r.ReadAll(); err != nil {
			t.Fatal(err)
		}
		if got := d.Stats().Reads; got != 0 {
			t.Fatalf("reads with resident pages = %d", got)
		}
		if err := pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if got := d.Stats().Writes; got != r.NumPages() || got < 2 {
			t.Fatalf("writes = %d for %d pages", got, r.NumPages())
		}
	})
}

// TestScannersRecycleSlabs checks that scans draw their decode buffers
// from the pool's free list and hand them back — at exhaustion, on Close
// of an abandoned scan — so that a warm sequence of scans allocates none.
func TestScannersRecycleSlabs(t *testing.T) {
	pool := newPool(t, 4)
	r := New(pool, "t")
	for i := 0; i < 100; i++ {
		if err := r.Append(Rec{Code: pbicode.Code(i + 1), Aux: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var row Scanner
	var batch BatchScanner
	scans := func() {
		row.Reset(r)
		n := 0
		for row.Next() { // runs to exhaustion: the buffer goes back by itself
			n++
		}
		row.ResetFrom(r, Pos{})
		if !row.Next() {
			t.Fatal("no first record")
		}
		row.Close() // abandoned midway: Close gives the buffer back
		batch.Reset(r)
		for batch.Next() {
			n += len(batch.Codes())
		}
		if row.Err() != nil || batch.Err() != nil || n != 200 {
			t.Fatalf("scanned %d records (errors %v, %v), want 200", n, row.Err(), batch.Err())
		}
	}
	scans() // the first pass allocates the one buffer all of them share
	if allocs := testing.AllocsPerRun(10, scans); allocs != 0 {
		t.Fatalf("warm scans allocate %.0f objects, want 0", allocs)
	}
}

// TestOrderedTracksAppends: a relation is in document order while every
// append follows its predecessor by DocLess, across pages and appenders,
// and stops claiming it at the first record that does not; Free starts it
// over. The paper's layout never claims it.
func TestOrderedTracksAppends(t *testing.T) {
	bothLayouts(t, func(t *testing.T, paper bool) {
		r := New(newPool(t, 8), "t")
		r.SetPaperLayout(paper)
		if !r.Ordered() && !paper {
			t.Fatal("empty relation not ordered")
		}
		recs := spread(300)
		if err := r.Append(recs[:150]...); err != nil {
			t.Fatal(err)
		}
		if err := r.Append(recs[150:]...); err != nil {
			t.Fatal(err)
		}
		if r.NumPages() < 3 || r.Ordered() == paper {
			t.Fatalf("%d pages of ascending codes: Ordered() = %v", r.NumPages(), r.Ordered())
		}
		// A node and its leftmost descendant share their Start: the
		// ancestor first is document order, the reverse is not.
		leaf := (recs[len(recs)-1].Code+1<<22)&^3 + 1 // a left child
		parent := leaf + 1                            // its parent: Start = leaf
		if err := r.Append(Rec{Code: parent}, Rec{Code: parent}, Rec{Code: leaf}); err != nil {
			t.Fatal(err)
		}
		if r.Ordered() == paper {
			t.Fatalf("ancestor, itself, its leftmost leaf: Ordered() = %v", r.Ordered())
		}
		if err := r.Append(Rec{Code: parent}); err != nil {
			t.Fatal(err)
		}
		if r.Ordered() {
			t.Fatal("an ancestor after its descendant still claims document order")
		}
		if err := r.Free(); err != nil {
			t.Fatal(err)
		}
		if r.Ordered() == paper {
			t.Fatalf("after Free: Ordered() = %v", r.Ordered())
		}
	})
}

// TestOrderedAfterAttach: an attached relation claims what its caller
// says, and an append to it compares against the real last record, which
// the appender reads from the tail page it resumes.
func TestOrderedAfterAttach(t *testing.T) {
	pool := newPool(t, 8)
	recs := spread(200)
	for _, tc := range []struct {
		claim bool
		next  Rec
		want  bool
	}{
		{false, recs[100], false},
		{true, recs[100], true},
		{true, recs[98], false}, // before the real last record
	} {
		src := New(pool, "src")
		if err := src.Append(recs[:100]...); err != nil {
			t.Fatal(err)
		}
		span, _ := src.Span()
		r := Attach(pool, "r", src.Pages(), src.NumRecords(), span, tc.claim, nil)
		if r.Ordered() != tc.claim {
			t.Fatalf("Attach(%v): Ordered() = %v", tc.claim, r.Ordered())
		}
		if err := r.Append(tc.next); err != nil {
			t.Fatal(err)
		}
		if r.Ordered() != tc.want {
			t.Fatalf("Attach(%v) then append %v: Ordered() = %v, want %v", tc.claim, tc.next.Code, r.Ordered(), tc.want)
		}
	}
}

// TestBorrowLeavesLenderReadable: freeing a borrowed relation forgets its
// pages without discarding them — the lender reads every record still —
// and a borrowed relation refuses appends.
func TestBorrowLeavesLenderReadable(t *testing.T) {
	pool := newPool(t, 4)
	r := New(pool, "r")
	recs := spread(300)
	if err := r.Append(recs...); err != nil {
		t.Fatal(err)
	}
	b := r.Borrow("b")
	if got, err := b.ReadAll(); err != nil || len(got) != len(recs) || b.Ordered() != r.Ordered() {
		t.Fatalf("borrowed: %d records (%v), ordered %v", len(got), err, b.Ordered())
	}
	if err := b.Append(recs[0]); err == nil {
		t.Fatal("append to a borrowed relation succeeded")
	}
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	if b.NumPages() != 0 || b.NumRecords() != 0 {
		t.Fatal("Free left the borrowed relation non-empty")
	}
	got, err := r.ReadAll()
	if err != nil || len(got) != len(recs) {
		t.Fatalf("lender after Free of its borrower: %d records (%v), want %d", len(got), err, len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("lender record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// checkFences fails unless r has one fence a page, each its page's first
// Start.
func checkFences(t *testing.T, label string, r *Relation) {
	t.Helper()
	f := r.Fences()
	if f == nil || len(f) != int(r.NumPages()) {
		t.Fatalf("%s: %d fences for %d pages", label, len(f), r.NumPages())
	}
	for i := range f {
		rec, err := r.FirstRecord(i)
		if err != nil {
			t.Fatal(err)
		}
		if f[i] != rec.Code.Start() {
			t.Fatalf("%s: fence of page %d is %d, the page starts at %d", label, i, f[i], rec.Code.Start())
		}
	}
}

// TestAppendRecordsFences: appends in document order record each page's
// first Start, across appenders that resume the tail; a record out of
// order drops them with the order claim; temporaries keep none; and the
// paper's layout, which never claims order, has none.
func TestAppendRecordsFences(t *testing.T) {
	bothLayouts(t, func(t *testing.T, paper bool) {
		pool := newPool(t, 8)
		recs := spread(2000)
		r := New(pool, "r")
		r.SetPaperLayout(paper)
		for _, part := range [][]Rec{recs[:700], recs[700:701], recs[701:]} {
			if err := r.Append(part...); err != nil {
				t.Fatal(err)
			}
		}
		if paper {
			if r.Fences() != nil {
				t.Fatal("the paper's layout claims fences")
			}
			return
		}
		checkFences(t, "ordered", r)
		if err := r.Append(recs[0]); err != nil {
			t.Fatal(err)
		}
		if r.Ordered() || r.Fences() != nil {
			t.Fatalf("after a record out of order: ordered %v, %d fences", r.Ordered(), len(r.Fences()))
		}
		tmp := NewLike(r, pool, "tmp")
		if err := tmp.Append(recs...); err != nil {
			t.Fatal(err)
		}
		if !tmp.Ordered() || tmp.Fences() != nil {
			t.Fatalf("temporary: ordered %v, %d fences", tmp.Ordered(), len(tmp.Fences()))
		}
	})
}

// TestAttachWithFences: Attach with one fence a page makes the loader's
// order claim, not one taken on trust, and appends then extend the fences;
// an order claim without them, or with a fence count that is not the page
// count, is taken on trust.
func TestAttachWithFences(t *testing.T) {
	pool := newPool(t, 8)
	recs := spread(1500)
	src := New(pool, "src")
	if err := src.Append(recs[:1000]...); err != nil {
		t.Fatal(err)
	}
	span, _ := src.Span()
	fences := src.Fences()
	for _, tc := range []struct {
		name    string
		fences  []uint64
		trusted bool
	}{
		{"fences", fences, false},
		{"none", nil, true},
		{"one short", fences[1:], true},
	} {
		r := Attach(pool, "r", src.Pages(), src.NumRecords(), span, true, tc.fences)
		if !r.Ordered() || r.OrderTrusted() != tc.trusted || (r.Fences() == nil) != tc.trusted {
			t.Fatalf("%s: ordered %v, trusted %v, %d fences", tc.name, r.Ordered(), r.OrderTrusted(), len(r.Fences()))
		}
		if tc.trusted {
			continue
		}
		if err := r.Append(recs[1000:]...); err != nil {
			t.Fatal(err)
		}
		checkFences(t, tc.name+", appended to", r)
	}
}
