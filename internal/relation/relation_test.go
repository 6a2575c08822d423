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

func TestPerPage(t *testing.T) {
	if got := PerPage(256); got != (256-8)/16 {
		t.Fatalf("PerPage(256) = %d", got)
	}
	if got := PerPage(4096); got != 255 {
		t.Fatalf("PerPage(4096) = %d", got)
	}
}

func TestAppendScanRoundtrip(t *testing.T) {
	pool := newPool(t, 4)
	r := New(pool, "t")
	const n = 100 // several pages at 15 recs/page
	want := make([]Rec, n)
	for i := range want {
		want[i] = Rec{Code: pbicode.Code(i + 1), Aux: uint64(i * 7)}
	}
	if err := r.Append(want...); err != nil {
		t.Fatal(err)
	}
	if r.NumRecords() != n {
		t.Fatalf("NumRecords = %d", r.NumRecords())
	}
	if wantPages := int64((n + 14) / 15); r.NumPages() != wantPages {
		t.Fatalf("NumPages = %d, want %d", r.NumPages(), wantPages)
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
}

func TestAppenderSpansBatches(t *testing.T) {
	pool := newPool(t, 4)
	r := New(pool, "t")
	a := r.NewAppender()
	for i := 0; i < 20; i++ {
		if err := a.Append(Rec{Code: pbicode.Code(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// A second appender resumes the partial tail page; records still scan
	// in append order.
	if err := r.Append(Rec{Code: 100}); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 21 || got[20].Code != 100 {
		t.Fatalf("got %d recs, last %v", len(got), got[len(got)-1])
	}
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
	for i := 0; i < 40; i++ { // several pages
		if err := r.Append(Rec{Code: pbicode.Code(i + 1)}); err != nil {
			t.Fatal(err)
		}
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
	pool := newPool(t, 4)
	r := New(pool, "t")
	const n = 50
	for i := 0; i < n; i++ {
		if err := r.Append(Rec{Code: pbicode.Code(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	// Record positions as we scan, then resume from each and check the
	// suffix.
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
		want := pbicode.Code(i + 1)
		for rs.Next() {
			if count == 0 && rs.Rec().Code != want {
				t.Fatalf("resume at %d: first rec %v, want %v", i, rs.Rec().Code, want)
			}
			count++
		}
		if count != n-i {
			t.Fatalf("resume at %d: %d records, want %d", i, count, n-i)
		}
	}
}

func TestIOAccountingThroughPool(t *testing.T) {
	// With a pool larger than the relation, appends and scans should cost
	// exactly one write per page (at flush) and zero reads.
	d := storage.NewMemDisk(256, storage.CostModel{})
	pool := buffer.New(d, 16)
	r := New(pool, "t")
	for i := 0; i < 45; i++ { // 3 pages
		if err := r.Append(Rec{Code: pbicode.Code(i + 1)}); err != nil {
			t.Fatal(err)
		}
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
	if got := d.Stats().Writes; got != 3 {
		t.Fatalf("writes = %d, want 3", got)
	}
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
