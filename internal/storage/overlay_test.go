package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// makeBaseFile writes a page file with n pages, page i filled with byte i.
func makeBaseFile(t *testing.T, pageSize, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.pages")
	fd, err := OpenFileDisk(path, pageSize, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pageSize)
	for i := 0; i < n; i++ {
		id, err := fd.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		for j := range buf {
			buf[j] = byte(i)
		}
		if err := fd.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := fd.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOverlayReadsBase(t *testing.T) {
	path := makeBaseFile(t, 128, 3)
	d, err := OpenOverlay(path, 128, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.NumPages() != 3 || d.BaseNumPages() != 3 {
		t.Fatalf("pages = %d base = %d, want 3/3", d.NumPages(), d.BaseNumPages())
	}
	p := make([]byte, 128)
	for i := 0; i < 3; i++ {
		if err := d.Read(PageID(i), p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, bytes.Repeat([]byte{byte(i)}, 128)) {
			t.Fatalf("page %d content wrong: %v...", i, p[:4])
		}
	}
	if err := d.Read(3, p); err == nil {
		t.Fatal("read beyond NumPages succeeded")
	}
}

func TestOverlayCopyOnWriteAndAlloc(t *testing.T) {
	path := makeBaseFile(t, 128, 2)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenOverlay(path, 128, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Overwrite a base page: reads see the copy, the file does not.
	mod := bytes.Repeat([]byte{0xAA}, 128)
	if err := d.Write(1, mod); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 128)
	if err := d.Read(1, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, mod) {
		t.Fatal("read did not observe overlay write")
	}

	// Alloc beyond the base: zero until written, then retained.
	id, err := d.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("alloc = %d, want 2", id)
	}
	if err := d.Read(id, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, make([]byte, 128)) {
		t.Fatal("fresh overlay page not zero")
	}
	if err := d.Write(id, mod); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(id, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, mod) {
		t.Fatal("overlay page lost its write")
	}
	if d.OverlayPages() != 2 {
		t.Fatalf("overlay pages = %d, want 2", d.OverlayPages())
	}

	// Release reverts everything; the base file was never touched.
	d.Release()
	if d.NumPages() != 2 || d.OverlayPages() != 0 {
		t.Fatalf("after release: pages = %d overlay = %d", d.NumPages(), d.OverlayPages())
	}
	if err := d.Read(1, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, bytes.Repeat([]byte{1}, 128)) {
		t.Fatal("release did not revert base page")
	}
	if err := d.Read(2, p); err == nil {
		t.Fatal("released page still readable")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("overlay disk modified the base file")
	}
}

func TestOverlayAccounting(t *testing.T) {
	path := makeBaseFile(t, 128, 4)
	d, err := OpenOverlay(path, 128, CostModel{Random: 10, Sequential: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	p := make([]byte, 128)
	// Sequential scan 0..3: 1 random + 3 sequential.
	for i := 0; i < 4; i++ {
		if err := d.Read(PageID(i), p); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.Reads != 4 || s.SeqReads != 3 {
		t.Fatalf("stats = %+v, want 4 reads / 3 seq", s)
	}
	if s.VirtualIO != 13 {
		t.Fatalf("virtual clock = %d, want 13", s.VirtualIO)
	}
}

func TestOverlaySharedFile(t *testing.T) {
	// Two overlays over the same file are fully independent.
	path := makeBaseFile(t, 128, 1)
	d1, err := OpenOverlay(path, 128, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer d1.Close()
	d2, err := OpenOverlay(path, 128, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if err := d1.Write(0, bytes.Repeat([]byte{7}, 128)); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Alloc(); err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 128)
	if err := d2.Read(0, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, make([]byte, 128)) {
		t.Fatal("d2 observed d1's overlay write")
	}
	if d2.NumPages() != 1 {
		t.Fatalf("d2 pages = %d, want 1", d2.NumPages())
	}
}

// TestOverlayRecyclesPages pins down Release's recycling: the released page
// buffers serve the next round of writes without allocating, and their
// stale content never shows — not in a page that is only allocated, not in
// a base page whose copy-on-write copy was released.
func TestOverlayRecyclesPages(t *testing.T) {
	const pageSize, fresh = 128, 8
	path := makeBaseFile(t, pageSize, 2)
	d, err := OpenOverlay(path, pageSize, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dirty := bytes.Repeat([]byte{0xAA}, pageSize)
	p := make([]byte, pageSize)
	// round writes a copy of base page 1 and a few fresh pages.
	round := func() {
		if err := d.Write(1, dirty); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < fresh; i++ {
			id, err := d.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Write(id, dirty); err != nil {
				t.Fatal(err)
			}
		}
	}
	round()
	d.Release()
	if n := d.OverlayPages(); n != 0 {
		t.Fatalf("overlay holds %d pages after Release", n)
	}

	// Allocated but not written: zeroes, although a recycled buffer full of
	// 0xAA is waiting on the free list.
	id, err := d.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Read(id, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, make([]byte, pageSize)) {
		t.Fatalf("allocated-but-unwritten page reads %x..., want zeroes", p[:4])
	}
	// The copy-on-written base page reverted to the file's content.
	if err := d.Read(1, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, bytes.Repeat([]byte{1}, pageSize)) {
		t.Fatalf("base page 1 reads %x... after Release, want the file's 01", p[:4])
	}
	d.Release()

	// The second round of the same writes runs on the first round's buffers.
	if allocs := testing.AllocsPerRun(5, func() { round(); d.Release() }); allocs != 0 {
		t.Fatalf("a round of overlay writes after Release allocates %.0f objects, want 0", allocs)
	}
	// A write lands whole: nothing of the previous tenant shows through.
	clean := bytes.Repeat([]byte{0x55}, pageSize)
	if id, err = d.Alloc(); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(id, clean); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(id, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, clean) {
		t.Fatalf("page written over a recycled buffer reads %x...", p[:4])
	}
}
