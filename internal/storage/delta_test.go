package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// writeBaseFile writes n pages of deterministic content and returns the path.
func writeBaseFile(t *testing.T, pageSize int, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.pbidb")
	var buf bytes.Buffer
	for id := 0; id < n; id++ {
		page := make([]byte, pageSize)
		for i := range page {
			page[i] = byte(id + 1)
		}
		buf.Write(page)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDeltaRoundTrip(t *testing.T) {
	const ps = 128
	dir := t.TempDir()
	path := filepath.Join(dir, "e1.delta")
	pages := map[PageID][]byte{
		2: bytes.Repeat([]byte{0xAA}, ps),
		7: bytes.Repeat([]byte{0xBB}, ps),
	}
	if err := WriteDelta(path, ps, 10, pages); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDelta(path, ps)
	if err != nil {
		t.Fatal(err)
	}
	if d.LogicalPages != 10 || d.PageSize != ps || len(d.Pages) != 2 {
		t.Fatalf("delta header: logical=%d pageSize=%d pages=%d", d.LogicalPages, d.PageSize, len(d.Pages))
	}
	for id, want := range pages {
		if !bytes.Equal(d.Pages[id], want) {
			t.Fatalf("page %d content mismatch", id)
		}
	}
	if _, _, err := VerifyDelta(path); err != nil {
		t.Fatalf("VerifyDelta: %v", err)
	}
}

// TestDeltaLayerIsImmutable pins down what lets ReadDelta hand out windows
// of one buffer instead of a copy per page: nothing downstream can
// write through them. OverlayDisk.Read copies out, so scribbling on a read
// buffer changes nothing; Write lands in the private overlay, so the layer
// (and any other disk opened over the same chain) keeps the stored bytes;
// and each window is capped at its page, so even an append cannot run into
// the neighbouring entry.
func TestDeltaLayerIsImmutable(t *testing.T) {
	const ps = 64
	base := writeBaseFile(t, ps, 2)
	dp := filepath.Join(filepath.Dir(base), "e1.delta")
	want := map[PageID][]byte{
		1: bytes.Repeat([]byte{0x11}, ps),
		2: bytes.Repeat([]byte{0x22}, ps),
		3: bytes.Repeat([]byte{0x33}, ps),
	}
	if err := WriteDelta(dp, ps, 4, want); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDelta(dp, ps)
	if err != nil {
		t.Fatal(err)
	}
	for id, p := range d.Pages {
		if len(p) != ps || cap(p) != ps {
			t.Fatalf("page %d: len %d cap %d, want both %d", id, len(p), cap(p), ps)
		}
	}

	od, err := OpenOverlayLayered(base, []string{dp}, ps, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer od.Close()
	other, err := OpenOverlayLayered(base, []string{dp}, ps, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	read := func(d *OverlayDisk, id PageID) []byte {
		p := make([]byte, ps)
		if err := d.Read(id, p); err != nil {
			t.Fatalf("read page %d: %v", id, err)
		}
		return p
	}

	buf := read(od, 2)
	clear(buf) // mutate the buffer a read filled
	if got := read(od, 2); !bytes.Equal(got, want[2]) {
		t.Fatalf("mutating a read buffer changed the delta layer: %x", got[:4])
	}
	if err := od.Write(2, bytes.Repeat([]byte{0xEE}, ps)); err != nil {
		t.Fatal(err)
	}
	if got := read(od, 2); got[0] != 0xEE {
		t.Fatalf("write not visible through its own overlay: %x", got[0])
	}
	for id, w := range want {
		if got := read(other, id); !bytes.Equal(got, w) {
			t.Fatalf("page %d changed under a second disk after a write through the first", id)
		}
	}
	od.Release()
	for id, w := range want {
		if got := read(od, id); !bytes.Equal(got, w) {
			t.Fatalf("page %d: Release did not revert to the delta layer's bytes", id)
		}
	}
}

func TestDeltaRejectsOutOfExtentPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.delta")
	err := WriteDelta(path, 64, 3, map[PageID][]byte{5: make([]byte, 64)})
	if err == nil {
		t.Fatal("WriteDelta accepted a page beyond the logical extent")
	}
}

func TestDeltaDetectsCorruption(t *testing.T) {
	const ps = 64
	path := filepath.Join(t.TempDir(), "e1.delta")
	if err := WriteDelta(path, ps, 4, map[PageID][]byte{1: make([]byte, ps)}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDelta(path, ps); err == nil {
		t.Fatal("ReadDelta accepted a bit-flipped delta")
	}
	if _, _, err := VerifyDelta(path); err == nil {
		t.Fatal("VerifyDelta accepted a bit-flipped delta")
	}
}

// TestOverlayLayeredPrecedence checks the read order: private overlay wins
// over the delta layer, the delta layer over the base file, and pages
// beyond the file but under the logical extent read as delta content or
// zeroes.
func TestOverlayLayeredPrecedence(t *testing.T) {
	const ps = 64
	base := writeBaseFile(t, ps, 4) // pages 0..3 filled with id+1
	dir := filepath.Dir(base)

	d1 := filepath.Join(dir, "e1.delta")
	// Delta 1: overrides base page 1, extends to page 5 (id 4 written, 5 zero).
	if err := WriteDelta(d1, ps, 6, map[PageID][]byte{
		1: bytes.Repeat([]byte{0x11}, ps),
		4: bytes.Repeat([]byte{0x44}, ps),
	}); err != nil {
		t.Fatal(err)
	}
	d2 := filepath.Join(dir, "e2.delta")
	// Delta 2: later wins — re-overrides page 1.
	if err := WriteDelta(d2, ps, 6, map[PageID][]byte{
		1: bytes.Repeat([]byte{0x12}, ps),
	}); err != nil {
		t.Fatal(err)
	}

	od, err := OpenOverlayLayered(base, []string{d1, d2}, ps, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer od.Close()
	if od.NumPages() != 6 || od.BaseNumPages() != 6 {
		t.Fatalf("NumPages=%d BaseNumPages=%d, want 6", od.NumPages(), od.BaseNumPages())
	}
	if od.DeltaPages() != 2 {
		t.Fatalf("DeltaPages=%d, want 2", od.DeltaPages())
	}

	read := func(id PageID) []byte {
		p := make([]byte, ps)
		if err := od.Read(id, p); err != nil {
			t.Fatalf("read page %d: %v", id, err)
		}
		return p
	}
	if got := read(0); got[0] != 1 {
		t.Fatalf("page 0 = %#x, want base content 0x01", got[0])
	}
	if got := read(1); got[0] != 0x12 {
		t.Fatalf("page 1 = %#x, want later delta 0x12", got[0])
	}
	if got := read(4); got[0] != 0x44 {
		t.Fatalf("page 4 = %#x, want delta 0x44", got[0])
	}
	if got := read(5); got[0] != 0 {
		t.Fatalf("page 5 = %#x, want zero (allocated, unwritten)", got[0])
	}

	// Private overlay wins over the delta layer, and Release reverts to the
	// epoch image (not the bare file).
	if err := od.Write(1, bytes.Repeat([]byte{0x99}, ps)); err != nil {
		t.Fatal(err)
	}
	if got := read(1); got[0] != 0x99 {
		t.Fatalf("page 1 after write = %#x, want overlay 0x99", got[0])
	}
	id, err := od.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id != 6 {
		t.Fatalf("Alloc = %d, want 6 (beyond the logical extent)", id)
	}
	snap, n := od.OverlaySnapshot()
	if len(snap) != 1 || n != 7 {
		t.Fatalf("snapshot: %d pages, numPages %d; want 1, 7", len(snap), n)
	}
	od.Release()
	if od.NumPages() != 6 {
		t.Fatalf("NumPages after Release = %d, want 6", od.NumPages())
	}
	if got := read(1); got[0] != 0x12 {
		t.Fatalf("page 1 after Release = %#x, want delta 0x12", got[0])
	}
}

// TestOverlayLayeredChecksumsBaseOnly: base reads verify against the
// armed set; delta-layer reads bypass it (they were whole-file verified).
func TestOverlayLayeredChecksumsBaseOnly(t *testing.T) {
	const ps = 64
	base := writeBaseFile(t, ps, 2)
	d1 := filepath.Join(filepath.Dir(base), "e1.delta")
	if err := WriteDelta(d1, ps, 2, map[PageID][]byte{1: bytes.Repeat([]byte{0x11}, ps)}); err != nil {
		t.Fatal(err)
	}
	od, err := OpenOverlayLayered(base, []string{d1}, ps, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer od.Close()
	// Arm checksums that declare both base pages corrupt: page 0 (served
	// from the file) must fail, page 1 (served from the delta) must not.
	cs := NewChecksumSet(2)
	cs.Update(0, bytes.Repeat([]byte{0xEE}, ps))
	cs.Update(1, bytes.Repeat([]byte{0xEE}, ps))
	od.SetChecksums(cs)
	p := make([]byte, ps)
	if err := od.Read(0, p); err == nil {
		t.Fatal("base-file read passed verification against a wrong checksum")
	}
	if err := od.Read(1, p); err != nil {
		t.Fatalf("delta-layer read hit base verification: %v", err)
	}
}

// TestDeltaTrimsZeroTails checks that a delta stores each page only up to
// its last non-zero byte and reads it back whole — an all-zero page
// included — and that a file of whole pages, the format before stored
// lengths, reads the same.
func TestDeltaTrimsZeroTails(t *testing.T) {
	const ps = 256
	pages := map[PageID][]byte{0: make([]byte, ps), 3: make([]byte, ps), 5: make([]byte, ps)}
	pages[3][0], pages[3][9] = 0x7, 0x9
	for i := range pages[5] {
		pages[5][i] = 0x5
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "e.delta")
	if err := WriteDelta(path, ps, 6, pages); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(deltaHdrSize + 3*12 + 10 + ps + 4); st.Size() != want {
		t.Fatalf("delta holds %d bytes, want %d", st.Size(), want)
	}
	// The same pages in the earlier layout: page ID and the whole page.
	v1 := []byte(deltaMagicV1)
	v1 = binary.LittleEndian.AppendUint32(v1, ps)
	v1 = binary.LittleEndian.AppendUint64(v1, 6)
	v1 = binary.LittleEndian.AppendUint32(v1, 3)
	for _, id := range []PageID{0, 3, 5} {
		v1 = binary.LittleEndian.AppendUint64(v1, uint64(id))
		v1 = append(v1, pages[id]...)
	}
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.Checksum(v1, castagnoli))
	v1Path := filepath.Join(dir, "v1.delta")
	if err := os.WriteFile(v1Path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, v1Path} {
		d, err := ReadDelta(p, ps)
		if err != nil {
			t.Fatal(err)
		}
		if d.LogicalPages != 6 || len(d.Pages) != 3 {
			t.Fatalf("%s: logical %d, %d pages", p, d.LogicalPages, len(d.Pages))
		}
		for id, want := range pages {
			if got := d.Pages[id]; !bytes.Equal(got, want) || cap(got) != ps {
				t.Fatalf("%s: page %d reads %x (cap %d)", p, id, got, cap(got))
			}
		}
	}
}

// TestAppendDelta advances a layered disk by one more delta: the new pages
// win over the old layer, the extent grows to the delta's, and a disk whose
// overlay holds pages refuses until it is released.
func TestAppendDelta(t *testing.T) {
	const ps = 64
	base := writeBaseFile(t, ps, 2)
	dir := filepath.Dir(base)
	d1, d2 := filepath.Join(dir, "e1.delta"), filepath.Join(dir, "e2.delta")
	if err := WriteDelta(d1, ps, 3, map[PageID][]byte{2: bytes.Repeat([]byte{0xA1}, ps)}); err != nil {
		t.Fatal(err)
	}
	if err := WriteDelta(d2, ps, 5, map[PageID][]byte{
		0: bytes.Repeat([]byte{0xB0}, ps), 2: bytes.Repeat([]byte{0xB2}, ps), 4: bytes.Repeat([]byte{0xB4}, ps),
	}); err != nil {
		t.Fatal(err)
	}
	od, err := OpenOverlayLayered(base, []string{d1}, ps, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	defer od.Close()
	next, err := ReadDelta(d2, ps)
	if err != nil {
		t.Fatal(err)
	}
	id, err := od.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := od.Write(id, make([]byte, ps)); err != nil {
		t.Fatal(err)
	}
	if err := od.AppendDelta(next); err == nil {
		t.Fatal("AppendDelta over a non-empty overlay succeeded")
	}
	od.Release()
	if err := od.AppendDelta(next); err != nil {
		t.Fatal(err)
	}
	if od.NumPages() != 5 || od.BaseNumPages() != 5 || od.DeltaPages() != 3 {
		t.Fatalf("extent %d/%d, %d delta pages", od.NumPages(), od.BaseNumPages(), od.DeltaPages())
	}
	want := map[PageID]byte{0: 0xB0, 1: 2, 2: 0xB2, 3: 0, 4: 0xB4}
	buf := make([]byte, ps)
	for id, b := range want {
		if err := od.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, bytes.Repeat([]byte{b}, ps)) {
			t.Fatalf("page %d reads %x, want %02x", id, buf, b)
		}
	}
}

// TestDeltaRejectsInconsistentLengths feeds ReadDelta files whose CRC is
// valid but whose stored lengths do not add up — an entry longer than a
// page, or one that leaves the next entry's header cut short — and
// expects errors, not panics.
func TestDeltaRejectsInconsistentLengths(t *testing.T) {
	const ps = 64
	seal := func(body []byte) []byte {
		return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
	}
	header := func(count uint32) []byte {
		b := []byte(deltaMagic)
		b = binary.LittleEndian.AppendUint32(b, ps)
		b = binary.LittleEndian.AppendUint64(b, 4)
		return binary.LittleEndian.AppendUint32(b, count)
	}
	entry := func(b []byte, id uint64, n uint32, content int) []byte {
		b = binary.LittleEndian.AppendUint64(b, id)
		b = binary.LittleEndian.AppendUint32(b, n)
		return append(b, make([]byte, content)...)
	}
	cases := map[string][]byte{
		"longer than a page": seal(entry(header(1), 1, ps+1, ps+1)),
		// The first entry takes the bytes the count check reserved for the
		// second's header, leaving it 8 of 12.
		"second header cut short": seal(append(entry(header(2), 1, 12, 12), make([]byte, 8)...)),
		"bytes past the entries":  seal(append(entry(header(1), 1, 4, 4), 0)),
	}
	dir := t.TempDir()
	for name, data := range cases {
		path := filepath.Join(dir, "bad.delta")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadDelta(path, ps); err == nil {
			t.Errorf("%s: ReadDelta accepted the file", name)
		}
	}
}

// CommitDelta writes, under dir, an epoch commit that re-stores relations
// with fences over a saved database, and returns the bytes of its delta.
// Building one takes the layers above this package, so the external test
// package sets it (commitdelta_test.go).
var CommitDelta func(dir string) ([]byte, error)

// FuzzReadDelta feeds arbitrary bytes to ReadDelta as a delta file, as they
// are and with their trailing CRC32-C made to match, so that the header and
// entries are parsed instead of the checksum rejecting them. ReadDelta must
// only ever return an error, or a delta whose every page is a whole page
// inside its logical extent.
func FuzzReadDelta(f *testing.F) {
	path := filepath.Join(f.TempDir(), "fuzz.delta")
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, 64) }
	for _, pages := range []map[PageID][]byte{nil, {2: page(0xAA), 7: page(0)}, {0: append(page(0)[:60], 1, 2, 3, 4)}} {
		if err := WriteDelta(path, 64, 10, pages); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A version-1 file: whole pages, no stored lengths.
	v1 := []byte(deltaMagicV1)
	v1 = binary.LittleEndian.AppendUint32(v1, 64)
	v1 = binary.LittleEndian.AppendUint64(v1, 4)
	v1 = binary.LittleEndian.AppendUint32(v1, 1)
	v1 = binary.LittleEndian.AppendUint64(v1, 3)
	v1 = append(v1, page(0x5A)...)
	f.Add(binary.LittleEndian.AppendUint32(v1, crc32.Checksum(v1, crc32.MakeTable(crc32.Castagnoli))))
	// The delta of an epoch commit: the pages of relations it re-stored,
	// whose catalog entries carry fences.
	data, err := CommitDelta(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)

	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := data
		if len(data) >= 4 {
			body := data[:len(data)-4]
			sealed = binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		}
		for _, b := range [][]byte{data, sealed} {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, ps := range []int{0, 64} {
				d, err := ReadDelta(path, ps)
				if err != nil {
					continue
				}
				for id, p := range d.Pages {
					if id < 0 || id >= d.LogicalPages || len(p) != d.PageSize {
						t.Fatalf("page %d of %d bytes in a delta of %d-byte pages and extent %d", id, len(p), d.PageSize, d.LogicalPages)
					}
				}
			}
		}
	})
}
