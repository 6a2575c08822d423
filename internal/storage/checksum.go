package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// This file is the page-integrity layer: CRC32-C checksums over every page
// of a persisted database, kept in a sidecar file next to the page file
// (path + ".sums"). A disk armed with a ChecksumSet (FileDisk.SetChecksums,
// OverlayDisk.SetChecksums) verifies each physical page read against the
// recorded sum and fails the read with a *CorruptPageError instead of
// returning garbage — a flipped bit or torn write surfaces as a distinct,
// classifiable failure (containment.FailCorrupt) rather than a silently
// wrong join result. A page that fails verification is quarantined: every
// later read of it fails fast without touching the disk again.

// ErrCorrupt matches (errors.Is) every checksum-verification failure.
var ErrCorrupt = errors.New("storage: page corrupt")

// CorruptPageError reports one page whose content does not match its
// recorded CRC32-C checksum. It unwraps to ErrCorrupt.
type CorruptPageError struct {
	Page PageID
	Want uint32 // recorded checksum
	Got  uint32 // checksum of the bytes actually read
}

func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("storage: page %d corrupt: checksum %08x, want %08x", e.Page, e.Got, e.Want)
}

// Unwrap lets errors.Is(err, ErrCorrupt) match.
func (e *CorruptPageError) Unwrap() error { return ErrCorrupt }

// castagnoli is the CRC32-C polynomial table — the same polynomial
// hardware-accelerated storage checksums use; crc32.Checksum over it is
// SSE4.2/ARMv8-accelerated by the standard library.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// PageChecksum computes the CRC32-C checksum of one page's content.
func PageChecksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// ChecksumSet holds the per-page CRC32-C checksums of a page file plus the
// quarantine list of pages that have already failed verification. It is
// safe for concurrent use: one set may be shared by every disk and buffer
// pool reading the same database.
type ChecksumSet struct {
	mu   sync.Mutex
	sums []uint32
	bad  map[PageID]*CorruptPageError
}

// NewChecksumSet returns an empty set sized for n pages (all sums zero;
// callers fill them with Update or load them from a sidecar).
func NewChecksumSet(n int) *ChecksumSet {
	return &ChecksumSet{sums: make([]uint32, n)}
}

// Pages returns how many pages have recorded checksums.
func (cs *ChecksumSet) Pages() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.sums)
}

// Sum returns the recorded checksum of page id (0 when out of range).
func (cs *ChecksumSet) Sum(id PageID) uint32 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if id < 0 || int(id) >= len(cs.sums) {
		return 0
	}
	return cs.sums[id]
}

// Update records the checksum of page id's new content, growing the set if
// the page lies beyond it (writable engines extend their file).
func (cs *ChecksumSet) Update(id PageID, p []byte) {
	if id < 0 {
		return
	}
	sum := PageChecksum(p)
	cs.mu.Lock()
	for int(id) >= len(cs.sums) {
		cs.sums = append(cs.sums, 0)
	}
	cs.sums[id] = sum
	delete(cs.bad, id)
	cs.mu.Unlock()
}

// Matches reports whether p has the checksum recorded for page id, a page
// in the recorded range that is not quarantined. Unlike Verify it records
// nothing: a mismatch means p is other content, not a damaged page.
func (cs *ChecksumSet) Matches(id PageID, p []byte) bool {
	got := PageChecksum(p)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return id >= 0 && int(id) < len(cs.sums) && cs.bad[id] == nil && cs.sums[id] == got
}

// Verify checks page id's just-read content against the recorded checksum.
// Pages beyond the recorded range verify trivially (they were written after
// the checksums were taken, or the file grew legitimately). On mismatch the
// page is quarantined — every later Verify of the same page fails
// immediately with the same *CorruptPageError, without the caller having to
// re-read the page — and the error unwraps to ErrCorrupt.
func (cs *ChecksumSet) Verify(id PageID, p []byte) error {
	cs.mu.Lock()
	if e := cs.bad[id]; e != nil {
		cs.mu.Unlock()
		return e
	}
	if id < 0 || int(id) >= len(cs.sums) {
		cs.mu.Unlock()
		return nil
	}
	want := cs.sums[id]
	cs.mu.Unlock()

	got := PageChecksum(p)
	if got == want {
		return nil
	}
	e := &CorruptPageError{Page: id, Want: want, Got: got}
	cs.mu.Lock()
	if cs.bad == nil {
		cs.bad = map[PageID]*CorruptPageError{}
	}
	cs.bad[id] = e
	cs.mu.Unlock()
	return e
}

// Quarantined returns the pages currently quarantined, in no particular
// order (a gauge for servers and fsck).
func (cs *ChecksumSet) Quarantined() []PageID {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make([]PageID, 0, len(cs.bad))
	for id := range cs.bad {
		out = append(out, id)
	}
	return out
}

// Sidecar format: an 8-byte magic, the page count, one uint32 CRC32-C per
// page, and a trailing CRC32-C over everything before it so a damaged
// sidecar is itself detected rather than trusted.
const sumsMagic = "PBISUM1\n"

// SumsPath returns the checksum sidecar path for a page file.
func SumsPath(path string) string { return path + ".sums" }

// Save writes the set to the sidecar for the given page file, atomically
// (tmp + rename).
func (cs *ChecksumSet) Save(path string) error {
	cs.mu.Lock()
	sums := append([]uint32(nil), cs.sums...)
	cs.mu.Unlock()

	buf := make([]byte, 0, len(sumsMagic)+8+4*len(sums)+4)
	buf = append(buf, sumsMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(sums)))
	for _, s := range sums {
		buf = binary.LittleEndian.AppendUint32(buf, s)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))

	tmp := SumsPath(path) + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, SumsPath(path))
}

// LoadChecksums reads the checksum sidecar of the given page file.
func LoadChecksums(path string) (*ChecksumSet, error) {
	buf, err := os.ReadFile(SumsPath(path))
	if err != nil {
		return nil, err
	}
	if len(buf) < len(sumsMagic)+8+4 || string(buf[:len(sumsMagic)]) != sumsMagic {
		return nil, fmt.Errorf("storage: %s: not a checksum sidecar", SumsPath(path))
	}
	body, trailer := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(body, castagnoli) != trailer {
		return nil, fmt.Errorf("storage: %s: sidecar self-checksum mismatch (sidecar damaged)", SumsPath(path))
	}
	n := binary.LittleEndian.Uint64(body[len(sumsMagic):])
	rest := body[len(sumsMagic)+8:]
	if uint64(len(rest)) != 4*n {
		return nil, fmt.Errorf("storage: %s: sidecar records %d pages but holds %d bytes of sums", SumsPath(path), n, len(rest))
	}
	sums := make([]uint32, n)
	for i := range sums {
		sums[i] = binary.LittleEndian.Uint32(rest[4*i:])
	}
	return &ChecksumSet{sums: sums}, nil
}

// ComputeFileChecksums streams the page file at path and returns the
// checksum of every full page it holds. The caller must have flushed and
// synced the file first (see containment.Engine.SaveDocs).
func ComputeFileChecksums(path string, pageSize int) (*ChecksumSet, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size()%int64(pageSize) != 0 {
		return nil, fmt.Errorf("storage: file size %d is not a multiple of page size %d", st.Size(), pageSize)
	}
	n := int(st.Size() / int64(pageSize))
	cs := NewChecksumSet(n)
	br := bufio.NewReaderSize(f, 16*pageSize)
	page := make([]byte, pageSize)
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(br, page); err != nil {
			return nil, fmt.Errorf("storage: read page %d for checksum: %w", i, err)
		}
		cs.sums[i] = PageChecksum(page)
	}
	return cs, nil
}
