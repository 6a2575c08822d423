package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
)

// This file is the delta layer behind epoch-based serving (internal/ingest,
// containment.SaveEpoch): an epoch's page image is the immutable base page
// file plus an ordered chain of delta files, each recording the pages one
// ingest commit changed or allocated. Queries open the chain read-only
// through OpenOverlayLayered — the familiar OverlayDisk, with the delta
// pages as an immutable middle layer between the private per-request
// overlay and the base file — so every serving invariant (COW temp state,
// Release between requests, shared-base checksum verification) carries
// over unchanged. A compaction pass folds the chain back into a fresh base
// file and the chain restarts empty.
//
// Delta file format (little endian):
//
//	offset 0: magic "PBIDLT2\n" (8 bytes)
//	offset 8: page size uint32
//	offset 12: logical page count uint64 — NumPages of the epoch after
//	           applying this delta (the chain's high-water mark)
//	offset 20: entry count uint32
//	then per entry: page ID uint64 + stored length uint32 + the page's
//	           content up to its last non-zero byte (the rest reads as
//	           zeroes: a relation's tail page, most of what a commit writes,
//	           is mostly empty)
//	trailing: CRC32-C uint32 over everything before it
//
// Files written before stored lengths existed carry magic "PBIDLT1\n" and
// whole pages without a length; ReadDelta reads both.
//
// The trailing CRC makes a damaged delta detectable at load time: unlike
// base pages (verified lazily per read against the .sums sidecar), a delta
// is read whole into memory exactly once, so whole-file verification at
// that moment covers every page it carries.

// deltaMagic identifies a delta page file; deltaMagicV1 one of whole pages.
const (
	deltaMagic   = "PBIDLT2\n"
	deltaMagicV1 = "PBIDLT1\n"
)

const deltaHdrSize = len(deltaMagic) + 4 + 8 + 4

// maxDeltaPageSize bounds the page size a delta file may record: a delta's
// pages are held whole in memory, so a damaged header must not make a small
// file ask for gigabytes.
const maxDeltaPageSize = 1 << 20

// Delta is one loaded delta file: the pages it overrides or adds, and the
// logical page count of the disk after applying it. The page slices of a
// Delta returned by ReadDelta share one buffer and must be treated as
// read-only.
type Delta struct {
	PageSize     int
	LogicalPages PageID
	Pages        map[PageID][]byte
}

// WriteDelta writes the given pages as a delta file at path, atomically
// (tmp + rename). logicalPages records the disk's page count after the
// delta applies; it must cover every page ID written.
func WriteDelta(path string, pageSize int, logicalPages PageID, pages map[PageID][]byte) error {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	ids := make([]PageID, 0, len(pages))
	for id := range pages {
		if id < 0 || id >= logicalPages {
			return fmt.Errorf("storage: delta page %d outside logical extent %d", id, logicalPages)
		}
		ids = append(ids, id)
	}
	// Deterministic page order keeps delta files byte-stable for a given
	// page set (and their CRCs comparable across rewrites).
	slices.Sort(ids)
	buf := make([]byte, 0, deltaHdrSize+len(ids)*(12+pageSize)+4)
	buf = append(buf, deltaMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(pageSize))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(logicalPages))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		p := pages[id]
		if len(p) != pageSize {
			return fmt.Errorf("storage: delta page %d holds %d bytes, want %d", id, len(p), pageSize)
		}
		n := len(p)
		for n > 0 && p[n-1] == 0 {
			n--
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
		buf = append(buf, p[:n]...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadDelta loads and CRC-verifies one delta file. The expected page size
// must match the file's (0 accepts whatever the file records).
func ReadDelta(path string, pageSize int) (*Delta, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(buf) < deltaHdrSize+4 {
		return nil, fmt.Errorf("storage: %s: not a delta page file", path)
	}
	v1 := string(buf[:len(deltaMagic)]) == deltaMagicV1
	if !v1 && string(buf[:len(deltaMagic)]) != deltaMagic {
		return nil, fmt.Errorf("storage: %s: not a delta page file", path)
	}
	body, trailer := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(body, castagnoli) != trailer {
		return nil, fmt.Errorf("storage: %s: delta checksum mismatch (delta damaged)", path)
	}
	ps := int(binary.LittleEndian.Uint32(body[len(deltaMagic):]))
	if ps <= 0 || ps > maxDeltaPageSize || pageSize != 0 && ps != pageSize {
		return nil, fmt.Errorf("storage: %s: delta page size %d, want %d", path, ps, pageSize)
	}
	logical := PageID(binary.LittleEndian.Uint64(body[len(deltaMagic)+4:]))
	count := int(binary.LittleEndian.Uint32(body[len(deltaMagic)+12:]))
	rest := body[deltaHdrSize:]
	if v1 && len(rest) != count*(8+ps) || len(rest) < count*12 {
		return nil, fmt.Errorf("storage: %s: delta records %d pages but holds %d bytes", path, count, len(rest))
	}
	// One zeroed buffer holds every page, each a cap-limited window so an
	// append cannot run into the next: the delta layer is immutable
	// (OverlayDisk.Read copies out of it, writes land in the private
	// overlay). A version-1 file's pages are windows of the verified file
	// buffer itself.
	var pages []byte
	if !v1 {
		pages = make([]byte, count*ps)
	}
	entryHdr := 12 // page ID, stored length
	if v1 {
		entryHdr = 8
	}
	d := &Delta{PageSize: ps, LogicalPages: logical, Pages: make(map[PageID][]byte, count)}
	for i := 0; i < count; i++ {
		if len(rest) < entryHdr {
			return nil, fmt.Errorf("storage: %s: delta truncated at entry %d", path, i)
		}
		id := PageID(binary.LittleEndian.Uint64(rest))
		if id < 0 || id >= logical {
			return nil, fmt.Errorf("storage: %s: delta page %d outside logical extent %d", path, id, logical)
		}
		var page []byte
		if v1 {
			page, rest = rest[8:8+ps:8+ps], rest[8+ps:]
		} else {
			n := int(binary.LittleEndian.Uint32(rest[8:]))
			if n > ps || len(rest) < 12+n {
				return nil, fmt.Errorf("storage: %s: delta page %d stores %d bytes of a %d-byte page", path, id, n, ps)
			}
			page = pages[i*ps : (i+1)*ps : (i+1)*ps]
			copy(page, rest[12:12+n])
			rest = rest[12+n:]
		}
		d.Pages[id] = page
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("storage: %s: delta holds %d bytes past its %d pages", path, len(rest), count)
	}
	return d, nil
}

// VerifyDelta re-reads a delta file and checks its trailing CRC without
// retaining the pages — the fsck entry point for delta chains.
func VerifyDelta(path string) (pages int, logical PageID, err error) {
	d, err := ReadDelta(path, 0)
	if err != nil {
		return 0, 0, err
	}
	return len(d.Pages), d.LogicalPages, nil
}

// OpenOverlayLayered opens the page file at path read-only with the given
// delta chain applied, in order (later deltas win), as the immutable layer
// of the returned OverlayDisk. The disk's base extent is the chain's
// logical page count, so per-request temporary allocations land beyond
// every stored page exactly as with a plain OpenOverlay, and Release
// reverts to the epoch image, never past it. Base-file reads verify
// against a ChecksumSet armed via SetChecksums; delta pages were verified
// whole when their files were loaded here.
func OpenOverlayLayered(path string, deltaPaths []string, pageSize int, cost CostModel) (*OverlayDisk, error) {
	od, err := OpenOverlay(path, pageSize, cost)
	if err != nil {
		return nil, err
	}
	for _, dp := range deltaPaths {
		d, err := ReadDelta(dp, od.pageSize)
		if err == nil {
			err = od.AppendDelta(d)
		}
		if err != nil {
			od.Close() //nolint:errcheck // the read error wins
			return nil, err
		}
	}
	return od, nil
}

// AppendDelta layers one more delta over the disk's immutable epoch layer,
// as the next link of its chain: its pages override or extend the image,
// and the base extent grows to its logical page count. This is how an
// engine moves onto the next epoch of the same base without reopening the
// chain (containment.Engine.Advance). The private overlay must be empty —
// Release it first — since its allocations would collide with the delta's
// page IDs. The delta's pages are kept, not copied, and must not change.
func (d *OverlayDisk) AppendDelta(dl *Delta) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if dl.PageSize != d.pageSize {
		return fmt.Errorf("storage: delta page size %d, disk %d", dl.PageSize, d.pageSize)
	}
	if len(d.overlay) > 0 || d.numPages != d.basePages {
		return fmt.Errorf("storage: append delta over a non-empty overlay")
	}
	if d.delta == nil {
		d.delta = make(map[PageID][]byte, len(dl.Pages))
	}
	for id, page := range dl.Pages {
		d.delta[id] = page
	}
	d.basePages = max(d.basePages, dl.LogicalPages)
	d.numPages = d.basePages
	return nil
}
