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
//	offset 0: magic "PBIDLT1\n" (8 bytes)
//	offset 8: page size uint32
//	offset 12: logical page count uint64 — NumPages of the epoch after
//	           applying this delta (the chain's high-water mark)
//	offset 20: entry count uint32
//	then per entry: page ID uint64 + one page of content
//	trailing: CRC32-C uint32 over everything before it
//
// The trailing CRC makes a damaged delta detectable at load time: unlike
// base pages (verified lazily per read against the .sums sidecar), a delta
// is read whole into memory exactly once, so whole-file verification at
// that moment covers every page it carries.

// deltaMagic identifies a delta page file.
const deltaMagic = "PBIDLT1\n"

const deltaHdrSize = len(deltaMagic) + 4 + 8 + 4

// Delta is one loaded delta file: the pages it overrides or adds, and the
// logical page count of the disk after applying it. The page slices of a
// Delta returned by ReadDelta share one buffer (the file image) and must be
// treated as read-only.
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
	buf := make([]byte, 0, deltaHdrSize+len(ids)*(8+pageSize)+4)
	buf = append(buf, deltaMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(pageSize))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(logicalPages))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
		p := pages[id]
		if len(p) != pageSize {
			return fmt.Errorf("storage: delta page %d holds %d bytes, want %d", id, len(p), pageSize)
		}
		buf = append(buf, p...)
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
	if len(buf) < deltaHdrSize+4 || string(buf[:len(deltaMagic)]) != deltaMagic {
		return nil, fmt.Errorf("storage: %s: not a delta page file", path)
	}
	body, trailer := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(body, castagnoli) != trailer {
		return nil, fmt.Errorf("storage: %s: delta checksum mismatch (delta damaged)", path)
	}
	ps := int(binary.LittleEndian.Uint32(body[len(deltaMagic):]))
	if pageSize != 0 && ps != pageSize {
		return nil, fmt.Errorf("storage: %s: delta page size %d, want %d", path, ps, pageSize)
	}
	logical := PageID(binary.LittleEndian.Uint64(body[len(deltaMagic)+4:]))
	count := int(binary.LittleEndian.Uint32(body[len(deltaMagic)+12:]))
	rest := body[deltaHdrSize:]
	if len(rest) != count*(8+ps) {
		return nil, fmt.Errorf("storage: %s: delta records %d pages but holds %d bytes", path, count, len(rest))
	}
	d := &Delta{PageSize: ps, LogicalPages: logical, Pages: make(map[PageID][]byte, count)}
	for i := 0; i < count; i++ {
		off := i * (8 + ps)
		id := PageID(binary.LittleEndian.Uint64(rest[off:]))
		if id < 0 || id >= logical {
			return nil, fmt.Errorf("storage: %s: delta page %d outside logical extent %d", path, id, logical)
		}
		// A cap-limited window of the verified file buffer, not a copy: the
		// delta layer is immutable (OverlayDisk.Read copies out of it, writes
		// land in the private overlay), and the cap keeps an append from
		// running into the next entry.
		d.Pages[id] = rest[off+8 : off+8+ps : off+8+ps]
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
	if len(deltaPaths) == 0 {
		return od, nil
	}
	layer := map[PageID][]byte{}
	logical := od.filePages
	for _, dp := range deltaPaths {
		d, err := ReadDelta(dp, od.pageSize)
		if err != nil {
			od.Close() //nolint:errcheck // the read error wins
			return nil, err
		}
		for id, page := range d.Pages {
			layer[id] = page
		}
		if d.LogicalPages > logical {
			logical = d.LogicalPages
		}
	}
	od.delta = layer
	od.basePages = logical
	od.numPages = logical
	return od, nil
}
