package storage

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// OverlayDisk is a Disk over an immutable base page file opened read-only,
// with every write and new allocation absorbed by a private in-memory
// overlay. Any number of OverlayDisks may be open over the same file at
// once — each holds its own descriptor, its own overlay and its own I/O
// accounting — which is what lets N single-threaded engines serve queries
// from one shared database concurrently (see containment.Config.ReadOnly
// and internal/qserv).
//
// Semantics:
//
//   - Reads of base pages come from the file unless the page has been
//     written through this overlay, in which case the private copy wins
//     (copy-on-write; the file is never modified).
//   - Alloc extends the page space beyond the base; those pages live only
//     in the overlay. An allocated-but-unwritten page reads as zeroes,
//     matching FileDisk.
//   - Release drops the whole overlay: allocated pages disappear, modified
//     base pages revert to their on-file content, and NumPages returns to
//     the base count. Callers must ensure no live data (and no resident
//     buffer-pool frame) references overlay state first; long-running
//     servers call it between requests so temporary join state cannot
//     accumulate. The page buffers themselves are recycled: the next
//     writes reuse them instead of allocating, so a serving engine's
//     overlay memory stays at the peak of its largest join instead of
//     being reallocated (and garbage-collected) on every request.
//
// All accesses — base or overlay — feed the same sequential/random
// accounting and virtual clock as FileDisk, so cost shapes match a
// read-write engine spooling real temporary files.
type OverlayDisk struct {
	mu sync.Mutex
	accounting
	pageSize  int
	f         *os.File
	filePages PageID // pages physically present in the base file
	basePages PageID // immutable extent: file plus delta layer (== filePages without deltas)
	// delta is the immutable epoch layer (see OpenOverlayLayered): pages
	// from the epoch's delta chain that override or extend the base file.
	// Nil for plain OpenOverlay disks. Its pages are never written; the
	// map only grows, under mu, as AppendDelta links the next delta.
	delta   map[PageID][]byte
	overlay map[PageID][]byte
	// free holds the page buffers of released overlays for Write to reuse.
	// Their content is stale; Write overwrites a whole page, and a page
	// that was only allocated has no buffer at all, so stale bytes are
	// never read. Together with overlay it never exceeds the overlay's
	// high-water mark.
	free     [][]byte
	numPages PageID
	closed   bool
	sums     *ChecksumSet // nil: no verification (see SetChecksums)
}

// SetChecksums arms page-integrity verification for base-file reads: a
// page served from the immutable file is checked against the set and fails
// with a *CorruptPageError on mismatch. Overlay pages — this engine's own
// in-memory writes — are never verified: they legitimately diverge from
// the base the checksums describe. The set may be shared across every
// OverlayDisk open over the same file (it is concurrency-safe), so one
// engine's corruption discovery quarantines the page for the whole pool.
func (d *OverlayDisk) SetChecksums(cs *ChecksumSet) {
	d.mu.Lock()
	d.sums = cs
	d.mu.Unlock()
}

// OpenOverlay opens the page file at path read-only and returns an
// OverlayDisk over it. The file is never written; see OverlayDisk.
func OpenOverlay(path string, pageSize int, cost CostModel) (*OverlayDisk, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open read-only disk file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat disk file: %w", err)
	}
	if st.Size()%int64(pageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: file size %d is not a multiple of page size %d", st.Size(), pageSize)
	}
	base := PageID(st.Size() / int64(pageSize))
	return &OverlayDisk{
		accounting: newAccounting(cost),
		pageSize:   pageSize,
		f:          f,
		filePages:  base,
		basePages:  base,
		overlay:    map[PageID][]byte{},
		numPages:   base,
	}, nil
}

// PageSize implements Disk.
func (d *OverlayDisk) PageSize() int { return d.pageSize }

// NumPages implements Disk.
func (d *OverlayDisk) NumPages() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.numPages
}

// BaseNumPages returns the number of pages in the immutable epoch image:
// the base file plus its delta layer. Pages at or beyond this ID exist
// only in the overlay.
func (d *OverlayDisk) BaseNumPages() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.basePages
}

// OverlayPages returns the number of pages currently materialized in the
// overlay (allocations plus copy-on-write copies) — a memory gauge.
func (d *OverlayDisk) OverlayPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.overlay)
}

// DeltaPages returns the number of pages in the immutable epoch delta
// layer (0 for plain overlays) — a chain-size gauge for compaction policy.
func (d *OverlayDisk) DeltaPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.delta)
}

// OverlaySnapshot returns a copy of the private overlay — every page this
// disk has written or allocated since open (or the last Release) — along
// with the disk's current page count. containment.SaveEpoch turns the
// snapshot into the next epoch's delta file: the overlay is exactly the
// set of pages that differ from the epoch image the disk was opened over.
func (d *OverlayDisk) OverlaySnapshot() (map[PageID][]byte, PageID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	snap := make(map[PageID][]byte, len(d.overlay))
	for id, data := range d.overlay {
		p := make([]byte, len(data))
		copy(p, data)
		snap[id] = p
	}
	return snap, d.numPages
}

// Read implements Disk.
func (d *OverlayDisk) Read(id PageID, p []byte) error {
	if err := checkBuf(p, d.pageSize); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if id < 0 || id >= d.numPages {
		return fmt.Errorf("%w: read %d of %d", errPageRange, id, d.numPages)
	}
	d.onRead(id)
	if data, ok := d.overlay[id]; ok {
		copy(p, data)
		return nil
	}
	if data, ok := d.delta[id]; ok {
		// Epoch delta layer: whole-file CRC-verified when loaded, so no
		// per-read verification here.
		copy(p, data)
		return nil
	}
	if id >= d.filePages {
		// Allocated but never written: zero page.
		clear(p)
		return nil
	}
	n, err := d.f.ReadAt(p, int64(id)*int64(d.pageSize))
	if err != nil && err != io.EOF {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	for i := n; i < len(p); i++ {
		p[i] = 0
	}
	if d.sums != nil {
		return d.sums.Verify(id, p)
	}
	return nil
}

// BaseHolds reports whether p is what Read returns for page id, as the
// checksums of a base-file page tell: id is a page of the file that no
// delta layer or write overrides, and p matches its recorded checksum. A
// disk without checksums vouches for nothing.
func (d *OverlayDisk) BaseHolds(id PageID, p []byte) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sums == nil || id < 0 || id >= d.filePages {
		return false
	}
	if _, ok := d.overlay[id]; ok {
		return false
	}
	if _, ok := d.delta[id]; ok {
		return false
	}
	return d.sums.Matches(id, p)
}

// Write implements Disk. The base file is untouched; the page content is
// retained in the overlay.
func (d *OverlayDisk) Write(id PageID, p []byte) error {
	if err := checkBuf(p, d.pageSize); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if id < 0 || id >= d.numPages {
		return fmt.Errorf("%w: write %d of %d", errPageRange, id, d.numPages)
	}
	d.onWrite(id)
	data, ok := d.overlay[id]
	if !ok {
		if n := len(d.free); n > 0 {
			data, d.free = d.free[n-1], d.free[:n-1]
		} else {
			data = make([]byte, d.pageSize)
		}
		d.overlay[id] = data
	}
	copy(data, p)
	return nil
}

// Alloc implements Disk. The new page lives only in the overlay.
func (d *OverlayDisk) Alloc() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return InvalidPageID, ErrClosed
	}
	d.stats.Allocs++
	id := d.numPages
	d.numPages++
	return id, nil
}

// Release drops the overlay, reverting the disk to the base file's state:
// pages allocated beyond the base disappear and modified base pages read
// back their on-file content again. The page buffers move to the free list
// Write draws from. I/O counters are unaffected.
func (d *OverlayDisk) Release() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, data := range d.overlay {
		d.free = append(d.free, data)
	}
	clear(d.overlay)
	d.numPages = d.basePages
}

// Stats implements Disk.
func (d *OverlayDisk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats implements Disk.
func (d *OverlayDisk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reset()
}

// Close implements Disk.
func (d *OverlayDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	d.overlay, d.free = nil, nil
	return d.f.Close()
}

// Path returns the base file's name.
func (d *OverlayDisk) Path() string { return d.f.Name() }
