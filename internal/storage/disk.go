// Package storage provides the paged storage substrate the join engine runs
// on: fixed-size pages addressed by PageID, with in-memory and file-backed
// implementations, per-access I/O accounting, and a virtual disk clock that
// charges calibrated costs for sequential vs random page accesses.
//
// It plays the role of the (modified, raw-disk) Minibase storage manager in
// the paper's evaluation. The paper's measurements are explicitly I/O
// bound; the virtual clock lets the benchmark harness report elapsed times
// with the same cost structure as a 2003-era disk regardless of the host's
// actual storage stack.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// PageID identifies a page of a Disk. Pages are numbered from 0 in
// allocation order.
type PageID int64

// InvalidPageID is the sentinel "no page" value.
const InvalidPageID PageID = -1

// DefaultPageSize is the page size used unless configured otherwise. It is
// also the unit of the paper's ‖R‖ page counts and buffer pool sizing.
const DefaultPageSize = 4096

// Stats counts physical page accesses. An access is sequential when it
// targets the page immediately following the previously accessed page
// (reads and writes share the head position, as on a single-spindle disk).
type Stats struct {
	Reads     int64
	Writes    int64
	SeqReads  int64
	SeqWrites int64
	Allocs    int64
	VirtualIO time.Duration // accumulated virtual disk time
}

// RandReads returns the number of non-sequential reads.
func (s Stats) RandReads() int64 { return s.Reads - s.SeqReads }

// RandWrites returns the number of non-sequential writes.
func (s Stats) RandWrites() int64 { return s.Writes - s.SeqWrites }

// Total returns the total number of page I/Os.
func (s Stats) Total() int64 { return s.Reads + s.Writes }

// Sub returns the difference s - t, for measuring a bracketed operation.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Reads:     s.Reads - t.Reads,
		Writes:    s.Writes - t.Writes,
		SeqReads:  s.SeqReads - t.SeqReads,
		SeqWrites: s.SeqWrites - t.SeqWrites,
		Allocs:    s.Allocs - t.Allocs,
		VirtualIO: s.VirtualIO - t.VirtualIO,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d (seq %d) writes=%d (seq %d) vio=%v",
		s.Reads, s.SeqReads, s.Writes, s.SeqWrites, s.VirtualIO)
}

// CostModel assigns virtual time to page accesses. The defaults model the
// paper's hardware class (a year-2000 30 GB IDE disk): ~10 ms for a random
// page access (seek + rotational latency) and ~0.2 ms to transfer a 4 KiB
// page sequentially.
type CostModel struct {
	Random     time.Duration
	Sequential time.Duration
}

// DefaultCostModel is the calibrated 2003-era disk used by the benchmarks.
var DefaultCostModel = CostModel{Random: 10 * time.Millisecond, Sequential: 200 * time.Microsecond}

// Disk is a page store. Implementations in this package are safe for
// concurrent use. Accounting is serialized with the data access, so
// Reads/Writes/Allocs totals are exact under concurrency; the
// sequential-vs-random split and the virtual clock depend on the physical
// access interleaving and are therefore scheduling-dependent once more
// than one buffer pool shares a disk.
type Disk interface {
	// PageSize returns the fixed size of every page in bytes.
	PageSize() int
	// Read fills p (which must be PageSize bytes) with the page's content.
	Read(id PageID, p []byte) error
	// Write stores p (which must be PageSize bytes) as the page's content.
	Write(id PageID, p []byte) error
	// Alloc extends the disk by one page and returns its ID.
	Alloc() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() PageID
	// Stats returns the access counters accumulated since ResetStats.
	Stats() Stats
	// ResetStats zeroes the access counters and the virtual clock.
	ResetStats()
	// Close releases underlying resources.
	Close() error
}

// accounting implements the shared counter/virtual-clock logic.
type accounting struct {
	stats Stats
	cost  CostModel
	last  PageID // last accessed page, for sequential detection
}

func newAccounting(cost CostModel) accounting {
	return accounting{cost: cost, last: InvalidPageID - 1}
}

func (a *accounting) onRead(id PageID) {
	a.stats.Reads++
	if id == a.last+1 {
		a.stats.SeqReads++
		a.stats.VirtualIO += a.cost.Sequential
	} else {
		a.stats.VirtualIO += a.cost.Random
	}
	a.last = id
}

func (a *accounting) onWrite(id PageID) {
	a.stats.Writes++
	if id == a.last+1 {
		a.stats.SeqWrites++
		a.stats.VirtualIO += a.cost.Sequential
	} else {
		a.stats.VirtualIO += a.cost.Random
	}
	a.last = id
}

func (a *accounting) reset() {
	a.stats = Stats{}
	a.last = InvalidPageID - 1
}

// errPageRange is returned for out-of-range page IDs.
var errPageRange = errors.New("storage: page id out of range")

// ErrClosed is returned by operations on a closed disk.
var ErrClosed = errors.New("storage: disk is closed")

func checkBuf(p []byte, pageSize int) error {
	if len(p) != pageSize {
		return fmt.Errorf("storage: buffer size %d != page size %d", len(p), pageSize)
	}
	return nil
}

// MemDisk is an in-memory Disk, used by tests and by in-process engines
// that only want I/O accounting.
type MemDisk struct {
	mu sync.Mutex
	accounting
	pageSize int
	pages    [][]byte
	closed   bool
}

// NewMemDisk returns an empty in-memory disk with the given page size and
// cost model. A zero cost model disables the virtual clock.
func NewMemDisk(pageSize int, cost CostModel) *MemDisk {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &MemDisk{accounting: newAccounting(cost), pageSize: pageSize}
}

// PageSize implements Disk.
func (d *MemDisk) PageSize() int { return d.pageSize }

// NumPages implements Disk.
func (d *MemDisk) NumPages() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return PageID(len(d.pages))
}

// Read implements Disk.
func (d *MemDisk) Read(id PageID, p []byte) error {
	if err := checkBuf(p, d.pageSize); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if id < 0 || int(id) >= len(d.pages) {
		return fmt.Errorf("%w: read %d of %d", errPageRange, id, len(d.pages))
	}
	d.onRead(id)
	copy(p, d.pages[id])
	return nil
}

// Write implements Disk.
func (d *MemDisk) Write(id PageID, p []byte) error {
	if err := checkBuf(p, d.pageSize); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if id < 0 || int(id) >= len(d.pages) {
		return fmt.Errorf("%w: write %d of %d", errPageRange, id, len(d.pages))
	}
	d.onWrite(id)
	copy(d.pages[id], p)
	return nil
}

// Alloc implements Disk.
func (d *MemDisk) Alloc() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return InvalidPageID, ErrClosed
	}
	d.stats.Allocs++
	d.pages = append(d.pages, make([]byte, d.pageSize))
	return PageID(len(d.pages) - 1), nil
}

// Stats implements Disk.
func (d *MemDisk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats implements Disk.
func (d *MemDisk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reset()
}

// Close implements Disk.
func (d *MemDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.pages = nil
	return nil
}

// FileDisk is a Disk backed by a single operating-system file, page i at
// offset i*PageSize. The mutex covers the whole page operation, file I/O
// included: the model being charged is a single-spindle disk with one
// head, so serializing the transfers keeps the accounting coherent.
type FileDisk struct {
	mu sync.Mutex
	accounting
	pageSize int
	f        *os.File
	numPages PageID
	closed   bool
	sums     *ChecksumSet // nil: no verification (see SetChecksums)
}

// SetChecksums arms page-integrity verification: every subsequent Read is
// checked against the set (failing with a *CorruptPageError on mismatch)
// and every Write updates the set, so the in-memory sums always track the
// file. Arm before sharing the disk; nil disarms.
func (d *FileDisk) SetChecksums(cs *ChecksumSet) {
	d.mu.Lock()
	d.sums = cs
	d.mu.Unlock()
}

// OpenFileDisk creates (or truncates) the file at path and returns an empty
// FileDisk over it.
func OpenFileDisk(path string, pageSize int, cost CostModel) (*FileDisk, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open disk file: %w", err)
	}
	return &FileDisk{accounting: newAccounting(cost), pageSize: pageSize, f: f}, nil
}

// ReopenFileDisk opens an existing disk file, preserving its pages; the
// page count comes from the file size (partial trailing pages are an
// error).
func ReopenFileDisk(path string, pageSize int, cost CostModel) (*FileDisk, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: reopen disk file: %w", err)
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
	return &FileDisk{
		accounting: newAccounting(cost),
		pageSize:   pageSize,
		f:          f,
		numPages:   PageID(st.Size() / int64(pageSize)),
	}, nil
}

// Sync flushes the backing file to stable storage.
func (d *FileDisk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.f.Sync()
}

// PageSize implements Disk.
func (d *FileDisk) PageSize() int { return d.pageSize }

// NumPages implements Disk.
func (d *FileDisk) NumPages() PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.numPages
}

// Read implements Disk.
func (d *FileDisk) Read(id PageID, p []byte) error {
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
	n, err := d.f.ReadAt(p, int64(id)*int64(d.pageSize))
	if err != nil && err != io.EOF {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	// Pages allocated but never written read back as zeroes.
	for i := n; i < len(p); i++ {
		p[i] = 0
	}
	if d.sums != nil {
		return d.sums.Verify(id, p)
	}
	return nil
}

// Write implements Disk.
func (d *FileDisk) Write(id PageID, p []byte) error {
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
	if _, err := d.f.WriteAt(p, int64(id)*int64(d.pageSize)); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	if d.sums != nil {
		d.sums.Update(id, p)
	}
	return nil
}

// Alloc implements Disk.
func (d *FileDisk) Alloc() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return InvalidPageID, ErrClosed
	}
	d.stats.Allocs++
	id := d.numPages
	d.numPages++
	// Extend the file lazily; a zero page is written on first Write.
	return id, nil
}

// Stats implements Disk.
func (d *FileDisk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats implements Disk.
func (d *FileDisk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reset()
}

// Close implements Disk.
func (d *FileDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.f.Close()
}

// Path returns the backing file's name.
func (d *FileDisk) Path() string { return d.f.Name() }
