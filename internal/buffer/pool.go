// Package buffer implements a fixed-size buffer pool over a storage.Disk
// with clock (second-chance) replacement, playing the role of the Minibase
// buffer manager in the paper's evaluation. The pool size b — the number of
// buffer pages — is the memory budget every join algorithm in this
// repository is written against.
package buffer

import (
	"errors"
	"fmt"
	"sync"

	"github.com/pbitree/pbitree/internal/storage"
)

// ErrNoFrames is returned when every frame in the pool is pinned and a new
// page is requested.
var ErrNoFrames = errors.New("buffer: all frames pinned")

// ErrReleased is returned for a page requested of a released pool.
var ErrReleased = errors.New("buffer: pool released")

// frameSets recycles the frame memory of released pools for pools created
// later, one sync.Pool of *[]byte per size in bytes: a serving tier closes
// and opens engines at every compaction, each with b frames.
var frameSets sync.Map

// takeFrames returns n bytes of frame memory, recycled when a released pool
// left a block of that size. The content is stale: every frame is filled
// whole before it is read (a disk read, a cleared new page, an adoption).
func takeFrames(n int) *[]byte {
	if sp, ok := frameSets.Load(n); ok {
		if mem, ok := sp.(*sync.Pool).Get().(*[]byte); ok {
			return mem
		}
	}
	mem := make([]byte, n)
	return &mem
}

// Stats counts logical page requests served by the pool.
type Stats struct {
	Hits      int64 // requests served without disk I/O
	Misses    int64 // requests that read from disk
	Evictions int64 // frames reused for another page
	Flushes   int64 // dirty pages written back
}

// Sub returns the difference s - t, for measuring a bracketed operation
// (the per-join cache-effectiveness deltas of containment.IOStats).
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Hits:      s.Hits - t.Hits,
		Misses:    s.Misses - t.Misses,
		Evictions: s.Evictions - t.Evictions,
		Flushes:   s.Flushes - t.Flushes,
	}
}

// Interrupter is the check a pool polls before every page request while
// it is installed (SetInterrupt): a non-nil error from Canceled aborts the
// request. A join execution installs its own context, which answers
// whether the request it serves was canceled.
type Interrupter interface {
	Canceled() error
}

// Frame is a pinned page in the pool. Data aliases the pool's frame memory
// and is valid until the matching Unpin; callers that modified Data must
// unpin with dirty = true.
type Frame struct {
	ID   storage.PageID
	Data []byte
	slot int
}

type slot struct {
	id    storage.PageID
	data  []byte
	pins  int
	dirty bool
	ref   bool // clock reference bit
}

// Pool is a buffer pool of b frames over a Disk. It is not safe for
// concurrent use; the engine is single-threaded per join, like the system
// in the paper.
type Pool struct {
	disk  storage.Disk
	slots []slot
	table map[storage.PageID]int
	hand  int
	stats Stats
	// interrupt, when non-nil, is polled before every page request (Fetch
	// and NewPage, hits included) and aborts the operation with its error.
	// Join executions arm it with their cancellation check, giving every
	// algorithm page-granularity cooperative cancellation without touching
	// the algorithms themselves; unarmed executions pay one nil check.
	interrupt Interrupter
	// mem backs every frame's data, one block (nil once released).
	mem *[]byte
	// slabs is the free list scans draw their page decode buffers from
	// (TakeSlab / GiveSlab): a finished scan hands its buffer back and the
	// next scan through this pool reuses it. Like everything else in the
	// pool it belongs to the pool's one goroutine, so it needs no lock, and
	// it holds at most b buffers.
	slabs [][]uint64
}

// New returns a pool of b frames over disk. b must be at least 1.
func New(disk storage.Disk, b int) *Pool {
	if b < 1 {
		panic("buffer: pool needs at least one frame")
	}
	ps := disk.PageSize()
	p := &Pool{
		disk:  disk,
		slots: make([]slot, b),
		table: make(map[storage.PageID]int, b),
		mem:   takeFrames(b * ps),
	}
	for i := range p.slots {
		p.slots[i].id = storage.InvalidPageID
		p.slots[i].data = (*p.mem)[i*ps : (i+1)*ps : (i+1)*ps]
	}
	return p
}

// Release gives the pool's frame memory to pools created later, dropping
// every resident page without write-back: call it once the pool's disk is
// closed. Afterwards every page request fails with ErrReleased. A pool with
// pinned frames keeps its memory.
func (p *Pool) Release() {
	if p.mem == nil || p.PinnedFrames() > 0 {
		return
	}
	sp, _ := frameSets.LoadOrStore(len(*p.mem), &sync.Pool{})
	sp.(*sync.Pool).Put(p.mem)
	p.mem, p.slots, p.table = nil, nil, map[storage.PageID]int{}
}

// TakeSlab returns a buffer of at least n words from the pool's free list,
// allocating only when the list has none that large. The content is stale.
// relation's scanners decode pages into these, typed []uint64 so that this
// package need not know the record layout.
func (p *Pool) TakeSlab(n int) []uint64 {
	if k := len(p.slabs); k > 0 {
		s := p.slabs[k-1]
		p.slabs = p.slabs[:k-1]
		if cap(s) >= n {
			return s[:cap(s)]
		}
		// Too small (a densely compressed page): its replacement below
		// takes its place on the list when the scan gives it back.
	}
	return make([]uint64, n)
}

// GiveSlab puts a buffer obtained from TakeSlab back on the free list. The
// list is capped at b buffers — no algorithm within its budget keeps more
// scans open than it has frames — and anything beyond is left to the GC.
func (p *Pool) GiveSlab(s []uint64) {
	if len(p.slabs) < len(p.slots) {
		p.slabs = append(p.slabs, s)
	}
}

// Size returns the number of frames b.
func (p *Pool) Size() int { return len(p.slots) }

// PageSize returns the underlying disk's page size.
func (p *Pool) PageSize() int { return p.disk.PageSize() }

// Disk returns the underlying disk (for stats inspection).
func (p *Pool) Disk() storage.Disk { return p.disk }

// Stats returns the pool counters.
func (p *Pool) Stats() Stats { return p.stats }

// SetInterrupt installs i as the pool's interrupt check and returns the
// previous one (nil if none), so nested executions can save and restore it.
// While installed, i is polled before every Fetch and NewPage; a non-nil
// return aborts that request with the error. Cleanup paths (Unpin, Evict,
// Discard, FlushAll) are deliberately exempt so an interrupted join can
// always release its pages and temp relations.
func (p *Pool) SetInterrupt(i Interrupter) Interrupter {
	prev := p.interrupt
	p.interrupt = i
	return prev
}

// Resident returns the number of pages currently mapped in the pool,
// pinned or not. Leak tests size the pool larger than the working set and
// assert Resident returns to its pre-join baseline after a (possibly
// interrupted) join has freed its temporaries.
func (p *Pool) Resident() int { return len(p.table) }

// ResetStats zeroes the pool counters.
func (p *Pool) ResetStats() { p.stats = Stats{} }

// Fetch pins the page id and returns its frame, reading it from disk if it
// is not resident.
func (p *Pool) Fetch(id storage.PageID) (Frame, error) {
	if p.mem == nil {
		return Frame{}, ErrReleased
	}
	if p.interrupt != nil {
		if err := p.interrupt.Canceled(); err != nil {
			return Frame{}, err
		}
	}
	if i, ok := p.table[id]; ok {
		p.stats.Hits++
		p.slots[i].pins++
		p.slots[i].ref = true
		return Frame{ID: id, Data: p.slots[i].data, slot: i}, nil
	}
	p.stats.Misses++
	i, err := p.victim()
	if err != nil {
		return Frame{}, err
	}
	if err := p.disk.Read(id, p.slots[i].data); err != nil {
		// The victim slot was already flushed and unmapped; leave it free.
		// This is also the page-integrity gate: a disk armed with checksums
		// (storage.ChecksumSet) fails the Read with storage.ErrCorrupt on a
		// mismatch, so a damaged page never becomes a resident frame — the
		// fetch fails, the query fails with a distinct class, and repeat
		// fetches of the quarantined page fail fast without re-reading.
		return Frame{}, fmt.Errorf("buffer: fetch page %d: %w", id, err)
	}
	p.install(i, id)
	return Frame{ID: id, Data: p.slots[i].data, slot: i}, nil
}

// NewPage allocates a fresh zeroed page on disk, pins it and returns its
// frame. The page is marked dirty so it reaches disk even if untouched.
func (p *Pool) NewPage() (Frame, error) {
	if p.mem == nil {
		return Frame{}, ErrReleased
	}
	if p.interrupt != nil {
		if err := p.interrupt.Canceled(); err != nil {
			return Frame{}, err
		}
	}
	i, err := p.victim()
	if err != nil {
		return Frame{}, err
	}
	id, err := p.disk.Alloc()
	if err != nil {
		return Frame{}, fmt.Errorf("buffer: alloc: %w", err)
	}
	clear(p.slots[i].data)
	p.install(i, id)
	p.slots[i].dirty = true
	return Frame{ID: id, Data: p.slots[i].data, slot: i}, nil
}

// Unpin releases one pin on the frame. dirty marks the page as modified.
func (p *Pool) Unpin(f Frame, dirty bool) {
	s := &p.slots[f.slot]
	if s.id != f.ID || s.pins <= 0 {
		panic(fmt.Sprintf("buffer: bad unpin of page %d (slot holds %d, pins %d)", f.ID, s.id, s.pins))
	}
	s.pins--
	if dirty {
		s.dirty = true
	}
}

// FlushAll writes every dirty resident page back to disk. Pinned pages are
// flushed too (their current content is written).
func (p *Pool) FlushAll() error {
	for i := range p.slots {
		if err := p.flushSlot(i); err != nil {
			return err
		}
	}
	return nil
}

// EvictAll flushes every dirty page (in FlushAll's order) and then drops
// every resident page, leaving the pool cold. It fails, after the flush,
// on the first pinned page. The cost is one walk over the b frames however
// large the disk is.
func (p *Pool) EvictAll() error {
	if err := p.FlushAll(); err != nil {
		return err
	}
	for i := range p.slots {
		s := &p.slots[i]
		if s.id == storage.InvalidPageID {
			continue
		}
		if s.pins > 0 {
			return fmt.Errorf("buffer: evict pinned page %d", s.id)
		}
		delete(p.table, s.id)
		s.id = storage.InvalidPageID
		s.ref = false
	}
	return nil
}

// Evict drops the page from the pool if resident and unpinned, flushing it
// first when dirty. It is a no-op for non-resident pages and an error for
// pinned ones. Relations use it to drop pages of temporary files that were
// just deleted.
func (p *Pool) Evict(id storage.PageID) error {
	i, ok := p.table[id]
	if !ok {
		return nil
	}
	if p.slots[i].pins > 0 {
		return fmt.Errorf("buffer: evict pinned page %d", id)
	}
	if err := p.flushSlot(i); err != nil {
		return err
	}
	delete(p.table, id)
	p.slots[i].id = storage.InvalidPageID
	p.slots[i].ref = false
	return nil
}

// Discard drops the page from the pool if resident and unpinned, WITHOUT
// flushing dirty content — the page's data is dead (its file was deleted).
// Freeing temporary relations uses this so that partitions and sort runs
// that lived and died inside the buffer never cost write I/O, exactly like
// temp files in a real engine.
func (p *Pool) Discard(id storage.PageID) error {
	i, ok := p.table[id]
	if !ok {
		return nil
	}
	if p.slots[i].pins > 0 {
		return fmt.Errorf("buffer: discard pinned page %d", id)
	}
	delete(p.table, id)
	p.slots[i].id = storage.InvalidPageID
	p.slots[i].ref = false
	p.slots[i].dirty = false
	return nil
}

// Peek returns the content of page id if it is resident, without pinning
// it or counting a request. The bytes alias the frame: read them before
// the pool is used again.
func (p *Pool) Peek(id storage.PageID) ([]byte, bool) {
	i, ok := p.table[id]
	if !ok {
		return nil, false
	}
	return p.slots[i].data, true
}

// Adopt makes a clean copy of data resident as page id in a free frame
// without reading the disk, evicting nothing: the caller vouches that data
// is what a read of the page would return. It reports false when the page
// is resident already or no frame is free.
func (p *Pool) Adopt(id storage.PageID, data []byte) bool {
	if _, ok := p.table[id]; ok {
		return false
	}
	for i := range p.slots {
		if p.slots[i].id == storage.InvalidPageID {
			copy(p.slots[i].data, data)
			p.install(i, id)
			p.slots[i].pins = 0
			return true
		}
	}
	return false
}

// PinnedFrames returns the number of frames currently pinned (for tests and
// leak detection).
func (p *Pool) PinnedFrames() int {
	n := 0
	for i := range p.slots {
		if p.slots[i].pins > 0 {
			n++
		}
	}
	return n
}

func (p *Pool) flushSlot(i int) error {
	s := &p.slots[i]
	if s.id == storage.InvalidPageID || !s.dirty {
		return nil
	}
	if err := p.disk.Write(s.id, s.data); err != nil {
		return fmt.Errorf("buffer: flush page %d: %w", s.id, err)
	}
	p.stats.Flushes++
	s.dirty = false
	return nil
}

// install maps slot i to page id with one pin.
func (p *Pool) install(i int, id storage.PageID) {
	s := &p.slots[i]
	s.id = id
	s.pins = 1
	s.dirty = false
	s.ref = true
	p.table[id] = i
}

// victim finds a free or evictable slot using the clock algorithm, flushes
// its dirty content, unmaps it and returns its index.
func (p *Pool) victim() (int, error) {
	// Two full sweeps: the first clears reference bits, the second takes
	// the first unpinned frame.
	for pass := 0; pass < 2*len(p.slots); pass++ {
		i := p.hand
		p.hand = (p.hand + 1) % len(p.slots)
		s := &p.slots[i]
		if s.id == storage.InvalidPageID {
			return i, nil
		}
		if s.pins > 0 {
			continue
		}
		if s.ref {
			s.ref = false
			continue
		}
		if err := p.flushSlot(i); err != nil {
			return 0, err
		}
		p.stats.Evictions++
		delete(p.table, s.id)
		s.id = storage.InvalidPageID
		return i, nil
	}
	return 0, ErrNoFrames
}
