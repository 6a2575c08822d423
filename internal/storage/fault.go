package storage

import (
	"errors"
	"sync"
	"time"
)

// ErrInjected is the error produced by a FaultDisk when a fault fires.
var ErrInjected = errors.New("storage: injected fault")

// FaultDisk wraps a Disk and fails operations according to a programmable
// schedule. It is used by tests to drive error paths through the buffer
// pool, heap files, sort, indexes and joins. The fault schedule
// (FailReadAfter etc., BadPages, OnRead) must be armed before the disk is
// shared; once operations are in flight only the internal counters mutate,
// and those are mutex-protected so a FaultDisk is as safe for concurrent
// use as any other Disk.
type FaultDisk struct {
	Disk
	// FailReadAfter makes the Nth subsequent read (1-based) and all later
	// reads fail when > 0.
	FailReadAfter int64
	// FailWriteAfter makes the Nth subsequent write and all later writes
	// fail when > 0.
	FailWriteAfter int64
	// FailAllocAfter makes the Nth subsequent Alloc and all later Allocs
	// fail when > 0.
	FailAllocAfter int64
	// BadPages lists page IDs whose reads and writes always fail.
	BadPages map[PageID]bool
	// OnRead, when non-nil, runs before every read (after the read counter
	// is incremented) and fails the read with its error when non-nil. Tests
	// use it to trigger cancellation or faults at exact page touches.
	OnRead func(PageID) error
	// CorruptPages maps page IDs to a silent corruption applied to the
	// buffer after the underlying read succeeds — the read itself reports
	// no error, exactly like real media corruption. Only a checksum layer
	// (ChecksumSet) can catch it.
	CorruptPages map[PageID]Corruption
	// ReadDelay stalls every read for the given duration before it reaches
	// the underlying disk — a brownout, not an outage: the node stays up
	// but every query crawls. Tests use it to drive retry-storm and
	// hedging behavior.
	ReadDelay time.Duration

	mu                    sync.Mutex
	reads, writes, allocs int64
}

// Corruption selects how a CorruptPages entry mangles the page content.
type Corruption int

const (
	// CorruptBitFlip flips a single bit in the middle of the page — the
	// classic undetected media error.
	CorruptBitFlip Corruption = iota + 1
	// CorruptTorn zeroes the second half of the page, modeling a torn
	// write: the first sectors hit the platter, the rest never did.
	CorruptTorn
)

// corrupt applies the injected damage to a successfully read page.
func (c Corruption) corrupt(p []byte) {
	if len(p) == 0 {
		return
	}
	switch c {
	case CorruptBitFlip:
		p[len(p)/2] ^= 0x10
	case CorruptTorn:
		clear(p[len(p)/2:])
	}
}

// NewFaultDisk wraps d with no faults armed.
func NewFaultDisk(d Disk) *FaultDisk { return &FaultDisk{Disk: d} }

// Read implements Disk.
func (d *FaultDisk) Read(id PageID, p []byte) error {
	d.mu.Lock()
	d.reads++
	reads := d.reads
	d.mu.Unlock()
	if d.OnRead != nil {
		if err := d.OnRead(id); err != nil {
			return err
		}
	}
	if d.FailReadAfter > 0 && reads >= d.FailReadAfter {
		return ErrInjected
	}
	if d.BadPages[id] {
		return ErrInjected
	}
	if d.ReadDelay > 0 {
		time.Sleep(d.ReadDelay)
	}
	if err := d.Disk.Read(id, p); err != nil {
		return err
	}
	if c := d.CorruptPages[id]; c != 0 {
		c.corrupt(p)
	}
	return nil
}

// Write implements Disk.
func (d *FaultDisk) Write(id PageID, p []byte) error {
	d.mu.Lock()
	d.writes++
	writes := d.writes
	d.mu.Unlock()
	if d.FailWriteAfter > 0 && writes >= d.FailWriteAfter {
		return ErrInjected
	}
	if d.BadPages[id] {
		return ErrInjected
	}
	return d.Disk.Write(id, p)
}

// Alloc implements Disk.
func (d *FaultDisk) Alloc() (PageID, error) {
	d.mu.Lock()
	d.allocs++
	allocs := d.allocs
	d.mu.Unlock()
	if d.FailAllocAfter > 0 && allocs >= d.FailAllocAfter {
		return InvalidPageID, ErrInjected
	}
	return d.Disk.Alloc()
}
