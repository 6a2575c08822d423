package containment

import (
	"fmt"
	"path/filepath"
	"slices"

	"github.com/pbitree/pbitree/internal/storage"
)

// This file writes epoch databases: immutable snapshots of a read-only
// engine's state, published as a version-2 catalog that references the
// original base page file plus a chain of delta files (storage.WriteDelta).
// The live-ingest write path (internal/ingest) opens epoch N read-only,
// applies a batch of updates through the engine's relations — every write
// lands in the engine's private overlay, the base is never touched — and
// calls SaveEpoch to freeze the overlay as epoch N+1's delta. Queries keep
// serving epoch N throughout; the swap to N+1 is a manifest update, not a
// file mutation, and an engine serving N moves onto N+1 with Advance, which
// reads the one new delta instead of reopening the chain. Compaction
// (internal/ingest) periodically folds a long chain back into a fresh
// self-contained database, restarting the chain; engines reopen onto it.

// SaveEpoch freezes the engine's current state as an epoch database at
// path: path+".delta" receives every page the engine has written or
// allocated since open (the overlay snapshot), and path+".catalog" a
// version-2 catalog chaining that delta after the engine's existing delta
// chain over its base page file. Base and chain are recorded relative to
// path's directory; the base file and prior deltas are not copied, so the
// epoch is only valid alongside them (ingest keeps the whole family in one
// epochs directory).
//
// The engine must have been created by Open with Config.ReadOnly — only
// then is the write set isolated in an overlay — and the overlay must hold
// nothing but committed data: call ReleaseTemp after any query work before
// applying the update batch. Both the delta and the catalog are written
// via tmp+rename; a crash between the two leaves a delta without a catalog,
// which nothing references and compaction's GC removes. Afterwards the
// engine is at the new epoch, as if Advance had moved it there, and the
// relations passed in are that epoch's.
func (e *Engine) SaveEpoch(path string, epoch int64, docs []DocInfo, relations ...*Relation) error {
	od, ok := e.disk.(*storage.OverlayDisk)
	if !ok {
		return fmt.Errorf("containment: SaveEpoch requires a read-only (overlay) engine")
	}
	if e.base == "" {
		return fmt.Errorf("containment: SaveEpoch requires an engine created by Open")
	}
	if err := e.pool.FlushAll(); err != nil {
		return err
	}
	snap, logical := od.OverlaySnapshot()
	deltaPath := path + ".delta"
	if err := storage.WriteDelta(deltaPath, e.cfg.PageSize, logical, snap); err != nil {
		return fmt.Errorf("containment: write epoch delta: %w", err)
	}

	cat, err := e.newCatalog(catalogVersionEpoch, docs, relations)
	if err != nil {
		return err
	}
	cat.Epoch, cat.Checksums = epoch, e.checksums
	dir := filepath.Dir(path)
	relTo := func(target string) (string, error) {
		rel, err := filepath.Rel(dir, target)
		if err != nil {
			return "", fmt.Errorf("containment: epoch file %s not addressable from %s: %w", target, dir, err)
		}
		return rel, nil
	}
	if cat.Base, err = relTo(e.base); err != nil {
		return err
	}
	for _, d := range append(append([]string(nil), e.deltas...), deltaPath) {
		rel, err := relTo(d)
		if err != nil {
			return err
		}
		cat.Deltas = append(cat.Deltas, rel)
	}
	if err := writeCatalog(path, cat); err != nil {
		return err
	}
	// The engine now reads the epoch it published as one that opened it
	// would: what the overlay held is the newest layer of its image, and
	// the buffer pool, whose frames hold those same bytes, stays warm.
	od.Release()
	if err := od.AppendDelta(&storage.Delta{PageSize: e.cfg.PageSize, LogicalPages: logical, Pages: snap}); err != nil {
		return err
	}
	e.deltas = append(e.deltas, deltaPath)
	e.epoch = epoch
	e.docs = cat.Documents
	return nil
}

// Advance moves a read-only engine created by Open onto a later epoch of
// the same base — the epoch database at path — without reopening: it reads
// the epoch's catalog and only the delta files the engine's chain lacks,
// layers them over its disk, and drops from the buffer pool exactly the
// page IDs those deltas carry. Every other frame, and the engine's working
// memory, stays warm. Temporary state is released first, as ReleaseTemp
// does. It returns the epoch's relations; the previous epoch's must not be
// used again.
//
// An epoch over another base (a compaction's), or whose chain does not
// extend the engine's, cannot be advanced to: the caller opens it instead.
// On that and every other error the engine is left as it was.
func (e *Engine) Advance(path string) (map[string]*Relation, error) {
	od, ok := e.disk.(*storage.OverlayDisk)
	if !ok || e.base == "" {
		return nil, fmt.Errorf("containment: Advance requires a read-only engine created by Open")
	}
	cat, err := readCatalog(path)
	if err != nil {
		return nil, err
	}
	base, deltas, err := cat.files(path)
	if err != nil {
		return nil, err
	}
	n := len(e.deltas)
	if filepath.Clean(base) != filepath.Clean(e.base) || cat.Checksums != e.checksums ||
		len(deltas) < n || !slices.Equal(deltas[:n], e.deltas) {
		return nil, fmt.Errorf("containment: %s is not a later epoch over this engine's base and chain", path)
	}
	if cat.PageSize != e.cfg.PageSize {
		return nil, fmt.Errorf("containment: page size %d differs from the engine's %d", cat.PageSize, e.cfg.PageSize)
	}
	if pinned := e.pool.PinnedFrames(); pinned > 0 {
		return nil, fmt.Errorf("containment: Advance with %d pages pinned", pinned)
	}
	layers := make([]*storage.Delta, 0, len(deltas)-n)
	extent := od.BaseNumPages()
	for _, dp := range deltas[n:] {
		d, err := storage.ReadDelta(dp, e.cfg.PageSize)
		if err != nil {
			return nil, fmt.Errorf("containment: read epoch delta: %w", err)
		}
		layers = append(layers, d)
		extent = max(extent, d.LogicalPages)
	}
	rels, err := e.attach(cat, extent)
	if err != nil {
		return nil, err
	}
	if err := e.ReleaseTemp(); err != nil {
		return nil, err
	}
	for _, d := range layers {
		if err := od.AppendDelta(d); err != nil {
			return nil, err // unreachable: overlay released, page size checked
		}
		for id := range d.Pages {
			e.pool.Discard(id) //nolint:errcheck // nothing is pinned
		}
	}
	e.deltas, e.epoch, e.docs = deltas, cat.Epoch, cat.Documents
	e.cfg.TreeHeight = max(e.heightFloor, cat.TreeHeight)
	return rels, nil
}
