package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/pbitree/pbitree/containment"
)

// This file is the compaction daemon: when an epoch's delta chain grows
// past Config.CompactAfter files, the chain is folded back into a fresh
// self-contained (version-1) database — a new base — and published as the
// next epoch. Compaction runs entirely outside the store lock against an
// immutable epoch snapshot: epoch files are never mutated after publish,
// so the fold can proceed while ingest commits keep landing. If a commit
// publishes a newer epoch before the fold finishes, the stale result is
// discarded (compactAborts) and the daemon retries on a later tick; the
// alternative — holding the lock for the whole fold — would stall ingest
// for exactly the batches compaction exists to speed up.
//
// The write rate is capped by Config.CompactPagesPerSec: after each
// relation is copied, the daemon sleeps long enough that cumulative pages
// written divided by elapsed time stays under the budget. The granularity
// is a relation, not a page — coarse, but it bounds the burst a compaction
// can impose on the disk a serving tier shares.

// compactor is the daemon loop.
func (s *Store) compactor() {
	defer close(s.done)
	t := time.NewTicker(s.cfg.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			due := s.chain >= s.cfg.CompactAfter
			s.mu.Unlock()
			if !due {
				continue
			}
			if err := s.CompactNow(); err != nil {
				// Nothing to do but retry on a later tick; the chain only
				// grows, so the condition re-fires.
				continue
			}
		}
	}
}

// CompactNow folds the current epoch's delta chain into a fresh
// self-contained database and publishes it as the next epoch. Safe to call
// concurrently with Apply: the fold runs against the epoch that was
// current when it started, and aborts (without publishing) if a commit
// supersedes it mid-fold. No-op error when the current epoch is already a
// plain base with no chain.
func (s *Store) CompactNow() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("ingest: store closed")
	}
	srcEpoch, srcPath := s.man.Current, s.cur
	chain := s.chain
	s.mu.Unlock()
	if chain == 0 {
		return fmt.Errorf("ingest: epoch %d has no delta chain to compact", srcEpoch)
	}

	dstEpoch := srcEpoch + 1
	dstPath := filepath.Join(s.dir, fmt.Sprintf("compact-%06d.pbidb", dstEpoch))
	// Fold into a ".tmp-" name invisible to the GC scan: a commit may
	// publish (and sweep unreferenced files) while the fold runs unlocked.
	tmpPath := filepath.Join(s.dir, fmt.Sprintf(".tmp-compact-%06d.pbidb", dstEpoch))
	pages, err := s.fold(srcPath, tmpPath)
	if err != nil {
		removeDBFiles(tmpPath)
		return err
	}

	s.mu.Lock()
	if s.closed || s.man.Current != srcEpoch {
		// A commit published a newer epoch while we folded: our snapshot is
		// stale. Drop it; the daemon retries against the new current.
		cur := s.man.Current
		s.mu.Unlock()
		removeDBFiles(tmpPath)
		s.compactAborts.Add(1)
		return fmt.Errorf("ingest: compaction of epoch %d superseded by epoch %d", srcEpoch, cur)
	}
	// The v1 catalog is self-contained (page IDs, no embedded paths), so
	// the database renames atomically into its published name.
	for _, ext := range []string{"", ".catalog", ".sums"} {
		if err := os.Rename(tmpPath+ext, dstPath+ext); err != nil {
			s.mu.Unlock()
			removeDBFiles(tmpPath)
			removeDBFiles(dstPath)
			return fmt.Errorf("ingest: publish compacted base: %w", err)
		}
	}
	base := filepath.Base(dstPath)
	entry := EpochEntry{
		Epoch:     dstEpoch,
		Path:      base,
		Compacted: true,
		Files:     []string{base, base + ".catalog", base + ".sums"},
		Chain:     []string{base},
	}
	err = s.publishLocked(entry)
	if err != nil {
		s.mu.Unlock()
		removeDBFiles(dstPath)
		return err
	}
	s.cur = dstPath
	s.chain = 0
	s.compactions.Add(1)
	s.compactedPages.Add(uint64(pages))
	s.published = append(s.published, publication{dstEpoch, dstPath})
	s.mu.Unlock()
	s.deliver()
	return nil
}

// fold copies every relation of the source epoch into a fresh writable
// database at dstPath under the I/O budget and saves it as a version-1
// catalog. Returns the pages written.
func (s *Store) fold(srcPath, dstPath string) (int64, error) {
	src, srcRels, err := containment.Open(containment.Config{
		Path: srcPath, ReadOnly: true, BufferPages: s.cfg.BufferPages,
	})
	if err != nil {
		return 0, fmt.Errorf("ingest: compact: open source: %w", err)
	}
	defer src.Close()
	dst, err := containment.NewEngine(containment.Config{
		Path: dstPath, PageSize: src.PageSize(), BufferPages: s.cfg.BufferPages,
		TreeHeight: src.TreeHeight(),
	})
	if err != nil {
		return 0, fmt.Errorf("ingest: compact: create base: %w", err)
	}
	defer dst.Close()

	names := make([]string, 0, len(srcRels))
	for name := range srcRels {
		names = append(names, name)
	}
	sort.Strings(names)

	start := time.Now()
	var pages int64
	var loaded []*containment.Relation
	for _, name := range names {
		codes, err := srcRels[name].Codes()
		if err != nil {
			return 0, fmt.Errorf("ingest: compact: read %s: %w", name, err)
		}
		r, err := dst.Load(name, codes)
		if err != nil {
			return 0, fmt.Errorf("ingest: compact: write %s: %w", name, err)
		}
		loaded = append(loaded, r)
		pages += r.Pages()
		s.throttle(pages, start)
	}
	docs, err := src.Documents()
	if err != nil {
		return 0, fmt.Errorf("ingest: compact: %w", err)
	}
	if err := dst.SaveDocs(docs, loaded...); err != nil {
		return 0, fmt.Errorf("ingest: compact: save base: %w", err)
	}
	return pages, nil
}

// throttle sleeps until cumulative pages written over elapsed time is back
// under the configured budget.
func (s *Store) throttle(pages int64, start time.Time) {
	rate := s.cfg.CompactPagesPerSec
	if rate <= 0 || pages == 0 {
		return
	}
	need := time.Duration(float64(pages) / float64(rate) * float64(time.Second))
	if sleep := need - time.Since(start); sleep > 0 {
		select {
		case <-s.stop:
		case <-time.After(sleep):
		}
	}
}

// removeDBFiles best-effort deletes a database's page file and sidecars.
func removeDBFiles(path string) {
	for _, p := range []string{path, path + ".catalog", path + ".sums", path + ".delta"} {
		if strings.Contains(p, "..") {
			continue
		}
		os.Remove(p) //nolint:errcheck // cleanup of files we just created
	}
}
