// Package ingest is the live write path over an immutable pbitree
// database: epoch-based snapshots, online re-encoding with gap-aware code
// assignment, and a background compaction daemon.
//
// The serving tier (internal/qserv) holds the paper's invariant that query
// execution runs over an immutable page file. Ingest preserves it by never
// mutating the file queries read: updates apply to an in-memory forest of
// the stored collection (rebuilt from the stored (tag, code) pairs via
// xmltree.FromCodes), new codes are assigned from the PBiTree embedding's
// virtual-node gaps (the paper's §2.3.2 observation, extended with a
// reserved overflow region in the spirit of Tropashko's nested-intervals
// gap schemes), and each committed batch is frozen as epoch N+1 — a delta
// file layered over the same base plus a catalog of what the batch changed
// over epoch N's (see containment.SaveEpoch). An atomic manifest swap publishes the new epoch;
// queries that started on epoch N finish on epoch N. When the delta chain
// grows long, the compaction daemon folds it back into a fresh
// self-contained database under a configurable I/O budget and the chain
// restarts. See doc/INGEST.md.
package ingest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// manifestName is the swap file inside the epochs directory.
const manifestName = "MANIFEST.json"

// EpochEntry is one published epoch in the manifest.
type EpochEntry struct {
	Epoch int64 `json:"epoch"`
	// Path is the epoch's database path (catalog basename without the
	// ".catalog" suffix) relative to the epochs directory. Epoch 0 points
	// back at the original database outside the directory ("../<db>").
	Path string `json:"path"`
	// Compacted marks a self-contained (version-1) database produced by the
	// compaction daemon — a new base; delta epochs chain over the nearest
	// compacted/original base below them.
	Compacted bool `json:"compacted,omitempty"`
	// Files are the files this epoch owns (relative to the epochs
	// directory): its catalog and delta, or a compacted database's page
	// file, catalog and checksum sidecar. Epoch 0 owns nothing — the
	// original database is never garbage-collected.
	Files []string `json:"files,omitempty"`
	// Chain is every file the epoch depends on (base page file, all
	// deltas and every catalog its catalog folds over, relative; the
	// base's checksum sidecar rides along with it). Retirement GC deletes a
	// pruned entry's Files and Chain that no retained epoch's Chain or
	// Files references.
	Chain []string `json:"chain,omitempty"`
	// DeltaPages is how many pages a delta epoch's commit wrote into its
	// delta file (0 for base and compacted epochs, and for entries written
	// before the field existed).
	DeltaPages int64 `json:"delta_pages,omitempty"`
}

// Manifest is the epochs directory's swap record: which epochs exist and
// which one is current. It is rewritten atomically (tmp+rename) on every
// publication, so readers see either the old or the new epoch, never a
// half-written state.
type Manifest struct {
	Current int64        `json:"current"`
	Epochs  []EpochEntry `json:"epochs"`
}

// epochsDir returns the directory holding a database's epochs and manifest.
func epochsDir(dbPath string) string { return dbPath + ".epochs" }

// loadManifest reads the manifest in dir; a missing file returns (nil, nil)
// so callers can initialize a fresh directory.
func loadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("ingest: parse manifest: %w", err)
	}
	sort.Slice(m.Epochs, func(i, j int) bool { return m.Epochs[i].Epoch < m.Epochs[j].Epoch })
	return &m, nil
}

// save writes the manifest atomically into dir.
func (m *Manifest) save(dir string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, manifestName))
}

// entry returns the manifest entry for an epoch, or nil.
func (m *Manifest) entry(epoch int64) *EpochEntry {
	for i := range m.Epochs {
		if m.Epochs[i].Epoch == epoch {
			return &m.Epochs[i]
		}
	}
	return nil
}

// resolve returns an entry's database path as an absolute/openable path.
func resolve(dir string, e *EpochEntry) string {
	return filepath.Join(dir, e.Path)
}

// EpochList is a read-only view of a database's epoch family for tooling
// (pbidb epochs, pbifsck): the manifest contents plus the directory they
// resolve against, obtained without rebuilding the forest the way Open
// does — listing a large database's epochs costs one small JSON read.
type EpochList struct {
	// Dir is the epochs directory (DB path + ".epochs").
	Dir     string
	Current int64
	Epochs  []EpochEntry
}

// Resolve returns an entry's database path as an openable path.
func (l *EpochList) Resolve(e EpochEntry) string { return resolve(l.Dir, &e) }

// ListEpochs reads the epoch manifest beside dbPath without opening a
// store. A database that has never taken a write (no epochs directory or
// manifest) returns (nil, nil): it has only the implicit epoch 0, which
// is the page file itself.
func ListEpochs(dbPath string) (*EpochList, error) {
	dir := epochsDir(dbPath)
	m, err := loadManifest(dir)
	if err != nil || m == nil {
		return nil, err
	}
	return &EpochList{Dir: dir, Current: m.Current, Epochs: m.Epochs}, nil
}
