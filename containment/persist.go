package containment

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/pbicode"
)

// This file persists a file-backed engine's catalog — which relations
// exist, which pages they own, and their cached statistics — in a JSON
// sidecar next to the page file, so a database built once (pbigen + Load)
// can be reopened and queried without reloading. Indexes are not persisted
// (rebuild them after opening); temporary join state never reaches the
// catalog.

// catalogVersion guards the sidecar format. Version 1 is a self-contained
// database: one page file, one catalog. Version 2 is a full epoch catalog,
// which earlier versions wrote for every epoch: the pages live in a *base*
// page file plus an ordered chain of delta files, all referenced by
// relative path. Version 3 is a diff epoch catalog (see SaveEpoch and
// doc/INGEST.md), what SaveEpoch writes now: only what its epoch changed
// over its parent epoch's catalog. Versions 1 and 2 are the full catalogs a
// chain of diffs ends at. Each bump is deliberate — binaries that predate
// a version refuse it outright instead of misreading a layered database as
// truncated.
const (
	catalogVersion      = 1
	catalogVersionEpoch = 2
	catalogVersionDiff  = 3
)

type catalogFile struct {
	Version    int            `json:"version"`
	PageSize   int            `json:"page_size"`
	TreeHeight int            `json:"tree_height"`
	Relations  []catalogEntry `json:"relations"`
	// Base and Deltas appear only in version-2 (epoch) catalogs: the page
	// image is Base plus the Deltas chain applied in order (later wins).
	// Both are recorded relative to the catalog's own directory so an epoch
	// directory can be moved or copied wholesale.
	Base   string   `json:"base,omitempty"`
	Deltas []string `json:"deltas,omitempty"`
	// Epoch is the publication sequence number of an epoch catalog.
	Epoch int64 `json:"epoch,omitempty"`
	// Parent, ParentEpoch, Delta and Dropped appear only in version-3
	// (diff) catalogs. Parent is the database whose catalog this one
	// changes, relative to this catalog's directory, and ParentEpoch the
	// epoch that catalog records; Delta is this epoch's own delta file.
	// Relations then lists only the relations the epoch re-stored (see
	// catalogEntry.Keep), Dropped those it removed, and Documents, when
	// present, is a catalogDocDiff.
	Parent      string   `json:"parent,omitempty"`
	ParentEpoch int64    `json:"parent_epoch,omitempty"`
	Delta       string   `json:"delta,omitempty"`
	Dropped     []string `json:"dropped,omitempty"`
	// Documents records the collection's per-document boundaries (root
	// code, stored-element count) as catalogDocs columns; catalogs written
	// before those hold an array of catalogDoc objects. The field is
	// additive: catalogs written before document tracking simply have none,
	// and joins never consult it — only the shard splitter
	// (internal/shard.Split), ingest's forest rebuild and inspection tooling
	// do. It is most of a catalog's bytes, so it is kept undecoded until
	// Engine.Documents asks.
	Documents json.RawMessage `json:"documents,omitempty"`
	// Checksums records that a CRC32-C page-checksum sidecar (path +
	// ".sums", storage.SumsPath) was written alongside the page file, and
	// gates on-read verification. Additive like Documents: databases saved
	// before page integrity landed unmarshal to false and open exactly as
	// they always did — no sidecar is looked for, no verification runs.
	Checksums bool `json:"checksums,omitempty"`
}

// catalogDocs is the documents field as catalogs write it: three parallel
// columns with one entry per document, about half the bytes of one object
// per document, which is what earlier catalogs hold (catalogDoc).
type catalogDocs struct {
	Names    []string `json:"names"`
	Roots    []uint64 `json:"roots"`
	Elements []int64  `json:"elements"`
}

// catalogDocDiff is a diff catalog's documents field: its epoch's document
// list as runs over the parent epoch's. Runs holds (from, n) pairs in
// order: n documents copied from the parent's list starting at index from,
// or, with from -1, the next n entries of the columns — documents added,
// or whose root code or element count changed. A diff whose documents
// equal its parent's has no documents field at all.
type catalogDocDiff struct {
	Runs     []int64  `json:"runs"`
	Names    []string `json:"names,omitempty"`
	Roots    []uint64 `json:"roots,omitempty"`
	Elements []int64  `json:"elements,omitempty"`
}

// catalogDoc is one entry of an earlier catalog's documents array.
type catalogDoc struct {
	Name     string `json:"name"`
	Root     uint64 `json:"root"`
	Elements int64  `json:"elements"`
}

// DocInfo describes one document of a stored collection: its name, the
// PBiTree code of its root element, and how many stored elements fall
// inside it. Document subtrees occupy disjoint code regions (see
// xmltree.Collection), which is what makes horizontal, document-level
// sharding exact: a containment pair never spans two documents.
type DocInfo struct {
	Name     string
	Root     pbicode.Code
	Elements int64
}

type catalogEntry struct {
	Name string `json:"name"`
	// Keep, in a diff catalog, is how many leading pages of the parent's
	// relation of the same name this one shares (Engine.LoadOver); Pages
	// then lists only the pages after them. Zero in full catalogs.
	Keep     int              `json:"keep,omitempty"`
	Pages    []storage.PageID `json:"pages"`
	Count    int64            `json:"count"`
	MinStart uint64           `json:"min_start"`
	MaxEnd   uint64           `json:"max_end"`
	// Heights is the relation's height mask (Relation.heights). Additive:
	// catalogs written before it carry MaxHeight and SingleHeight instead,
	// which are read but no longer written. From them a single-height
	// relation's mask is exact; any other's is left to the join's pre-scan.
	Heights      uint64 `json:"heights,omitempty"`
	MaxHeight    int    `json:"max_height,omitempty"`
	SingleHeight bool   `json:"single_height,omitempty"`
	// Ordered records that the relation's records are in document order
	// (Relation.Ordered), which the sorts on the fly then trust: Fsck
	// verifies the claim. Additive: earlier catalogs read as unordered.
	Ordered bool `json:"ordered,omitempty"`
	// Fences is the first Start of each page (relation.Fences), in a diff
	// catalog of each page it lists after Keep, the parent's entry giving
	// the kept pages'. The appends that wrote the pages checked their order
	// and recorded them, so a relation with fences claims order as its
	// loader made it, and the merges seek over them past pages they never
	// read; Fsck verifies them. Additive: an order claim without fences, as
	// earlier catalogs hold, is taken on trust and read to the end.
	Fences []uint64 `json:"-"`
	// FenceGaps is Fences as the catalog file holds them (packFences),
	// which the JSON encoding writes in base64.
	FenceGaps []byte `json:"fences,omitempty"`
	// Earlier catalogs also carry "compressed", the layout the relation
	// was last appended in, and "sorted", set by an Engine.Sort that kept
	// each record's pre-sort ordinal. Neither is written nor read any more:
	// every page carries its own format byte, the only authority on how it
	// is decoded; a sorted relation also recorded "ordered", the one order
	// claim, which Fsck checks. The JSON decoder skips both fields.
}

// catalogPath returns the sidecar path for a page file.
func catalogPath(path string) string { return path + ".catalog" }

// Save flushes all pages and writes the catalog for the given relations.
// Only writable file-backed engines can be saved. Relations must have
// distinct names.
func (e *Engine) Save(relations ...*Relation) error {
	return e.SaveDocs(nil, relations...)
}

// SaveDocs is Save with a per-document catalog: docs records the
// collection's document boundaries so the database can later be split
// into document-disjoint shards (pbidb shard / internal/shard.Split)
// without re-parsing any XML. Passing nil docs is identical to Save.
func (e *Engine) SaveDocs(docs []DocInfo, relations ...*Relation) error {
	if e.ReadOnly() {
		return fmt.Errorf("containment: engine is read-only; cannot save")
	}
	fd, ok := e.disk.(*storage.FileDisk)
	if !ok {
		return fmt.Errorf("containment: only file-backed engines can be saved")
	}
	if err := e.pool.FlushAll(); err != nil {
		return err
	}
	if err := fd.Sync(); err != nil {
		return err
	}
	cat, err := e.newCatalog(docs, relations)
	if err != nil {
		return err
	}
	// Checksum the freshly synced page file and write the sidecar before
	// the catalog: the catalog's Checksums flag must never assert a sidecar
	// that does not exist. (The flag is what version-gates verification on
	// open, so pre-checksum databases keep opening cleanly.)
	sums, err := storage.ComputeFileChecksums(e.cfg.Path, e.cfg.PageSize)
	if err != nil {
		return fmt.Errorf("containment: checksum page file: %w", err)
	}
	if err := sums.Save(e.cfg.Path); err != nil {
		return fmt.Errorf("containment: write checksum sidecar: %w", err)
	}
	cat.Checksums = true
	if err := writeCatalog(e.cfg.Path, cat); err != nil {
		return err
	}
	e.docs, e.docsRead = slices.Clone(docs), true
	return nil
}

// newCatalog builds the self-contained catalog of the given documents and
// relations over the engine's page and tree geometry.
func (e *Engine) newCatalog(docs []DocInfo, relations []*Relation) (*catalogFile, error) {
	cat := &catalogFile{Version: catalogVersion, PageSize: e.cfg.PageSize, TreeHeight: e.cfg.TreeHeight}
	if len(docs) > 0 {
		cds := catalogDocs{
			Names:    make([]string, len(docs)),
			Roots:    make([]uint64, len(docs)),
			Elements: make([]int64, len(docs)),
		}
		for i, d := range docs {
			cds.Names[i], cds.Roots[i], cds.Elements[i] = d.Name, uint64(d.Root), d.Elements
		}
		raw, err := json.Marshal(&cds)
		if err != nil {
			return nil, err
		}
		cat.Documents = raw
	}
	seen := map[string]bool{}
	for _, r := range relations {
		if seen[r.rel.Name()] {
			return nil, fmt.Errorf("containment: duplicate relation name %q in catalog", r.rel.Name())
		}
		seen[r.rel.Name()] = true
		cat.Relations = append(cat.Relations, r.entry())
	}
	return cat, nil
}

// entry returns the full catalog entry that records r.
func (r *Relation) entry() catalogEntry {
	span, _ := r.rel.Span()
	ent := catalogEntry{
		Name:     r.rel.Name(),
		Pages:    r.rel.Pages(),
		Count:    r.rel.NumRecords(),
		MinStart: span.Start,
		MaxEnd:   span.End,
		Heights:  r.heights,
		Ordered:  r.rel.Ordered(),
	}
	if f := r.rel.Fences(); len(f) > 0 {
		ent.Fences = f
	}
	return ent
}

// fences returns the entry's fences when they can be used: one per page,
// ascending, under a claim of order. Any others — none recorded, or ones
// Fsck reports — leave the relation without fences, and its claim of order
// taken on trust.
func (ent *catalogEntry) fences() []uint64 {
	if !ent.Ordered || len(ent.Fences) != len(ent.Pages) || !slices.IsSorted(ent.Fences) {
		return nil
	}
	return ent.Fences
}

// normalize rewrites an entry read from an earlier catalog the way current
// ones record it: a single-height relation's mask from MaxHeight and
// SingleHeight, any other's left unknown (zero) for the join's pre-scan.
func (ent *catalogEntry) normalize() {
	if ent.Heights == 0 && ent.SingleHeight {
		ent.Heights = 1 << uint(ent.MaxHeight)
	}
	ent.MaxHeight, ent.SingleHeight = 0, false
}

// packFences returns fences as a catalog file holds them: from the last
// to the first, each one's distance below the one after it — the last's
// below end, the relation's largest End — as uvarints. The pages a commit
// writes lie at a relation's end, so a diff catalog holds distances of
// about a page's span of Starts, however large the Starts of a collection
// grow. The distances wrap, so any list round-trips.
func packFences(fences []uint64, end uint64) []byte {
	if len(fences) == 0 {
		return nil
	}
	buf := make([]byte, 0, 3*len(fences))
	for i := len(fences) - 1; i >= 0; i-- {
		buf = binary.AppendUvarint(buf, end-fences[i])
		end = fences[i]
	}
	return buf
}

// unpackFences returns the fences packFences packed over end.
func unpackFences(buf []byte, end uint64) ([]uint64, error) {
	if len(buf) == 0 {
		return nil, nil
	}
	n := 0
	for _, b := range buf {
		if b < 0x80 {
			n++
		}
	}
	fences := make([]uint64, n)
	for i := n - 1; i >= 0; i-- {
		gap, w := binary.Uvarint(buf)
		if w <= 0 {
			return nil, errors.New("fences: malformed distance")
		}
		end -= gap
		fences[i], buf = end, buf[w:]
	}
	if len(buf) > 0 {
		return nil, errors.New("fences: trailing bytes")
	}
	return fences, nil
}

// writeCatalog writes cat as the catalog sidecar of the database at path,
// via tmp+rename. The JSON is compact: catalogs are read by programs, and
// jq pretty-prints one for a reader.
func writeCatalog(path string, cat *catalogFile) error {
	for i := range cat.Relations {
		ent := &cat.Relations[i]
		ent.FenceGaps = packFences(ent.Fences, ent.MaxEnd)
	}
	data, err := json.Marshal(cat)
	if err != nil {
		return err
	}
	tmp := catalogPath(path) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, catalogPath(path))
}

// readCatalog loads and version-checks a database's catalog sidecar.
func readCatalog(path string) (*catalogFile, error) {
	data, err := os.ReadFile(catalogPath(path))
	if err != nil {
		return nil, fmt.Errorf("containment: read catalog: %w", err)
	}
	var cat catalogFile
	if err := json.Unmarshal(data, &cat); err != nil {
		return nil, fmt.Errorf("containment: parse catalog %s: %w", catalogPath(path), err)
	}
	if cat.Version != catalogVersion && cat.Version != catalogVersionEpoch && cat.Version != catalogVersionDiff {
		return nil, fmt.Errorf("containment: catalog %s: version %d unsupported", catalogPath(path), cat.Version)
	}
	for i := range cat.Relations {
		ent := &cat.Relations[i]
		if ent.Fences, err = unpackFences(ent.FenceGaps, ent.MaxEnd); err != nil {
			return nil, fmt.Errorf("containment: catalog %s: relation %q: %w", catalogPath(path), ent.Name, err)
		}
		ent.FenceGaps = nil
	}
	return &cat, nil
}

// files resolves the page files of the database at path whose full catalog
// cat is: an epoch catalog's base and delta chain, recorded relative to the
// catalog's directory; a version-1 catalog is its own base with no chain.
func (cat *catalogFile) files(path string) (base string, deltas []string, err error) {
	if cat.Version != catalogVersionEpoch {
		return path, nil, nil
	}
	if cat.Base == "" {
		return "", nil, fmt.Errorf("containment: epoch catalog %s names no base page file", catalogPath(path))
	}
	dir := filepath.Dir(path)
	for _, d := range cat.Deltas {
		deltas = append(deltas, filepath.Join(dir, d))
	}
	return filepath.Join(dir, cat.Base), deltas, nil
}

// attach attaches the relations of rels that have none yet — every one
// after Open's fold, the re-stored ones after Advance's — to the engine's
// pool. Every page ID must lie below extent, the page count of the image
// the catalog describes. A relation reads its entry's page list, which
// nothing modifies.
func (e *Engine) attach(rels map[string]*storedRel, extent storage.PageID) error {
	for name, sr := range rels {
		if sr.r != nil {
			continue
		}
		for _, id := range sr.entry.Pages {
			if id < 0 || id >= extent {
				return fmt.Errorf("containment: catalog references page %d beyond file (%d pages)", id, extent)
			}
		}
		rel := relation.Attach(e.pool, name, sr.entry.Pages, sr.entry.Count,
			pbicode.Region{Start: sr.entry.MinStart, End: sr.entry.MaxEnd}, sr.entry.Ordered, sr.entry.fences())
		rel.SetPaperLayout(e.cfg.PaperLayout)
		sr.r = &Relation{rel: rel, heights: sr.entry.Heights}
	}
	return nil
}

// relations returns the engine's stored relations by name, as a map of the
// caller's own.
func (e *Engine) relations() map[string]*Relation {
	rels := make(map[string]*Relation, len(e.at.rels))
	for name, sr := range e.at.rels {
		rels[name] = sr.r
	}
	return rels
}

// Open reopens a saved file-backed engine: the page file plus its catalog
// sidecar — for an epoch database, its catalog folded over the chain of
// catalogs it changes (see SaveEpoch). The returned map holds the
// persisted relations by name.
//
// With cfg.ReadOnly set, the page file is opened without write access and
// all writes go to a private in-memory overlay (storage.OverlayDisk), so
// any number of engines — each still single-threaded — can be opened over
// the same database concurrently; internal/qserv builds its worker pool
// this way.
func Open(cfg Config) (*Engine, map[string]*Relation, error) {
	if cfg.Path == "" {
		return nil, nil, fmt.Errorf("containment: Open requires Config.Path")
	}
	at, err := readEpoch(cfg.Path)
	if err != nil {
		return nil, nil, err
	}
	if at.base != at.path && !cfg.ReadOnly {
		return nil, nil, fmt.Errorf("containment: epoch catalogs open read-only (writes go through ingest commits, not in-place)")
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = at.pageSize
	}
	if cfg.PageSize != at.pageSize {
		return nil, nil, fmt.Errorf("containment: page size %d differs from saved %d", cfg.PageSize, at.pageSize)
	}
	if cfg.BufferPages == 0 {
		cfg.BufferPages = 1024
	}
	floor := cfg.TreeHeight
	cfg.TreeHeight = max(floor, at.treeHeight)
	cost := storage.CostModel{Random: cfg.DiskCost.Random, Sequential: cfg.DiskCost.Sequential}
	// Page-integrity verification is version-gated on the catalog flag:
	// databases saved before checksums existed have no flag, no sidecar,
	// and open exactly as before. When the flag is set the sidecar is
	// mandatory — a catalog asserting checksums with the sidecar missing
	// is itself an integrity failure, not a legacy database.
	var sums *storage.ChecksumSet
	if at.checksums {
		var err error
		sums, err = storage.LoadChecksums(at.base)
		if err != nil {
			return nil, nil, fmt.Errorf("containment: catalog records page checksums but the sidecar is unusable: %w", err)
		}
	}
	var disk storage.Disk
	if cfg.ReadOnly {
		od, err := storage.OpenOverlayLayered(at.base, at.deltas, cfg.PageSize, cost)
		if err != nil {
			return nil, nil, err
		}
		od.SetChecksums(sums)
		disk = od
	} else {
		fd, err := storage.ReopenFileDisk(cfg.Path, cfg.PageSize, cost)
		if err != nil {
			return nil, nil, err
		}
		fd.SetChecksums(sums)
		disk = fd
	}
	e := &Engine{disk: disk, pool: buffer.New(disk, cfg.BufferPages), cfg: cfg, heightFloor: floor, at: *at}
	if err := e.attach(e.at.rels, disk.NumPages()); err != nil {
		e.Close() //nolint:errcheck // best-effort cleanup
		return nil, nil, err
	}
	return e, e.relations(), nil
}

// Documents returns the per-document catalog stored with the database —
// the boundaries SaveDocs recorded, or what Open read back, with every
// epoch's changes folded in — in document order. Nil when the database
// predates document tracking (or was saved with plain Save); such
// databases cannot be split by pbidb shard. The catalog's columns are
// decoded on the first call, and the changes of epochs the engine advanced
// to since on the next; a field that does not decode is an error, and
// stays one.
func (e *Engine) Documents() ([]DocInfo, error) {
	docs, err := e.documents()
	return slices.Clone(docs), err
}

// documents is Documents without the copy: the engine's own list.
func (e *Engine) documents() ([]DocInfo, error) {
	if !e.docsRead {
		docs, err := decodeDocs(e.at.docRoot)
		if err != nil {
			return nil, fmt.Errorf("containment: document catalog of %s: %w", catalogPath(e.at.catalogs[0]), err)
		}
		e.docs, e.docsRead, e.at.docRoot = docs, true, nil
	}
	for len(e.at.docDiffs) > 0 {
		d := e.at.docDiffs[0]
		docs, err := applyDocDiff(e.docs, d.raw)
		if err != nil {
			return nil, fmt.Errorf("containment: document catalog of %s: %w", catalogPath(d.path), err)
		}
		e.docs, e.at.docDiffs = docs, e.at.docDiffs[1:]
	}
	return e.docs, nil
}

// decodeDocs decodes a full catalog's documents field: columns, or the
// array of objects earlier catalogs hold. An absent or null field is no
// documents.
func decodeDocs(raw json.RawMessage) ([]DocInfo, error) {
	if len(raw) > 0 && raw[0] == '[' {
		var old []catalogDoc
		if err := json.Unmarshal(raw, &old); err != nil {
			return nil, err
		}
		docs := make([]DocInfo, len(old))
		for i, d := range old {
			docs[i] = DocInfo{Name: d.Name, Root: pbicode.Code(d.Root), Elements: d.Elements}
		}
		return docs, nil
	}
	var cds catalogDocs
	if len(raw) == 0 {
		return nil, nil
	}
	if err := json.Unmarshal(raw, &cds); err != nil {
		return nil, err
	}
	if len(cds.Roots) != len(cds.Names) || len(cds.Elements) != len(cds.Names) {
		return nil, fmt.Errorf("columns of %d names, %d roots and %d element counts", len(cds.Names), len(cds.Roots), len(cds.Elements))
	}
	if len(cds.Names) == 0 {
		return nil, nil
	}
	docs := make([]DocInfo, len(cds.Names))
	for i, name := range cds.Names {
		docs[i] = DocInfo{Name: name, Root: pbicode.Code(cds.Roots[i]), Elements: cds.Elements[i]}
	}
	return docs, nil
}

// ReadOnly reports whether the engine was opened with Config.ReadOnly.
func (e *Engine) ReadOnly() bool {
	_, ok := e.disk.(*storage.OverlayDisk)
	return ok
}

// ReleaseTemp drops every page a read-only engine allocated beyond the
// shared base file — spooled intermediates, partition files, any other
// temporary join state — returning the overlay's memory and page IDs.
// Stored relations are untouched, and base pages cached in the buffer pool
// stay resident, so a warm pool survives. The caller must have Freed all
// temporary relations first (their dead pages may still be resident; they
// are discarded here). On writable engines it is a no-op: their temporary
// pages live in the page file, as in the paper's system.
//
// Long-running servers call it between requests so per-request temporary
// state cannot accumulate (see internal/qserv).
func (e *Engine) ReleaseTemp() error {
	od, ok := e.disk.(*storage.OverlayDisk)
	if !ok {
		return nil
	}
	for id := od.BaseNumPages(); id < od.NumPages(); id++ {
		if err := e.pool.Discard(id); err != nil {
			return fmt.Errorf("containment: release temp page %d: %w", id, err)
		}
	}
	od.Release()
	return nil
}

// TempPages returns the number of pages currently materialized in a
// read-only engine's private overlay (0 for writable engines) — a memory
// gauge for servers.
func (e *Engine) TempPages() int {
	if od, ok := e.disk.(*storage.OverlayDisk); ok {
		return od.OverlayPages()
	}
	return 0
}
