package containment

import (
	"encoding/json"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"strings"

	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/pbicode"
)

// This file writes and reads epoch databases: immutable snapshots of a
// read-only engine's state. An epoch's pages are a base page file plus a
// chain of delta files (storage.WriteDelta), one per epoch; its catalog is
// a *diff* over its parent epoch's catalog, naming only the relations the
// epoch re-stored or dropped and the documents it changed. Reading an
// epoch folds the chain of diffs onto the full catalog it ends at — the
// base's version-1 catalog, or a version-2 catalog as earlier versions
// wrote for every epoch. The live-ingest write path (internal/ingest) opens
// epoch N read-only, applies a batch of updates through the engine's
// relations — every write lands in the engine's private overlay, the base
// is never touched — and calls SaveEpoch to freeze the overlay as epoch
// N+1's delta and its changes as N+1's catalog. Queries keep serving epoch
// N throughout; the swap to N+1 is a manifest update, not a file mutation,
// and an engine serving N moves onto N+1 with Advance, which reads the one
// new diff and delta and attaches only the relations they name. Compaction
// (internal/ingest) periodically folds a long chain back into a fresh
// self-contained database, restarting the chain; engines reopen onto it.

// storedRel is one relation of the epoch an engine is at: its catalog
// entry, folded over the chain, and the relation attached from it or saved
// as it.
type storedRel struct {
	entry catalogEntry
	r     *Relation
}

// docDiff is a diff catalog's documents field, not yet applied, and the
// database whose catalog holds it.
type docDiff struct {
	path string
	raw  json.RawMessage
}

// epochState is the epoch an engine created by Open is at: its catalog
// folded over the chain of catalogs it changes, and how that resolves to
// page files. SaveEpoch and Advance move an engine from one to the next.
type epochState struct {
	path       string // the epoch's database; its catalog is path+".catalog"
	epoch      int64
	pageSize   int
	treeHeight int
	base       string   // the base page file
	checksums  bool     // whether base carries a checksum sidecar
	deltas     []string // the delta files layered over base, in order
	// catalogs are the databases whose catalogs the fold reads: the full
	// catalog's first, path's last.
	catalogs []string
	rels     map[string]*storedRel
	// docRoot is the full catalog's documents field, undecoded, and
	// docDiffs the documents fields of the diffs after it; Documents folds
	// them.
	docRoot  json.RawMessage
	docDiffs []docDiff
}

// epochChain is the walk from an epoch's catalog back through its parents:
// the diffs, oldest first, and the full catalog they end at — nil when the
// walk stopped at a given epoch instead.
type epochChain struct {
	root     *catalogFile
	rootPath string
	diffs    []*catalogFile
	paths    []string // the database of each diff
}

// readChain reads the catalog of the database at path and, while it is a
// diff, its parent's, until it reaches a full catalog or the database stop
// at epoch stopEpoch, whose catalog it does not read. Each diff must name
// its parent's epoch and follow it; the error for a link that is missing
// or does not names the catalog file at fault.
func readChain(path, stop string, stopEpoch int64) (*epochChain, error) {
	path = filepath.Clean(path)
	ch := &epochChain{}
	for {
		cat, err := readCatalog(path)
		if err != nil {
			if n := len(ch.paths); n > 0 {
				return nil, fmt.Errorf("containment: diff catalog %s names parent %s: %w", catalogPath(ch.paths[n-1]), path, err)
			}
			return nil, err
		}
		if n := len(ch.diffs); n > 0 && ch.diffs[n-1].ParentEpoch != cat.Epoch {
			return nil, misparented(ch.paths[n-1], ch.diffs[n-1], cat.Epoch)
		}
		if cat.Version != catalogVersionDiff {
			ch.root, ch.rootPath = cat, path
			break
		}
		// Epochs fall strictly along the chain, so the walk ends.
		if cat.Parent == "" || cat.Delta == "" || cat.ParentEpoch < 0 || cat.ParentEpoch >= cat.Epoch {
			return nil, fmt.Errorf("containment: diff catalog %s: epoch %d over parent %q at epoch %d with delta %q is not an epoch",
				catalogPath(path), cat.Epoch, cat.Parent, cat.ParentEpoch, cat.Delta)
		}
		ch.diffs, ch.paths = append(ch.diffs, cat), append(ch.paths, path)
		parent := filepath.Join(filepath.Dir(path), cat.Parent)
		if parent == stop {
			if cat.ParentEpoch != stopEpoch {
				return nil, misparented(path, cat, stopEpoch)
			}
			break
		}
		path = parent
	}
	slices.Reverse(ch.diffs)
	slices.Reverse(ch.paths)
	return ch, nil
}

// misparented is the error for a diff catalog whose parent is at another
// epoch than the diff names.
func misparented(path string, cat *catalogFile, got int64) error {
	return fmt.Errorf("containment: diff catalog %s names parent %s at epoch %d, but that catalog is epoch %d",
		catalogPath(path), catalogPath(filepath.Join(filepath.Dir(path), cat.Parent)), cat.ParentEpoch, got)
}

// readEpoch folds the catalog chain of the database at path onto the full
// catalog it ends at: what Open attaches and Fsck checks.
func readEpoch(path string) (*epochState, error) {
	ch, err := readChain(path, "", 0)
	if err != nil {
		return nil, err
	}
	at, err := rootState(ch)
	if err != nil {
		return nil, err
	}
	return at, at.fold(ch)
}

// rootState is the epoch state of the full catalog a chain ends at.
func rootState(ch *epochChain) (*epochState, error) {
	root := ch.root
	base, deltas, err := root.files(ch.rootPath)
	if err != nil {
		return nil, err
	}
	at := &epochState{
		path: ch.rootPath, epoch: root.Epoch, pageSize: root.PageSize, treeHeight: root.TreeHeight,
		base: base, checksums: root.Checksums, deltas: deltas, catalogs: []string{ch.rootPath},
		rels: make(map[string]*storedRel, len(root.Relations)), docRoot: root.Documents,
	}
	for _, ent := range root.Relations {
		ent.normalize()
		at.rels[ent.Name] = &storedRel{entry: ent}
	}
	return at, nil
}

// fold applies the chain's diffs to at, oldest first. Each drops and
// re-stores the relations it names — a re-stored one keeps the first Keep
// pages of the relation it replaces — and brings its delta, its documents
// and its tree height. Re-stored relations are left unattached.
func (at *epochState) fold(ch *epochChain) error {
	for i, d := range ch.diffs {
		path := ch.paths[i]
		if d.PageSize != at.pageSize {
			return fmt.Errorf("containment: diff catalog %s: page size %d differs from its chain's %d", catalogPath(path), d.PageSize, at.pageSize)
		}
		for _, name := range d.Dropped {
			if at.rels[name] == nil {
				return fmt.Errorf("containment: diff catalog %s drops relation %q, which its parent does not have", catalogPath(path), name)
			}
			delete(at.rels, name)
		}
		for _, ent := range d.Relations {
			var prev []storage.PageID
			var prevFences []uint64
			if old := at.rels[ent.Name]; old != nil {
				prev, prevFences = old.entry.Pages, old.entry.Fences
			}
			if ent.Keep < 0 || ent.Keep > len(prev) {
				return fmt.Errorf("containment: diff catalog %s keeps %d pages of relation %q, which has %d", catalogPath(path), ent.Keep, ent.Name, len(prev))
			}
			// The kept pages' fences are the parent's, when the entry lists
			// one for each page of its own. Otherwise the relation has none,
			// and its claim of order is taken on trust.
			if !ent.Ordered || len(ent.Fences) != len(ent.Pages) || len(prevFences) < ent.Keep {
				ent.Fences = nil
			} else if ent.Keep > 0 {
				ent.Fences = append(prevFences[:ent.Keep:ent.Keep], ent.Fences...)
			}
			pages := make([]storage.PageID, 0, ent.Keep+len(ent.Pages))
			ent.Pages = append(append(pages, prev[:ent.Keep]...), ent.Pages...)
			ent.Keep = 0
			ent.normalize()
			at.rels[ent.Name] = &storedRel{entry: ent}
		}
		if len(d.Documents) > 0 {
			at.docDiffs = append(at.docDiffs, docDiff{path: path, raw: d.Documents})
		}
		at.deltas = append(at.deltas, filepath.Join(filepath.Dir(path), d.Delta))
		at.catalogs = append(at.catalogs, path)
		at.path, at.epoch, at.treeHeight = path, d.Epoch, d.TreeHeight
	}
	return nil
}

// SaveEpoch freezes the engine's current state as epoch number epoch, a
// database at path: path+".delta" receives every page the engine has
// written or allocated since it reached its epoch (the overlay snapshot),
// and path+".catalog" a diff catalog over the catalog of that epoch, its
// parent. The diff names its parent and its delta, both relative to path's
// directory, and lists only what changed: the relations passed in that are
// not the ones the engine holds for its epoch — each with the number of
// leading pages it shares with the relation it replaces — the relations
// the engine holds that are not passed in, the documents added, removed or
// changed against the parent's, and the tree height. Nothing is copied:
// the epoch is only valid alongside its parent's files (ingest keeps the
// whole family in one epochs directory).
//
// The engine must have been created by Open with Config.ReadOnly — only
// then is the write set isolated in an overlay — and the overlay must hold
// nothing but committed data: call ReleaseTemp after any query work before
// applying the update batch. Both the delta and the catalog are written
// via tmp+rename; a crash between the two leaves a delta without a catalog,
// which nothing references and ingest's orphan scan removes. Afterwards the
// engine is at the new epoch, as if Advance had moved it there, and the
// relations passed in are that epoch's. The engine keeps docs as that
// epoch's documents, so the caller must not modify the slice afterwards.
func (e *Engine) SaveEpoch(path string, epoch int64, docs []DocInfo, relations ...*Relation) error {
	od, ok := e.disk.(*storage.OverlayDisk)
	if !ok {
		return fmt.Errorf("containment: SaveEpoch requires a read-only (overlay) engine")
	}
	if e.at.base == "" {
		return fmt.Errorf("containment: SaveEpoch requires an engine created by Open")
	}
	if epoch <= e.at.epoch {
		return fmt.Errorf("containment: epoch %d does not follow the engine's epoch %d", epoch, e.at.epoch)
	}
	prevDocs, err := e.documents()
	if err != nil {
		return err
	}
	path = filepath.Clean(path)
	parent, err := filepath.Rel(filepath.Dir(path), e.at.path)
	if err != nil {
		return fmt.Errorf("containment: epoch %s not addressable from %s: %w", e.at.path, path, err)
	}
	deltaPath := path + ".delta"
	cat := &catalogFile{
		Version: catalogVersionDiff, PageSize: e.cfg.PageSize, TreeHeight: e.cfg.TreeHeight,
		Epoch: epoch, Parent: parent, ParentEpoch: e.at.epoch, Delta: filepath.Base(deltaPath),
	}
	rels := make(map[string]*storedRel, len(relations))
	for _, r := range relations {
		name := r.rel.Name()
		if rels[name] != nil {
			return fmt.Errorf("containment: duplicate relation name %q in catalog", name)
		}
		old := e.at.rels[name]
		// The relation the engine holds, unless Sort wrote it anew.
		if old != nil && old.r == r && (len(old.entry.Pages) == 0 || r.Pages() > 0 && r.rel.Page(0) == old.entry.Pages[0]) {
			rels[name] = old
			continue
		}
		sr := &storedRel{entry: r.entry(), r: r}
		rels[name] = sr
		diff := sr.entry
		if old != nil {
			for diff.Keep < len(old.entry.Pages) && diff.Keep < len(diff.Pages) && old.entry.Pages[diff.Keep] == diff.Pages[diff.Keep] {
				diff.Keep++
			}
			diff.Pages = diff.Pages[diff.Keep:]
		}
		if len(diff.Fences) > 0 {
			diff.Fences = diff.Fences[diff.Keep:]
		}
		cat.Relations = append(cat.Relations, diff)
	}
	for name := range e.at.rels {
		if rels[name] == nil {
			cat.Dropped = append(cat.Dropped, name)
		}
	}
	slices.SortFunc(cat.Relations, func(a, b catalogEntry) int { return strings.Compare(a.Name, b.Name) })
	slices.Sort(cat.Dropped)
	if dd := diffDocs(prevDocs, docs); dd != nil {
		if cat.Documents, err = json.Marshal(dd); err != nil {
			return err
		}
	}

	if err := e.pool.FlushAll(); err != nil {
		return err
	}
	snap, logical := od.OverlaySnapshot()
	if err := storage.WriteDelta(deltaPath, e.cfg.PageSize, logical, snap); err != nil {
		return fmt.Errorf("containment: write epoch delta: %w", err)
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
	e.at.path, e.at.epoch, e.at.treeHeight = path, epoch, e.cfg.TreeHeight
	e.at.deltas = append(e.at.deltas, deltaPath)
	e.at.catalogs = append(e.at.catalogs, path)
	e.at.rels = rels
	e.docs = docs
	return nil
}

// Advance moves a read-only engine created by Open onto a later epoch of
// the same base — the epoch database at path — without reopening: it reads
// only the diff catalogs between its own epoch and that one, and their
// delta files; layers the deltas over its disk; drops from the buffer pool
// exactly the page IDs they carry; and attaches only the relations the
// diffs re-store. Every other relation — the same *Relation, its pages
// read through the same warm pool — carries over, as does the engine's
// working memory. Temporary state is released first, as ReleaseTemp does.
// It returns the epoch's relations; the previous epoch's that the diffs
// replaced must not be used again.
//
// An epoch over another base (a compaction's), or whose chain of diffs
// does not pass through the engine's epoch, cannot be advanced to: the
// caller opens it instead. On that and every other error the engine is
// left as it was.
func (e *Engine) Advance(path string) (map[string]*Relation, error) {
	od, ok := e.disk.(*storage.OverlayDisk)
	if !ok || e.at.base == "" {
		return nil, fmt.Errorf("containment: Advance requires a read-only engine created by Open")
	}
	ch, err := readChain(path, e.at.path, e.at.epoch)
	if err != nil {
		return nil, err
	}
	if ch.root != nil {
		return nil, fmt.Errorf("containment: %s is not a later epoch over this engine's base and chain", path)
	}
	next := e.at
	next.rels = maps.Clone(e.at.rels)
	if err := next.fold(ch); err != nil {
		return nil, err
	}
	if pinned := e.pool.PinnedFrames(); pinned > 0 {
		return nil, fmt.Errorf("containment: Advance with %d pages pinned", pinned)
	}
	added := next.deltas[len(e.at.deltas):]
	layers := make([]*storage.Delta, 0, len(added))
	extent := od.BaseNumPages()
	for _, dp := range added {
		d, err := storage.ReadDelta(dp, e.cfg.PageSize)
		if err != nil {
			return nil, fmt.Errorf("containment: read epoch delta: %w", err)
		}
		layers = append(layers, d)
		extent = max(extent, d.LogicalPages)
	}
	if err := e.attach(next.rels, extent); err != nil {
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
	// ReleaseTemp dropped the pages any index of a carried-over relation
	// lived on.
	for name, sr := range next.rels {
		if e.at.rels[name] == sr {
			sr.r.startIdx = nil
		}
	}
	e.at = next
	e.cfg.TreeHeight = max(e.heightFloor, next.treeHeight)
	return e.relations(), nil
}

// Inherit warms a read-only engine created by Open from prev, an engine it
// replaces — one at an epoch over another base, such as the chain a
// compaction folded, which Advance cannot reach. A compaction stores each
// relation anew with the same records, and so, page for page, the same
// bytes at other page IDs: for every relation both engines hold under one
// name with as many records on as many pages, each page prev's pool holds
// resident is copied into e's pool as e's page at the same position, if
// the checksum e's base records for that page matches the bytes. Nothing
// is read from disk, and e's frames are only filled while free. It returns
// the pages adopted; on an engine without checksums, none.
func (e *Engine) Inherit(prev *Engine) int {
	od, ok := e.disk.(*storage.OverlayDisk)
	if !ok || e.at.base == "" || prev.at.base == "" {
		return 0
	}
	n := 0
	for name, sr := range e.at.rels {
		old := prev.at.rels[name]
		if old == nil || old.entry.Count != sr.entry.Count || len(old.entry.Pages) != len(sr.entry.Pages) {
			continue
		}
		for i, id := range sr.entry.Pages {
			if data, ok := prev.pool.Peek(old.entry.Pages[i]); ok && od.BaseHolds(id, data) && e.pool.Adopt(id, data) {
				n++
			}
		}
	}
	return n
}

// diffDocs encodes next as a catalogDocDiff over prev: runs copied from
// prev where next repeats its documents, and the others as columns. Nil
// when next equals prev.
func diffDocs(prev, next []DocInfo) *catalogDocDiff {
	if slices.Equal(prev, next) {
		return nil
	}
	dd := &catalogDocDiff{Runs: []int64{}}
	from, n := int64(-2), int64(0) // the run being built; -2 is none
	flush := func() {
		if n > 0 {
			dd.Runs = append(dd.Runs, from, n)
		}
	}
	find := docFinder{prev: prev}
	want := 0 // where prev continues
	for _, doc := range next {
		j := -1
		if want < len(prev) && prev[want] == doc {
			j = want
		} else if i := find.find(doc.Name, want); i >= 0 && prev[i] == doc {
			j = i
		}
		switch {
		case j >= 0 && from >= 0 && from+n == int64(j):
			n++
		case j >= 0:
			flush()
			from, n = int64(j), 1
		default:
			if from != -1 {
				flush()
				from, n = -1, 0
			}
			n++
			dd.Names = append(dd.Names, doc.Name)
			dd.Roots = append(dd.Roots, uint64(doc.Root))
			dd.Elements = append(dd.Elements, doc.Elements)
		}
		if j >= 0 {
			want = j + 1
		}
	}
	flush()
	return dd
}

// docFinder looks documents of next up by name in prev for diffDocs, with
// no map for the shape a store's documents change in — prev less some
// documents, some changed in place, new ones appended: a cursor moves
// forward over prev, and a name not ahead of it is looked for among the
// documents it passed over, the removed ones. Once lookups have cost two
// passes over prev, a map of prev's names serves the rest. With names
// unique in prev every lookup finds the one document of that name; with
// duplicates a lookup may find another than the map's first, which only
// changes the encoding, since diffDocs copies equal documents alone.
type docFinder struct {
	prev   []DocInfo
	at     int   // the cursor
	passed []int // documents the cursor passed over
	cost   int   // documents compared so far
	byName map[string]int
}

// find returns the index of a document of prev named name, or -1. Documents
// before want are the ones diffDocs has copied in order, which no later
// lookup needs.
func (f *docFinder) find(name string, want int) int {
	if f.byName == nil && f.cost > 2*len(f.prev) {
		f.byName = make(map[string]int, len(f.prev))
		for i := len(f.prev) - 1; i >= 0; i-- {
			f.byName[f.prev[i].Name] = i
		}
	}
	if f.byName != nil {
		if i, ok := f.byName[name]; ok {
			return i
		}
		return -1
	}
	f.at = max(f.at, want)
	for i := f.at; i < len(f.prev); i++ {
		if f.prev[i].Name == name {
			for k := f.at; k < i; k++ {
				f.passed = append(f.passed, k)
			}
			f.cost += i - f.at + 1
			f.at = i + 1
			return i
		}
	}
	f.cost += len(f.prev) - f.at + len(f.passed)
	for _, k := range f.passed {
		if f.prev[k].Name == name {
			return k
		}
	}
	return -1
}

// applyDocDiff applies a diff catalog's documents field to its parent's
// document list.
func applyDocDiff(prev []DocInfo, raw json.RawMessage) ([]DocInfo, error) {
	var dd catalogDocDiff
	if err := json.Unmarshal(raw, &dd); err != nil {
		return nil, err
	}
	if len(dd.Roots) != len(dd.Names) || len(dd.Elements) != len(dd.Names) {
		return nil, fmt.Errorf("columns of %d names, %d roots and %d element counts", len(dd.Names), len(dd.Roots), len(dd.Elements))
	}
	if len(dd.Runs)%2 != 0 {
		return nil, fmt.Errorf("%d run bounds, not pairs", len(dd.Runs))
	}
	var docs []DocInfo
	lit := int64(0)
	for i := 0; i < len(dd.Runs); i += 2 {
		from, n := dd.Runs[i], dd.Runs[i+1]
		switch {
		case n < 0:
			return nil, fmt.Errorf("run of %d documents", n)
		case from == -1 && n <= int64(len(dd.Names))-lit:
			for k := lit; k < lit+n; k++ {
				docs = append(docs, DocInfo{Name: dd.Names[k], Root: pbicode.Code(dd.Roots[k]), Elements: dd.Elements[k]})
			}
			lit += n
		case from >= 0 && from <= int64(len(prev)) && n <= int64(len(prev))-from:
			docs = append(docs, prev[from:from+n]...)
		default:
			return nil, fmt.Errorf("run (%d, %d) outside %d parent documents and %d new ones", from, n, len(prev), len(dd.Names))
		}
	}
	if lit != int64(len(dd.Names)) {
		return nil, fmt.Errorf("%d of %d new documents placed", lit, len(dd.Names))
	}
	return docs, nil
}
