package ingest

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/btree"
	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// relPrefix namespaces tag relations in the catalog (mirrors cmd/pbidb).
const relPrefix = "tag:"

// Config configures a Store.
type Config struct {
	// DBPath is the self-contained (version-1) database the epoch family
	// grows from; its ".epochs" sibling directory holds everything ingest
	// writes. The original database is never modified or deleted.
	DBPath string
	// GapAware enables the gap-aware coding scheme: re-encodes reserve
	// Headroom extra slot levels (2^Headroom× the minimal sibling ranges)
	// and the slot ranges of element parents keep their last quarter as an
	// overflow region, taken only when the primary region is exhausted.
	// Off, the naive scheme packs minimally (headroom 0, no reserved
	// region) — the baseline the sustained-ingest benchmark compares
	// against. Both choose slots next-fit (pickSlot), and under both the
	// collection root grows instead of renumbering (graft).
	GapAware bool
	// Headroom is the slot headroom used by gap-aware re-encodes
	// (default 2; ignored when GapAware is off).
	Headroom int
	// ParseOptions parses insert_doc payloads (match what built the base).
	ParseOptions xmltree.Options
	// BufferPages sizes the buffer pool of commit/compaction engines.
	BufferPages int
	// CompactAfter starts the compaction daemon: when the delta chain
	// reaches this many files, the chain is folded into a fresh
	// self-contained base. 0 disables the daemon (CompactNow still works).
	CompactAfter int
	// CompactPagesPerSec caps the compaction daemon's write rate in pages
	// per second; 0 is unthrottled.
	CompactPagesPerSec int
	// CompactInterval is the daemon's poll period (default 2s).
	CompactInterval time.Duration
	// Keep is how many retired epochs stay published for draining readers
	// before garbage collection (default 2; the current epoch is always
	// kept).
	Keep int
}

// BatchError reports a rejected batch: the operations themselves were
// invalid (unknown code, duplicate document, bad XML, ...) and the store
// rolled back cleanly without publishing — a client problem. Commit and
// rollback failures stay plain errors (a server problem).
type BatchError struct{ Err error }

func (e *BatchError) Error() string { return e.Err.Error() }
func (e *BatchError) Unwrap() error { return e.Err }

// Op is one ingest operation. Codes address elements of the current epoch
// (as returned by queries against it).
type Op struct {
	// Op is one of: insert_doc, delete_doc, insert_element,
	// delete_element, update_element.
	Op string `json:"op"`
	// Doc names the document (insert_doc, delete_doc).
	Doc string `json:"doc,omitempty"`
	// XML is the document payload (insert_doc).
	XML string `json:"xml,omitempty"`
	// Parent is the parent element's code (insert_element).
	Parent uint64 `json:"parent,omitempty"`
	// Code is the target element's code (delete_element, update_element).
	Code uint64 `json:"code,omitempty"`
	// Tag is the new element's tag (insert_element) or the new tag
	// (update_element).
	Tag string `json:"tag,omitempty"`
}

// CommitResult describes one published epoch.
type CommitResult struct {
	Epoch   int64  `json:"epoch"`
	Path    string `json:"path"`
	Applied int    `json:"applied"`
	// RenumbersScoped / RenumbersGlobal count the re-encodes this batch
	// forced (scoped subtree renumbering vs whole-collection).
	RenumbersScoped uint64 `json:"renumbers_scoped"`
	RenumbersGlobal uint64 `json:"renumbers_global"`
}

// Stats is a point-in-time snapshot of the store's gauges and counters.
type Stats struct {
	Epoch     int64 `json:"epoch"`
	ChainLen  int   `json:"chain_len"`
	Documents int   `json:"documents"`
	Elements  int   `json:"elements"`

	Commits         uint64 `json:"commits"`
	Inserts         uint64 `json:"inserts"`
	Updates         uint64 `json:"updates"`
	Deletes         uint64 `json:"deletes"`
	RenumbersScoped uint64 `json:"renumbers_scoped"`
	RenumbersGlobal uint64 `json:"renumbers_global"`
	OverflowInserts uint64 `json:"overflow_inserts"`
	Compactions     uint64 `json:"compactions"`
	CompactAborts   uint64 `json:"compact_aborts"`
	CompactedPages  uint64 `json:"compacted_pages"`
	IdxInserts      uint64 `json:"idx_inserts"`
	IdxDeletes      uint64 `json:"idx_deletes"`
	IdxRebuilds     uint64 `json:"idx_rebuilds"`
	// DeltaPages counts the pages commits wrote into epoch deltas;
	// SharedPages the pages of re-stored relations that commits took over
	// by page ID from the previous epoch instead of writing them again.
	DeltaPages  uint64 `json:"delta_pages"`
	SharedPages uint64 `json:"shared_pages"`
	// RootGrows counts the levels document inserts added above the
	// collection root (xmltree.Document.GrowRoot); TreeHeight is the
	// forest's PBiTree height now.
	RootGrows  uint64 `json:"root_grows"`
	TreeHeight int    `json:"tree_height"`
}

// docState tracks one live document of the forest by identity (codes may
// change under renumbering; the element pointer does not).
type docState struct {
	name string
	root *xmltree.Element
	// elems is the size of root's subtree (the catalog's DocInfo.Elements),
	// kept current by every op that adds or removes elements so a commit
	// does not walk the forest to recount it.
	elems int64
}

// Store is the live write path over one database's epoch family. All
// methods are safe for concurrent use; Apply batches are serialized.
type Store struct {
	cfg Config
	dir string // epochs directory

	mu    sync.Mutex
	man   *Manifest
	cur   string // current epoch's database path
	chain int    // delta-chain length of the current epoch
	// forest is the collection as the batch in progress leaves it; the tag
	// indexes it records as changed (ChangedFrom) since the last commit are
	// the relations the next commit re-stores, each from the ordinal given.
	forest *xmltree.Document
	// docs are the live documents in catalog order, byName indexes them, and
	// docSpans is the interval index over their regions, sorted by start —
	// DocFor resolves codes to documents with a binary search. Each op
	// updates all three in place.
	docs     []*docState
	byName   map[string]*docState
	docSpans []docSpan
	// startIdx is the incrementally-maintained B+-tree over every stored
	// element (key = region start, value = code), the live counterpart of
	// the serving side's start index: per-op inserts and deletes keep it
	// current, scoped renumbers patch the affected subtree, and only a
	// global re-encode rebuilds it from scratch.
	idxDisk *storage.MemDisk
	idxPool *buffer.Pool
	idx     *btree.Tree
	closed  bool
	// eng is the commit engine, a read-only engine at the epoch database
	// engPath with that epoch's relations rels. It is kept across commits —
	// each commit's SaveEpoch leaves it at the epoch it published — so a
	// commit reads and writes only what changed, through a warm pool. See
	// engine.
	eng     *containment.Engine
	engPath string
	rels    map[string]*containment.Relation

	onPublish func(epoch int64, path string)
	// published holds the publications whose hook has not run yet, in
	// publication order: each publisher appends its own under mu, then
	// drains the queue under hookMu (deliver), so hooks run one at a time
	// and in the order the epochs were published.
	published []publication
	hookMu    sync.Mutex

	stop chan struct{}
	done chan struct{}

	commits, inserts, updates, deletes  atomic.Uint64
	renumScoped, renumGlobal, overflow  atomic.Uint64
	rootGrows                           atomic.Uint64
	compactions, compactAborts          atomic.Uint64
	compactedPages                      atomic.Uint64
	idxInserts, idxDeletes, idxRebuilds atomic.Uint64
	deltaPages, sharedPages             atomic.Uint64
}

type docSpan struct {
	start, end uint64
	doc        *docState
}

// Open attaches a Store to the database at cfg.DBPath, creating or
// resuming its epochs directory, and starts the compaction daemon when
// configured. The database must have been saved by pbidb build (tag
// relations with a full tag set): the in-memory forest is reconstructed
// from the stored (tag, code) pairs, which requires every element present.
func Open(cfg Config) (*Store, error) {
	if cfg.DBPath == "" {
		return nil, fmt.Errorf("ingest: Config.DBPath required")
	}
	if cfg.Headroom <= 0 {
		cfg.Headroom = 2
	}
	if cfg.BufferPages <= 0 {
		cfg.BufferPages = 1024
	}
	if cfg.Keep <= 0 {
		cfg.Keep = 2
	}
	if cfg.CompactInterval <= 0 {
		cfg.CompactInterval = 2 * time.Second
	}
	dir := epochsDir(cfg.DBPath)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: create epochs dir: %w", err)
	}
	man, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	if man == nil {
		rel, err := filepath.Rel(dir, cfg.DBPath)
		if err != nil {
			return nil, fmt.Errorf("ingest: database not addressable from its epochs dir: %w", err)
		}
		man = &Manifest{Current: 0, Epochs: []EpochEntry{{Epoch: 0, Path: rel}}}
		if err := man.save(dir); err != nil {
			return nil, err
		}
	}
	sweepOrphans(dir, man)
	cur := man.entry(man.Current)
	if cur == nil {
		return nil, fmt.Errorf("ingest: manifest current epoch %d has no entry", man.Current)
	}
	s := &Store{
		cfg:  cfg,
		dir:  dir,
		man:  man,
		cur:  resolve(dir, cur),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if err := s.reload(); err != nil {
		return nil, err
	}
	if cfg.CompactAfter > 0 {
		go s.compactor()
	} else {
		close(s.done)
	}
	return s, nil
}

// Close stops the compaction daemon. In-flight Apply calls finish first.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
	s.mu.Lock()
	s.dropEngine()
	s.mu.Unlock()
	return nil
}

// engine returns the commit engine at the current epoch: the kept one when
// it is there already, advanced onto the current epoch when that extends
// its chain, and opened afresh otherwise — on first use, and after a
// compaction brought a new base, when the fresh engine inherits the pages
// the old one had resident. Called with mu held.
func (s *Store) engine() (*containment.Engine, map[string]*containment.Relation, error) {
	if s.eng != nil && s.engPath != s.cur {
		if rels, err := s.eng.Advance(s.cur); err == nil {
			s.rels, s.engPath = rels, s.cur
		}
	}
	if s.eng == nil || s.engPath != s.cur {
		eng, rels, err := containment.Open(containment.Config{
			Path: s.cur, ReadOnly: true, BufferPages: s.cfg.BufferPages,
		})
		if err != nil {
			s.dropEngine()
			return nil, nil, err
		}
		if s.eng != nil {
			eng.Inherit(s.eng)
			s.dropEngine()
		}
		s.eng, s.rels, s.engPath = eng, rels, s.cur
	}
	return s.eng, s.rels, nil
}

// dropEngine closes the commit engine; the next engine call opens one.
// Called with mu held.
func (s *Store) dropEngine() {
	if s.eng != nil {
		s.eng.Close() //nolint:errcheck // read-only: nothing to flush
		s.eng, s.rels, s.engPath = nil, nil, ""
	}
}

// SetOnPublish installs a hook called after every epoch publication
// (ingest commit or compaction) with the new epoch and its database path.
// The hook runs outside the store's lock, one call at a time, in
// publication order — its epochs strictly increase — and a commit or
// compaction returns only once its own epoch's hook has run. The hook
// must not apply batches or compact itself. The serving tier uses it to
// swap workers and invalidate epoch-keyed caches.
func (s *Store) SetOnPublish(fn func(epoch int64, path string)) {
	s.mu.Lock()
	s.onPublish = fn
	s.mu.Unlock()
}

// publication is one published epoch awaiting its hook.
type publication struct {
	epoch int64
	path  string
}

// deliver runs the publish hook for every publication queued so far, in
// order, and returns once the queue is empty — so the caller's own, queued
// before it called, has been delivered, by it or by a concurrent
// publisher. Called without mu held.
func (s *Store) deliver() {
	s.hookMu.Lock()
	defer s.hookMu.Unlock()
	for {
		s.mu.Lock()
		if len(s.published) == 0 {
			s.mu.Unlock()
			return
		}
		p, hook := s.published[0], s.onPublish
		s.published = s.published[1:]
		s.mu.Unlock()
		if hook != nil {
			hook(p.epoch, p.path)
		}
	}
}

// CurrentEpoch returns the published epoch number and its database path.
func (s *Store) CurrentEpoch() (int64, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.Current, s.cur
}

// Epochs returns the published manifest entries, oldest first.
func (s *Store) Epochs() []EpochEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]EpochEntry(nil), s.man.Epochs...)
}

// Stats returns a snapshot of the store's gauges and counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Epoch:     s.man.Current,
		ChainLen:  s.chain,
		Documents: len(s.docs),
	}
	if s.forest != nil {
		st.Elements = s.forest.NumElements() - 1 // minus the synthetic root
		st.TreeHeight = s.forest.Height
	}
	s.mu.Unlock()
	st.Commits = s.commits.Load()
	st.Inserts = s.inserts.Load()
	st.Updates = s.updates.Load()
	st.Deletes = s.deletes.Load()
	st.RenumbersScoped = s.renumScoped.Load()
	st.RenumbersGlobal = s.renumGlobal.Load()
	st.OverflowInserts = s.overflow.Load()
	st.RootGrows = s.rootGrows.Load()
	st.Compactions = s.compactions.Load()
	st.CompactAborts = s.compactAborts.Load()
	st.CompactedPages = s.compactedPages.Load()
	st.IdxInserts = s.idxInserts.Load()
	st.IdxDeletes = s.idxDeletes.Load()
	st.IdxRebuilds = s.idxRebuilds.Load()
	st.DeltaPages = s.deltaPages.Load()
	st.SharedPages = s.sharedPages.Load()
	return st
}

// reload rebuilds the in-memory state (forest, documents, start index)
// from the current epoch — the open path, and the rollback path when an
// operation in a batch fails after earlier ones already mutated the
// forest.
func (s *Store) reload() error {
	eng, rels, err := s.engine()
	if err != nil {
		return fmt.Errorf("ingest: open epoch database: %w", err)
	}
	var elems []xmltree.TaggedCode
	for name, r := range rels {
		if !strings.HasPrefix(name, relPrefix) {
			continue
		}
		tag := strings.TrimPrefix(name, relPrefix)
		codes, err := r.Codes()
		if err != nil {
			return fmt.Errorf("ingest: read relation %s: %w", name, err)
		}
		for _, c := range codes {
			elems = append(elems, xmltree.TaggedCode{Tag: tag, Code: c})
		}
	}
	forest, err := xmltree.FromCodes(eng.TreeHeight(), elems)
	if err != nil {
		return fmt.Errorf("ingest: reconstruct forest (was the database built with a full tag set?): %w", err)
	}
	// Match catalog document names to forest roots by root code; roots the
	// catalog does not name get stable synthetic names.
	catDocs, err := eng.Documents()
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	byRoot := map[pbicode.Code]string{}
	for _, d := range catDocs {
		byRoot[d.Root] = d.Name
	}
	roots := forest.DocumentRoots()
	s.docs = make([]*docState, len(roots))
	s.byName = make(map[string]*docState, len(roots))
	for i, root := range roots {
		name, ok := byRoot[root.Code]
		if !ok {
			name = fmt.Sprintf("doc-%04d", i)
		}
		s.docs[i] = &docState{name: name, root: root, elems: subtreeSize(root)}
		s.byName[name] = s.docs[i]
	}
	s.forest = forest
	s.chain = len(eng.DeltaChain())
	s.rebuildDocSpans()
	s.rebuildIndex()
	return nil
}

// rebuildDocSpans recomputes the interval index over document regions
// from scratch: on open and after a global re-encode moved every root.
func (s *Store) rebuildDocSpans() {
	s.docSpans = s.docSpans[:0]
	for _, d := range s.docs {
		s.docSpans = append(s.docSpans, docSpan{start: d.root.Code.Start(), end: d.root.Code.End(), doc: d})
	}
	slices.SortFunc(s.docSpans, func(a, b docSpan) int { return cmp.Compare(a.start, b.start) })
}

// spanAt returns where the span starting at start is, or would go, in
// docSpans.
func (s *Store) spanAt(start uint64) int {
	i, _ := slices.BinarySearchFunc(s.docSpans, start, func(sp docSpan, start uint64) int { return cmp.Compare(sp.start, start) })
	return i
}

// addDoc makes d a live document: last in catalog order, and in the
// interval index where its region starts.
func (s *Store) addDoc(d *docState) {
	s.docs = append(s.docs, d)
	s.byName[d.name] = d
	start := d.root.Code.Start()
	s.docSpans = slices.Insert(s.docSpans, s.spanAt(start), docSpan{start: start, end: d.root.Code.End(), doc: d})
}

// removeDoc forgets the live document d.
func (s *Store) removeDoc(d *docState) {
	s.docs = slices.DeleteFunc(s.docs, func(x *docState) bool { return x == d })
	delete(s.byName, d.name)
	if i := s.spanAt(d.root.Code.Start()); i < len(s.docSpans) && s.docSpans[i].doc == d {
		s.docSpans = slices.Delete(s.docSpans, i, i+1)
	}
}

// docFor resolves a code to the document whose region contains it.
func (s *Store) docFor(c pbicode.Code) *docState {
	start := c.Start()
	i := sort.Search(len(s.docSpans), func(i int) bool { return s.docSpans[i].start > start })
	if i == 0 {
		return nil
	}
	if sp := s.docSpans[i-1]; c.End() <= sp.end {
		return sp.doc
	}
	return nil
}

// rebuildIndex reconstructs the start B+-tree from the whole forest (open
// and global-re-encode path).
func (s *Store) rebuildIndex() {
	if s.idxDisk != nil {
		s.idxDisk.Close()
	}
	s.idxDisk = storage.NewMemDisk(0, storage.CostModel{})
	s.idxPool = buffer.New(s.idxDisk, 256)
	t, err := btree.New(s.idxPool)
	if err != nil {
		// MemDisk with the default page size cannot fail page allocation.
		panic(fmt.Sprintf("ingest: start index: %v", err))
	}
	s.idx = t
	s.forest.Walk(func(e *xmltree.Element) bool {
		if e.Parent != nil {
			if err := s.idx.Insert(e.Code.Start(), uint64(e.Code)); err != nil {
				panic(fmt.Sprintf("ingest: start index insert: %v", err))
			}
		}
		return true
	})
	s.idxRebuilds.Add(1)
}

// idxInsertSubtree / idxDeleteCodes maintain the start index around
// forest mutations.
func (s *Store) idxInsertSubtree(e *xmltree.Element) error {
	var err error
	walk(e, func(x *xmltree.Element) {
		if err == nil {
			err = s.idx.Insert(x.Code.Start(), uint64(x.Code))
			s.idxInserts.Add(1)
		}
	})
	return err
}

func (s *Store) idxDeleteCodes(codes []pbicode.Code) error {
	for _, c := range codes {
		ok, err := s.idx.Delete(c.Start(), uint64(c))
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("ingest: start index lost code %v", c)
		}
		s.idxDeletes.Add(1)
	}
	return nil
}

func walk(e *xmltree.Element, fn func(*xmltree.Element)) {
	fn(e)
	for _, c := range e.Children {
		walk(c, fn)
	}
}

func subtreeSize(e *xmltree.Element) int64 {
	n := int64(0)
	walk(e, func(*xmltree.Element) { n++ })
	return n
}

func subtreeCodes(e *xmltree.Element) []pbicode.Code {
	var out []pbicode.Code
	walk(e, func(x *xmltree.Element) { out = append(out, x.Code) })
	return out
}

// headroom is the re-encode slot headroom under the active coding scheme.
func (s *Store) headroom() int {
	if s.cfg.GapAware {
		return s.cfg.Headroom
	}
	return 0
}

// pickSlot chooses a sibling slot under parent, next-fit: the slot after
// the highest taken one, so an insert lands after every sibling and a
// relation that appends its codes stays in document order. At the
// collection root that is the only choice — ok is false once it runs past
// the range, and graft grows the root. Under an element parent, once
// next-fit runs past the primary region, the lowest free slot in it.
// Gap-aware, an element parent's primary region is the first three
// quarters of its range and the last quarter is reserved as overflow,
// taken (first-fit) only when the primary is full, so bursts on a hot
// parent defer renumbering instead of forcing it; naive, the primary
// region is the whole range. overflow reports a slot of the reserved
// quarter.
func (s *Store) pickSlot(parent *xmltree.Element, si xmltree.SlotInfo) (slot uint64, overflow, ok bool) {
	next := si.Used.Next()
	if parent == s.forest.Root {
		return next, false, next < si.Capacity
	}
	primary := si.Capacity
	if s.cfg.GapAware && si.Capacity >= 4 {
		primary = si.Capacity - si.Capacity/4
	}
	if next < primary {
		return next, false, true
	}
	if slot, ok := si.Used.FirstFree(0, primary); ok {
		return slot, false, true
	}
	if slot, ok := si.Used.FirstFree(primary, si.Capacity); ok {
		return slot, true, true
	}
	return 0, false, false
}

// graft inserts a detached subtree under parent, walking the renumber
// ladder on exhaustion: free virtual slots first; then, at the collection
// root, a level added above it (GrowRoot), which doubles its range and
// moves no code, and under an element parent a scoped subtree renumbering
// of the parent; then a whole-forest re-encode with the subtree
// structurally attached (the only rung that can add PBiTree levels below a
// parent, so the one a document too deep for the root's slots, or a root
// at pbicode.MaxHeight, still takes). Gap-aware, the subtree itself is
// binarized with headroom (so inserts inside it later find slots),
// dropping to minimal packing before resorting to renumbering.
func (s *Store) graft(parent *xmltree.Element, root *xmltree.Element) error {
	headrooms := []int{s.headroom()}
	if s.headroom() != 0 {
		headrooms = append(headrooms, 0)
	}
	trySlots := func() (bool, error) {
		for _, hr := range headrooms {
			si, err := s.forest.Slots(parent)
			if err != nil {
				return false, err
			}
			if slot, overflow, ok := s.pickSlot(parent, si); ok {
				err := s.forest.InsertSubtreeSlot(parent, root, hr, slot)
				if err == nil {
					if overflow {
						s.overflow.Add(1)
					}
					return true, s.idxInsertSubtree(root)
				}
				if !errors.Is(err, xmltree.ErrNoFreeSlot) {
					return false, err
				}
				// The free slot is too shallow for the subtree at this
				// headroom, and so is every other: a parent's child slots
				// all lie on one level, with the same depth below them.
			}
		}
		return false, nil
	}
	if ok, err := trySlots(); ok || err != nil {
		return err
	}
	if parent == s.forest.Root {
		// Only a range full to its end grows: a growth adds no depth
		// below the slots, so it cannot help a document too deep for them.
		if si, err := s.forest.Slots(parent); err != nil {
			return err
		} else if si.Used.Next() >= si.Capacity && s.forest.GrowRoot() == nil {
			s.rootGrows.Add(1)
			if ok, err := trySlots(); ok || err != nil {
				return err
			}
		}
	} else if err := s.renumberScoped(parent); err == nil {
		if ok, err := trySlots(); ok || err != nil {
			return err
		}
	} else if !errors.Is(err, xmltree.ErrNoFreeSlot) {
		return err
	}
	// Final rung: attach structurally and re-encode the whole forest.
	// Reencode derives codes and indexes from the element structure alone,
	// so the new subtree is coded and indexed along with everything else;
	// headroom can overflow the 63-level code space on deep forests, so
	// fall back to a minimal re-encode before giving up.
	root.Parent = parent
	parent.Children = append(parent.Children, root)
	err := s.forest.Reencode(s.renumberHeadroom())
	if err != nil {
		err = s.forest.Reencode(0)
	}
	if err != nil {
		parent.Children = parent.Children[:len(parent.Children)-1]
		root.Parent = nil
		return fmt.Errorf("ingest: no room for subtree under %v: %w", parent.Code, err)
	}
	s.renumGlobal.Add(1)
	s.rebuildDocSpans()
	s.rebuildIndex()
	return nil
}

// renumberHeadroom is the slot headroom re-encodes use. Never below 1:
// a minimal (headroom-0) re-encode of a parent whose child count is an
// exact power of two reproduces the same full slot range and makes no
// progress, so even the naive scheme must at least double the range it is
// renumbering to fit the incoming insert.
func (s *Store) renumberHeadroom() int {
	if h := s.headroom(); h > 1 {
		return h
	}
	return 1
}

// renumberScoped re-encodes parent's subtree in place with headroom and
// patches the start index; parent keeps its code, so no document region
// moves. ErrNoFreeSlot propagates when parent's region is too shallow for
// the widened subtree — the caller escalates to a global re-encode.
func (s *Store) renumberScoped(parent *xmltree.Element) error {
	old := subtreeCodes(parent)
	if err := s.forest.RenumberSubtree(parent, s.renumberHeadroom()); err != nil {
		return err
	}
	s.renumScoped.Add(1)
	if err := s.idxDeleteCodes(old); err != nil {
		return err
	}
	return s.idxInsertSubtree(parent)
}

// resolvedOp pairs an operation with its target element, looked up before
// the batch mutates anything: renumbering inside a batch moves codes, but
// element identity is stable, so every op addresses the element its code
// named in the epoch the client saw.
type resolvedOp struct {
	op Op
	el *xmltree.Element // parent (insert_element) or target (delete/update)
}

// resolve looks up a batch's codes against the un-mutated forest. Called
// with mu held, before the first apply.
func (s *Store) resolve(ops []Op) ([]resolvedOp, error) {
	rops := make([]resolvedOp, len(ops))
	for i, op := range ops {
		rops[i] = resolvedOp{op: op}
		switch op.Op {
		case "insert_element":
			e := s.forest.ByCode(pbicode.Code(op.Parent))
			if e == nil {
				return nil, fmt.Errorf("insert_element: no element with code %d", op.Parent)
			}
			rops[i].el = e
		case "delete_element", "update_element":
			e := s.forest.ByCode(pbicode.Code(op.Code))
			if e == nil {
				return nil, fmt.Errorf("%s: no element with code %d", op.Op, op.Code)
			}
			rops[i].el = e
		}
	}
	return rops, nil
}

// alive reports whether an element resolved at batch start is still part
// of the forest (an earlier op in the batch may have deleted its subtree).
func (s *Store) alive(e *xmltree.Element) bool {
	return s.forest.ByCode(e.Code) == e
}

// apply mutates the forest for one operation.
func (s *Store) apply(rop resolvedOp) error {
	op := rop.op
	switch op.Op {
	case "insert_doc":
		if op.Doc == "" || op.XML == "" {
			return fmt.Errorf("insert_doc needs doc and xml")
		}
		if s.byName[op.Doc] != nil {
			return fmt.Errorf("document %q already exists", op.Doc)
		}
		parsed, err := xmltree.ParseString(op.XML, s.cfg.ParseOptions)
		if err != nil {
			return fmt.Errorf("insert_doc %q: %w", op.Doc, err)
		}
		root := parsed.Root
		if err := s.graft(s.forest.Root, root); err != nil {
			return fmt.Errorf("insert_doc %q: %w", op.Doc, err)
		}
		s.addDoc(&docState{name: op.Doc, root: root, elems: subtreeSize(root)})
		s.inserts.Add(1)
		return nil

	case "delete_doc":
		d := s.byName[op.Doc]
		if d == nil {
			return fmt.Errorf("delete_doc: unknown document %q", op.Doc)
		}
		codes := subtreeCodes(d.root)
		if err := s.forest.Delete(d.root); err != nil {
			return err
		}
		if err := s.idxDeleteCodes(codes); err != nil {
			return err
		}
		s.removeDoc(d)
		s.deletes.Add(1)
		return nil

	case "insert_element":
		if op.Tag == "" {
			return fmt.Errorf("insert_element needs a tag")
		}
		parent := rop.el
		if parent == s.forest.Root {
			return fmt.Errorf("insert_element: use insert_doc to add top-level documents")
		}
		if !s.alive(parent) {
			return fmt.Errorf("insert_element: code %d was deleted earlier in the batch", op.Parent)
		}
		doc := s.docFor(parent.Code)
		if doc == nil {
			return fmt.Errorf("insert_element: code %d lies in no document", op.Parent)
		}
		el := &xmltree.Element{Tag: op.Tag}
		if err := s.graft(parent, el); err != nil {
			return err
		}
		doc.elems++
		s.inserts.Add(1)
		return nil

	case "delete_element":
		e := rop.el
		if e.Parent == nil {
			return fmt.Errorf("delete_element: cannot delete the collection root")
		}
		if e.Parent == s.forest.Root {
			return fmt.Errorf("delete_element: code %d is a document root; use delete_doc", op.Code)
		}
		if !s.alive(e) {
			return fmt.Errorf("delete_element: code %d was deleted earlier in the batch", op.Code)
		}
		doc := s.docFor(e.Code)
		if doc == nil {
			return fmt.Errorf("delete_element: code %d lies in no document", op.Code)
		}
		codes := subtreeCodes(e)
		if err := s.forest.Delete(e); err != nil {
			return err
		}
		if err := s.idxDeleteCodes(codes); err != nil {
			return err
		}
		doc.elems -= int64(len(codes))
		s.deletes.Add(1)
		return nil

	case "update_element":
		if op.Tag == "" {
			return fmt.Errorf("update_element needs a tag")
		}
		e := rop.el
		if e.Parent == nil {
			return fmt.Errorf("update_element: cannot retag the collection root")
		}
		if !s.alive(e) {
			return fmt.Errorf("update_element: code %d was deleted earlier in the batch", op.Code)
		}
		if err := s.forest.Retag(e, op.Tag); err != nil {
			return err
		}
		s.updates.Add(1)
		return nil

	default:
		return fmt.Errorf("unknown op %q", op.Op)
	}
}

// Apply applies a batch of operations and publishes the result as the next
// epoch. The batch is atomic: if any operation fails, the whole batch is
// rolled back (state reloads from the current epoch) and no epoch is
// published. Batches are serialized; queries are unaffected — they keep
// serving the current epoch until the publish hook swaps them over.
func (s *Store) Apply(ops []Op) (*CommitResult, error) {
	if len(ops) == 0 {
		return nil, &BatchError{fmt.Errorf("ingest: empty batch")}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("ingest: store closed")
	}
	scoped0, global0 := s.renumScoped.Load(), s.renumGlobal.Load()
	rops, err := s.resolve(ops)
	if err != nil {
		// Nothing mutated yet; no rollback needed.
		s.mu.Unlock()
		return nil, &BatchError{fmt.Errorf("ingest: %w", err)}
	}
	for _, rop := range rops {
		if err := s.apply(rop); err != nil {
			relErr := s.reload()
			s.mu.Unlock()
			if relErr != nil {
				return nil, fmt.Errorf("ingest: %v; and rollback reload failed: %w", err, relErr)
			}
			return nil, &BatchError{fmt.Errorf("ingest: %w (batch rolled back)", err)}
		}
	}
	res, err := s.commit(len(ops), scoped0, global0)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.deliver()
	return res, nil
}

// commit freezes the mutated forest as the next epoch. Called with mu held;
// queues the publication for deliver, which the caller runs after unlock.
func (s *Store) commit(applied int, scoped0, global0 uint64) (*CommitResult, error) {
	eng, rels, err := s.engine()
	if err != nil {
		return nil, fmt.Errorf("ingest: reopen current epoch: %w", err)
	}
	// A commit that fails part-way leaves the engine's overlay, or the
	// engine itself, past the published epoch: drop it.
	published := false
	defer func() {
		if !published {
			s.dropEngine()
		}
	}()

	var keep []*containment.Relation
	for name, r := range rels {
		tag, isTag := strings.CutPrefix(name, relPrefix)
		if _, changed := s.forest.ChangedFrom(tag); isTag && changed {
			continue // replaced (or dropped) below
		}
		keep = append(keep, r)
	}
	var written, shared int64 // pages of the re-stored relations
	for _, tag := range s.forest.ChangedTags() {
		from, _ := s.forest.ChangedFrom(tag)
		if tag == s.forest.Root.Tag || len(s.forest.Elements(tag)) == 0 {
			continue // not stored, or vanished: drop its relation from the catalog
		}
		// Over the stored relation, whose first from records the tag's index
		// still holds: the pages wholly before them are shared with the
		// current epoch by page ID, and only the rest is written.
		r, err := eng.LoadOver(rels[relPrefix+tag], relPrefix+tag, from, s.forest.CodesFrom(tag, from))
		if err != nil {
			return nil, fmt.Errorf("ingest: load tag %q: %w", tag, err)
		}
		keep = append(keep, r)
		shared += r.SharedPages()
		written += r.Pages() - r.SharedPages()
	}

	docs := make([]containment.DocInfo, len(s.docs))
	for i, d := range s.docs {
		docs[i] = containment.DocInfo{Name: d.name, Root: d.root.Code, Elements: d.elems}
	}

	epoch := s.man.Current + 1
	path := filepath.Join(s.dir, fmt.Sprintf("epoch-%06d.pbidb", epoch))
	if err := eng.SaveEpoch(path, epoch, docs, keep...); err != nil {
		return nil, fmt.Errorf("ingest: save epoch %d: %w", epoch, err)
	}
	entry := EpochEntry{
		Epoch:      epoch,
		Path:       filepath.Base(path),
		Files:      []string{filepath.Base(path) + ".catalog", filepath.Base(path) + ".delta"},
		DeltaPages: written,
	}
	for _, f := range append(append([]string{eng.BasePath()}, eng.DeltaChain()...), eng.CatalogChain()...) {
		rel, err := filepath.Rel(s.dir, f)
		if err != nil {
			return nil, fmt.Errorf("ingest: epoch %d: chain file %s: %w", epoch, f, err)
		}
		entry.Chain = append(entry.Chain, rel)
	}
	if err := s.publishLocked(entry); err != nil {
		return nil, err
	}
	published = true
	s.rels = make(map[string]*containment.Relation, len(keep))
	for _, r := range keep {
		s.rels[r.Name()] = r
	}
	s.cur, s.engPath = path, path
	s.chain = len(eng.DeltaChain())
	s.forest.ResetChanges()
	s.commits.Add(1)
	s.deltaPages.Add(uint64(written))
	s.sharedPages.Add(uint64(shared))
	res := &CommitResult{
		Epoch: epoch, Path: path, Applied: applied,
		RenumbersScoped: s.renumScoped.Load() - scoped0,
		RenumbersGlobal: s.renumGlobal.Load() - global0,
	}
	s.published = append(s.published, publication{epoch, path})
	return res, nil
}

// publishLocked appends an epoch entry, makes it current, prunes retired
// epochs past cfg.Keep, deletes the files of the entries pruned that no
// retained entry references, and swaps the manifest atomically. Called
// with mu held.
func (s *Store) publishLocked(entry EpochEntry) error {
	s.man.Epochs = append(s.man.Epochs, entry)
	s.man.Current = entry.Epoch

	// Retain the newest Keep retired epochs plus the current one; epoch 0
	// (the original database) is always safe — it owns no files.
	retainFrom := 0
	if n := len(s.man.Epochs); n > s.cfg.Keep+1 {
		retainFrom = n - (s.cfg.Keep + 1)
	}
	retained := s.man.Epochs[retainFrom:]
	// A pruned entry's files — its own, and the deltas, diff catalogs and
	// base of its chain — go once no retained entry references them. A
	// file another entry's chain still needs is a candidate again when
	// that entry is pruned, so every file goes with the last entry that
	// references it, and a commit costs the pruned entries' files, not a
	// scan of the directory. A base page file takes its checksum sidecar
	// with it.
	for _, e := range s.man.Epochs[:retainFrom] {
		for _, files := range [][]string{e.Files, e.Chain} {
			for _, f := range files {
				if !collectable(f) || referenced(retained, f) {
					continue
				}
				if os.Remove(filepath.Join(s.dir, f)) == nil {
					os.Remove(filepath.Join(s.dir, f+".sums")) //nolint:errcheck // GC is best-effort; most files have none
				}
			}
		}
	}
	s.man.Epochs = append([]EpochEntry(nil), retained...)
	return s.man.save(s.dir)
}

// collectable reports whether name is a file GC may delete: an epoch
// catalog or delta or a compacted base, or one of their sidecars, inside
// the epochs directory. In-progress compactions fold into ".tmp-"-prefixed
// names and are never touched; files outside the epochs directory (the
// original database) are out of scope by construction.
func collectable(name string) bool {
	return !strings.ContainsRune(name, filepath.Separator) &&
		(strings.HasPrefix(name, "epoch-") || strings.HasPrefix(name, "compact-"))
}

// referenced reports whether any of entries references the file name: as
// a file it owns, its database, or a file of its chain. A chained base page
// file keeps its sidecars alive too: a later epoch re-verifies base pages
// against the .sums file and folds its catalog even after the base's
// owning entry has aged out.
func referenced(entries []EpochEntry, name string) bool {
	stem := strings.TrimSuffix(strings.TrimSuffix(name, ".sums"), ".catalog")
	for _, e := range entries {
		if e.Path == name || slices.Contains(e.Files, name) || slices.Contains(e.Chain, name) || slices.Contains(e.Chain, stem) {
			return true
		}
	}
	return false
}

// sweepOrphans deletes what a crash left in the epochs directory: fold
// scraps of a compaction that died mid-write (".tmp-" names), and epoch
// files no manifest entry references — a delta whose catalog was never
// written, or an epoch whose manifest swap never happened. It runs once,
// at Open, before any daemon: from then on publishLocked collects.
func sweepOrphans(dir string, man *Manifest) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, ".tmp-") && (!collectable(name) || referenced(man.Epochs, name)) {
			continue
		}
		os.Remove(filepath.Join(dir, name)) //nolint:errcheck // best-effort
	}
}

// DocFor reports the name of the document whose region contains code, for
// inspection endpoints. Empty when none does.
func (s *Store) DocFor(code uint64) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d := s.docFor(pbicode.Code(code)); d != nil {
		return d.name
	}
	return ""
}

// IndexKeys returns the number of entries in the incrementally-maintained
// start index (equals the stored element count; exposed for invariant
// checks in tests and fsck-style tooling).
func (s *Store) IndexKeys() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.NumKeys()
}
