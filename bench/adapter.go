package bench

// adapter.go is the only file under bench/ that imports the repository.
// No later change may edit bench/, so every repository name used here is
// frozen API; api_test.go checks the imports and selectors of this file
// against the allow-list and that no other file imports the repository.
// Everything else in the harness talks to these wrappers and to the HTTP
// wire shapes declared in wire.go.

import (
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/ingest"
	"github.com/pbitree/pbitree/internal/qserv"
	"github.com/pbitree/pbitree/internal/router"
	"github.com/pbitree/pbitree/internal/shard"
	"github.com/pbitree/pbitree/internal/workload"
	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// Element is a node of a generated document tree. The oracle walks Tag and
// Children only; it never sees a code.
type Element = xmltree.Element

// Code is one PBiTree code (a uint64).
type Code = pbicode.Code

const (
	relPrefix   = "tag:" // pbidb's relation naming, which qserv and ingest expect
	pageSize    = 4096
	bufferPages = 256 // the small pool of the paper's setting, every engine and worker
)

// PaperJoins returns the paper's containment joins, D1..D10 then B1..B10.
func PaperJoins() []Key {
	var out []Key
	for _, q := range append(workload.DBLPQueries(), workload.XMarkQueries()...) {
		out = append(out, Key{ID: q.ID, Tags: []string{q.AncTag, q.DescTag}})
	}
	return out
}

// GenerateDBLPTree returns the root of one generated DBLP-shaped document.
func GenerateDBLPTree(scale float64, seed int64) (*Element, error) {
	d, err := workload.GenerateDBLP(workload.DBLP(scale, seed))
	if err != nil {
		return nil, err
	}
	return d.Root, nil
}

// GenerateXMarkTree returns the root of one generated XMark-shaped document.
func GenerateXMarkTree(scale float64, seed int64) (*Element, error) {
	d, err := workload.GenerateXMark(workload.XMark(scale, seed))
	if err != nil {
		return nil, err
	}
	return d.Root, nil
}

// EncodeTree assigns PBiTree codes to a standalone tree (Algorithm 1).
func EncodeTree(root *Element) error {
	_, err := xmltree.Encode(root)
	return err
}

// Collection is a corpus encoded in one PBiTree.
type Collection struct {
	c     *xmltree.Collection
	roots []*Element
}

// NewCollection returns an empty collection.
func NewCollection() *Collection { return &Collection{c: xmltree.NewCollection()} }

// Add hangs one document under the collection root (re-encoding the corpus).
func (c *Collection) Add(name string, root *Element) error {
	if err := c.c.AddTree(name, root); err != nil {
		return err
	}
	c.roots = append(c.roots, root)
	return nil
}

// Roots returns the document roots in collection order.
func (c *Collection) Roots() []*Element { return c.roots }

// Codes returns a tag's corpus-wide code set in document order.
func (c *Collection) Codes(tag string) []Code { return c.c.Codes(tag) }

// Height is the PBiTree height of the collection's encoding.
func (c *Collection) Height() int { return c.c.Height() }

// Store writes every tag of the collection as a relation of a new database
// at path, with the document catalog shard.Split needs, and reports the
// time spent in Engine.Load alone.
func (c *Collection) Store(path string, tags []string) (load time.Duration, err error) {
	eng, err := containment.NewEngine(containment.Config{
		Path: path, PageSize: pageSize, TreeHeight: c.c.Height(),
	})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	rels := make([]*containment.Relation, 0, len(tags))
	for _, tag := range tags {
		codes := c.c.Codes(tag)
		t0 := time.Now()
		r, err := eng.Load(relPrefix+tag, codes)
		load += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("load %s: %w", tag, err)
		}
		rels = append(rels, r)
	}
	var docs []containment.DocInfo
	for _, name := range c.c.Names() {
		root, err := c.c.RootCode(name)
		if err != nil {
			return 0, err
		}
		var elems int64
		for _, tag := range tags {
			codes, err := c.c.CodesIn(name, tag)
			if err != nil {
				return 0, err
			}
			elems += int64(len(codes))
		}
		docs = append(docs, containment.DocInfo{Name: name, Root: root, Elements: elems})
	}
	if err := eng.SaveDocs(docs, rels...); err != nil {
		return 0, fmt.Errorf("save %s: %w", path, err)
	}
	return load, nil
}

// SplitDB writes an n-way document-disjoint split of db and returns the
// manifest path and the shard page files.
func SplitDB(db string, n int) (manifest string, shards []string, err error) {
	dir := db + ".shards"
	man, err := shard.Split(db, n, dir)
	if err != nil {
		return "", nil, err
	}
	for _, s := range man.Shards {
		shards = append(shards, filepath.Join(dir, s.Path))
	}
	return filepath.Join(dir, shard.ManifestName), shards, nil
}

// JoinResult is what one join execution reports, flattened.
type JoinResult struct {
	Algorithm                                string
	Count, FalseHits, Partitions, Replicated int64
	IndexProbes, PredictedIO                 int64
	Reads, Writes, SeqReads, SeqWrites       int64
	PoolHits, PoolMisses, PoolEvictions      int64
	Virtual                                  time.Duration
}

// PageIO is the modeled page I/O of the join (reads + writes).
func (r JoinResult) PageIO() int64 { return r.Reads + r.Writes }

func flatten(res *containment.Result) JoinResult {
	return JoinResult{
		Algorithm: res.Algorithm, Count: res.Count, FalseHits: res.FalseHits,
		Partitions: res.Partitions, Replicated: res.Replicated,
		IndexProbes: res.IndexProbes, PredictedIO: res.PredictedIO,
		Reads: res.IO.Reads, Writes: res.IO.Writes,
		SeqReads: res.IO.SeqReads, SeqWrites: res.IO.SeqWrites,
		PoolHits: res.IO.PoolHits, PoolMisses: res.IO.PoolMisses,
		PoolEvictions: res.IO.PoolEvictions, Virtual: res.IO.VirtualTime,
	}
}

func joinOptions(algo string) (containment.JoinOptions, error) {
	alg, ok := containment.ParseAlgorithm(algo)
	if !ok {
		return containment.JoinOptions{}, fmt.Errorf("unknown algorithm %q", algo)
	}
	return containment.JoinOptions{Algorithm: alg}, nil
}

// Engine is one single-owner containment engine and its relations by tag.
type Engine struct {
	eng  *containment.Engine
	rels map[string]*containment.Relation
}

// OpenEngine opens db read-only with the 256-page pool and the paper's
// disk clock, the configuration of the join_cold workload.
func OpenEngine(db string) (*Engine, error) {
	eng, rels, err := containment.Open(containment.Config{
		Path: db, ReadOnly: true, BufferPages: bufferPages,
		DiskCost: containment.DefaultDiskCost,
	})
	if err != nil {
		return nil, err
	}
	byTag := make(map[string]*containment.Relation, len(rels))
	for name, r := range rels {
		byTag[name[len(relPrefix):]] = r
	}
	return &Engine{eng: eng, rels: byTag}, nil
}

// NewScratchEngine creates an empty writable engine at path for the kernel
// measurements that need private relations (sort, index build).
func NewScratchEngine(path string, treeHeight int) (*Engine, error) {
	eng, err := containment.NewEngine(containment.Config{
		Path: path, PageSize: pageSize, BufferPages: bufferPages,
		TreeHeight: treeHeight, DiskCost: containment.DefaultDiskCost,
	})
	if err != nil {
		return nil, err
	}
	return &Engine{eng: eng, rels: map[string]*containment.Relation{}}, nil
}

// join runs anc ◁ desc, through Analyze when the phase recorder is wanted.
func (e *Engine) join(anc, desc, algo string, analyze bool) (JoinResult, error) {
	a, d := e.rels[anc], e.rels[desc]
	if a == nil || d == nil {
		return JoinResult{}, fmt.Errorf("no relation for %s or %s", anc, desc)
	}
	opts, err := joinOptions(algo)
	if err != nil {
		return JoinResult{}, err
	}
	if analyze {
		an, err := e.eng.Analyze(a, d, opts)
		if err != nil {
			return JoinResult{}, err
		}
		return flatten(an.Result), nil
	}
	res, err := e.eng.Join(a, d, opts)
	if err != nil {
		return JoinResult{}, err
	}
	return flatten(res), nil
}

// Join runs anc ◁ desc under the named algorithm ("" or "auto" for AUTO).
func (e *Engine) Join(anc, desc, algo string) (JoinResult, error) {
	return e.join(anc, desc, algo, false)
}

// Analyze is Join with the phase recorder on (EXPLAIN ANALYZE).
func (e *Engine) Analyze(anc, desc, algo string) (JoinResult, error) {
	return e.join(anc, desc, algo, true)
}

// Load stores codes as relation tag.
func (e *Engine) Load(tag string, codes []Code) error {
	r, err := e.eng.Load(relPrefix+tag, codes)
	if err != nil {
		return err
	}
	e.rels[tag] = r
	return nil
}

// Size returns a relation's element and page counts (0, 0 when absent).
func (e *Engine) Size(tag string) (elems, pages int64) {
	if r := e.rels[tag]; r != nil {
		return r.Len(), r.Pages()
	}
	return 0, 0
}

// Tags returns the stored tags, sorted.
func (e *Engine) Tags() []string {
	out := make([]string, 0, len(e.rels))
	for t := range e.rels {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Scan reads the whole relation through the buffer pool.
func (e *Engine) Scan(tag string) (int, error) {
	r := e.rels[tag]
	if r == nil {
		return 0, fmt.Errorf("no relation %s", tag)
	}
	codes, err := r.Codes()
	return len(codes), err
}

// Sort sorts the relation into document order and reports the page I/O the
// external sort was charged.
func (e *Engine) Sort(tag string) (pageIO int64, err error) {
	r := e.rels[tag]
	if r == nil {
		return 0, fmt.Errorf("no relation %s", tag)
	}
	before := e.eng.IOStats().Total()
	if err := e.eng.Sort(r); err != nil {
		return 0, err
	}
	return e.eng.IOStats().Total() - before, nil
}

// BuildStartIndex builds the B+-tree on the relation's region starts.
func (e *Engine) BuildStartIndex(tag string) error {
	r := e.rels[tag]
	if r == nil {
		return fmt.Errorf("no relation %s", tag)
	}
	return e.eng.BuildStartIndex(r)
}

// DropCache empties the buffer pool.
func (e *Engine) DropCache() error { return e.eng.DropCache() }

// ReleaseTemp drops the temporary pages of the last join.
func (e *Engine) ReleaseTemp() error { return e.eng.ReleaseTemp() }

// Close releases the engine.
func (e *Engine) Close() error { return e.eng.Close() }

// ShardEngine is the in-process scatter-gather engine over a split.
type ShardEngine struct{ se *shard.Engine }

// OpenShards opens every shard of a split read-only, 256 pages each.
func OpenShards(manifest string) (*ShardEngine, error) {
	se, err := shard.Open(manifest, shard.Config{
		BufferPages: bufferPages, ReadOnly: true, DiskCost: containment.DefaultDiskCost,
	})
	if err != nil {
		return nil, err
	}
	return &ShardEngine{se: se}, nil
}

// Join fans anc ◁ desc out over the shards and merges.
func (s *ShardEngine) Join(anc, desc, algo string) (JoinResult, error) {
	a, okA := s.se.Relation(relPrefix + anc)
	d, okD := s.se.Relation(relPrefix + desc)
	if !okA || !okD {
		return JoinResult{}, fmt.Errorf("no sharded relation for %s or %s", anc, desc)
	}
	opts, err := joinOptions(algo)
	if err != nil {
		return JoinResult{}, err
	}
	res, err := s.se.Join(a, d, opts)
	if err != nil {
		return JoinResult{}, err
	}
	return flatten(res), nil
}

// Close closes every shard engine.
func (s *ShardEngine) Close() error { return s.se.Close() }

// IngestStore is the live write path over one database.
type IngestStore struct{ s *ingest.Store }

// OpenIngest attaches the gap-aware store of the ingest workload. With
// daemon set the store's own compaction daemon folds the delta chain once it
// is 16 files long; without it the chain is folded only by CompactNow, and
// the two must not be mixed on one store (both fold into the same file).
func OpenIngest(db string, daemon bool) (*IngestStore, error) {
	cfg := ingest.Config{DBPath: db, GapAware: true, BufferPages: bufferPages}
	if daemon {
		cfg.CompactAfter = compactAfter
	}
	s, err := ingest.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &IngestStore{s: s}, nil
}

// Apply commits one batch directly, bypassing HTTP.
func (s *IngestStore) Apply(ops []IngestOp) (CommitResult, error) {
	batch := make([]ingest.Op, len(ops))
	for i, op := range ops {
		batch[i] = ingest.Op{Op: op.Op, Doc: op.Doc, XML: op.XML}
	}
	res, err := s.s.Apply(batch)
	if err != nil {
		return CommitResult{}, err
	}
	return CommitResult{
		Epoch: res.Epoch, Applied: res.Applied,
		RenumbersScoped: res.RenumbersScoped, RenumbersGlobal: res.RenumbersGlobal,
	}, nil
}

// CompactNow folds the delta chain into a fresh base.
func (s *IngestStore) CompactNow() error { return s.s.CompactNow() }

// Close stops the compaction daemon.
func (s *IngestStore) Close() error { return s.s.Close() }

// NewNode returns the handler of one qserv node over db with two workers.
// cacheEntries follows qserv.Config (0 default 1024, negative off); store
// is nil for a read-only node. close must run after the HTTP server drained.
func NewNode(db string, cacheEntries int, store *IngestStore) (h http.Handler, close func() error, err error) {
	cfg := qserv.Config{DBPath: db, Workers: 2, BufferPages: bufferPages, CacheEntries: cacheEntries}
	if store != nil {
		cfg.Ingest = store.s
	}
	srv, err := qserv.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return srv.Handler(), srv.Close, nil
}

// NewRouter returns the handler of a cache-less router over topology
// (replica base URLs per shard), everything else default.
func NewRouter(topology [][]string) (h http.Handler, close func() error, err error) {
	rt, err := router.New(router.Config{Topology: topology, CacheEntries: -1})
	if err != nil {
		return nil, nil, err
	}
	return rt.Handler(), rt.Close, nil
}

// FBatch, RegionBatch and IsAncestor are the pbicode kernels, unwrapped.
func FBatch(dst, src []uint64, h int)        { pbicode.FBatch(dst, src, h) }
func RegionBatch(starts, ends, src []uint64) { pbicode.RegionBatch(starts, ends, src) }
func IsAncestor(a, d Code) bool              { return pbicode.IsAncestor(a, d) }
