// Package shard multiplies the containment-join engine across documents:
// a collection is split into N document-disjoint shards, each backed by
// its own containment.Engine (own virtual disk, own buffer pool), and a
// coordinator fans every join out to the shards concurrently and merges
// the results.
//
// The correctness argument is the paper's own coding scheme. Documents
// hang under xmltree.Collection's synthetic root, so each document's
// subtree occupies a disjoint region of the code space — and a containment
// pair (a, d) always has a and d inside one document's region. Splitting a
// collection on document boundaries therefore partitions the join: the
// union of the per-shard results is exactly the single-engine result, with
// no cross-shard pairs to reconcile. This is horizontal partitioning
// across cores, orthogonal to (and composable with) the paper's VPJ
// vertical partitioning within each shard.
//
// Like containment.Engine, a shard.Engine is owned by one goroutine at a
// time: no two of its methods may run concurrently. Internally each call
// fans out across the shard engines — each still single-threaded, driven
// by exactly one worker goroutine per request — so the single-owner rule
// of the underlying engines is preserved. To serve sharded queries
// concurrently, pool several read-only shard.Engines over the same shard
// files, exactly as internal/qserv pools solo engines.
package shard

import (
	"fmt"
	"sort"
	"sync"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/pbicode"
)

// Config configures the coordinator and its per-shard engines.
type Config struct {
	// PageSize / BufferPages / DiskCost / TreeHeight configure each shard
	// engine exactly like containment.Config — note BufferPages is PER
	// SHARD, so a sharded store holds N× the frames of a solo one.
	PageSize    int
	BufferPages int
	DiskCost    containment.DiskCost
	TreeHeight  int
	// ReadOnly opens shard page files without write access (see
	// containment.Config.ReadOnly); required for pooled serving.
	ReadOnly bool
}

// Relation is a sharded element set: one containment.Relation per shard
// (nil where the shard holds no elements of this set — that shard is
// skipped by joins, which is exact because no pair can involve it).
type Relation struct {
	name string
	per  []*containment.Relation
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Len returns the total number of elements across shards.
func (r *Relation) Len() int64 {
	var n int64
	for _, p := range r.per {
		if p != nil {
			n += p.Len()
		}
	}
	return n
}

// Pages returns the total occupied pages across shards.
func (r *Relation) Pages() int64 {
	var n int64
	for _, p := range r.per {
		if p != nil {
			n += p.Pages()
		}
	}
	return n
}

// Ordered reports whether every present shard piece is stored in document
// order (false when the relation is absent everywhere).
func (r *Relation) Ordered() bool { return r.every((*containment.Relation).Ordered) }

// every reports whether f holds for every present shard piece, and at least
// one is present.
func (r *Relation) every(f func(*containment.Relation) bool) bool {
	var any bool
	for _, p := range r.per {
		if p == nil {
			continue
		}
		if !f(p) {
			return false
		}
		any = true
	}
	return any
}

// Engine coordinates N document-disjoint shard engines behind the
// containment join surface (Join / JoinContext / Analyze / AnalyzeContext
// / PathContext). See the package comment for the ownership rule.
type Engine struct {
	shards []*containment.Engine
	rels   map[string]*Relation
	// totals accumulates each shard's cumulative I/O, updated at fan-out
	// completion. totMu makes Totals the one method safe to call from
	// another goroutine — servers scrape per-shard counters while a
	// borrowed engine may be mid-join.
	totMu  sync.Mutex
	totals []containment.IOStats
}

// New creates n empty in-memory shards (cfg.ReadOnly must be unset).
// Populate them with LoadShard; pbijoin -shards and the equivalence tests
// build their fleets this way.
func New(cfg Config, n int) (*Engine, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	if cfg.ReadOnly {
		return nil, fmt.Errorf("shard: ReadOnly applies to Open, not New")
	}
	e := &Engine{rels: map[string]*Relation{}, totals: make([]containment.IOStats, n)}
	for i := 0; i < n; i++ {
		eng, err := containment.NewEngine(containment.Config{
			PageSize:    cfg.PageSize,
			BufferPages: cfg.BufferPages,
			DiskCost:    cfg.DiskCost,
			TreeHeight:  cfg.TreeHeight,
		})
		if err != nil {
			e.Close() //nolint:errcheck // first error wins
			return nil, err
		}
		e.shards = append(e.shards, eng)
	}
	return e, nil
}

// Open opens every shard of a split database (see Split / ReadManifest):
// one containment.Open per shard file, honoring cfg.ReadOnly. Relations
// present in any shard become sharded Relations (absent shards hold nil).
func Open(manifestPath string, cfg Config) (*Engine, error) {
	_, paths, err := ReadManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	e := &Engine{rels: map[string]*Relation{}, totals: make([]containment.IOStats, len(paths))}
	n := len(paths)
	for _, p := range paths {
		eng, rels, err := containment.Open(containment.Config{
			PageSize:    cfg.PageSize,
			BufferPages: cfg.BufferPages,
			DiskCost:    cfg.DiskCost,
			TreeHeight:  cfg.TreeHeight,
			Path:        p,
			ReadOnly:    cfg.ReadOnly,
		})
		if err != nil {
			e.Close() //nolint:errcheck // first error wins
			return nil, fmt.Errorf("shard: open shard %d (%s): %w", len(e.shards), p, err)
		}
		i := len(e.shards)
		e.shards = append(e.shards, eng)
		for name, r := range rels {
			sr := e.rels[name]
			if sr == nil {
				sr = &Relation{name: name, per: make([]*containment.Relation, n)}
				e.rels[name] = sr
			}
			sr.per[i] = r
		}
	}
	return e, nil
}

// LoadShard stores codes as (part of) the named sharded relation on shard
// i. The caller is responsible for the document-disjointness of the split
// — codes of one document must all land on one shard (use Discover + Pack
// for arbitrary code sets).
func (e *Engine) LoadShard(i int, name string, codes []pbicode.Code) error {
	if i < 0 || i >= len(e.shards) {
		return fmt.Errorf("shard: no shard %d (have %d)", i, len(e.shards))
	}
	r, err := e.shards[i].Load(name, codes)
	if err != nil {
		return err
	}
	sr := e.rels[name]
	if sr == nil {
		sr = &Relation{name: name, per: make([]*containment.Relation, len(e.shards))}
		e.rels[name] = sr
	}
	if sr.per[i] != nil {
		return fmt.Errorf("shard: relation %q already loaded on shard %d", name, i)
	}
	sr.per[i] = r
	return nil
}

// Relation returns the sharded relation by name.
func (e *Engine) Relation(name string) (*Relation, bool) {
	r, ok := e.rels[name]
	return r, ok
}

// RelationNames returns the stored relation names, sorted.
func (e *Engine) RelationNames() []string {
	names := make([]string, 0, len(e.rels))
	for n := range e.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NumShards returns the number of shards.
func (e *Engine) NumShards() int { return len(e.shards) }

// Shard returns shard i's engine — for inspection and tests; joining
// through it directly bypasses the coordinator's bookkeeping.
func (e *Engine) Shard(i int) *containment.Engine { return e.shards[i] }

// Totals returns each shard's cumulative join I/O, accumulated at fan-out
// completion. Index = shard number. Unlike every other method, Totals is
// safe to call from any goroutine at any time (metrics scrapes).
func (e *Engine) Totals() []containment.IOStats {
	e.totMu.Lock()
	defer e.totMu.Unlock()
	return append([]containment.IOStats(nil), e.totals...)
}

// TempPages sums the shards' private overlay pages (read-only engines
// only) — the sharded analogue of containment.Engine.TempPages.
func (e *Engine) TempPages() int {
	var n int
	for _, s := range e.shards {
		n += s.TempPages()
	}
	return n
}

// ReleaseTemp releases every shard's temporary join state (see
// containment.Engine.ReleaseTemp). First error wins; all shards are
// attempted.
func (e *Engine) ReleaseTemp() error {
	var first error
	for i, s := range e.shards {
		if err := s.ReleaseTemp(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
}

// Close closes every shard engine. First error wins; all shards are
// attempted.
func (e *Engine) Close() error {
	var first error
	for i, s := range e.shards {
		if err := s.Close(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
}
