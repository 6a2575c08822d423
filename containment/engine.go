package containment

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"github.com/pbitree/pbitree/internal/btree"
	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/core"
	"github.com/pbitree/pbitree/internal/itree"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/internal/trace"
	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// Config configures an Engine.
type Config struct {
	// PageSize in bytes; 0 means 4096.
	PageSize int
	// BufferPages is the buffer pool size b; 0 means 1024 frames.
	// The paper's experiments use 500.
	BufferPages int
	// Path stores pages in a file; empty keeps them in memory. Either
	// way, all I/O is counted and charged to the virtual clock.
	Path string
	// DiskCost models the virtual disk; zero values disable the clock.
	DiskCost DiskCost
	// TreeHeight is the PBiTree height of the codes the engine will see.
	// 0 lets Load infer it from the largest loaded code.
	TreeHeight int
	// ReadOnly opens the page file without write access: stored pages are
	// served from the shared file while writes and fresh allocations
	// (temporary join state, spooled intermediates) live in a private
	// in-memory overlay that never reaches disk. Only Open honors it —
	// NewEngine builds a database and rejects the flag. Because read-only
	// engines share no mutable state, any number may be open over one
	// database file at once; that is the foundation of concurrent serving
	// (see internal/qserv).
	ReadOnly bool
	// PaperLayout makes the engine write the paper's pages — 16-byte
	// records, 255 to a 4 KiB page — instead of packed ones, which hold
	// about five times as many: relations it loads, and the partitions,
	// runs and copies its joins derive from any relation. It exists so that
	// the experiment harness (internal/benchkit) keeps regenerating the
	// paper's tables at the paper's records per page; nothing that serves
	// or stores data sets it. Reading needs no option: every page carries
	// its format, and pages of all formats coexist in one database.
	PaperLayout bool
}

// DiskCost assigns virtual time per page access (see storage.CostModel).
type DiskCost struct {
	Random     time.Duration
	Sequential time.Duration
}

// DefaultDiskCost is the calibrated 2003-era disk the benchmarks charge:
// 10 ms per random page access, 0.2 ms per sequential one.
var DefaultDiskCost = DiskCost{Random: 10 * time.Millisecond, Sequential: 200 * time.Microsecond}

// Engine evaluates containment joins against a paged storage substrate.
//
// An Engine — together with everything reached through it: its buffer
// pool, its Relations, its scans — is single-threaded at its surface: it
// must be owned by exactly one goroutine (worker) at a time, no method is
// safe to call concurrently with another, and a join runs on the calling
// goroutine. To serve queries in parallel, open one read-only engine per
// worker over a shared database file (Config.ReadOnly with Open) and
// multiplex requests across the workers; internal/qserv implements that
// pattern behind an HTTP server. To run one join in parallel, split the
// database into document-disjoint shards (internal/shard).
type Engine struct {
	disk storage.Disk
	pool *buffer.Pool
	cfg  Config
	// scratch is the working memory every join of this engine borrows (see
	// core.Scratch): empty until the first join needs it, bounded by the
	// pool size b, owned by the engine's one goroutine like the pool.
	scratch core.Scratch
	// matched is Chain's match collector, working memory like scratch: made
	// by the first chain, kept across chains up to the b-page bound (see
	// matches).
	matched *matches
	// docs is the per-document catalog once Documents has decoded and
	// folded it (docsRead), or SaveDocs or SaveEpoch recorded it.
	docs     []DocInfo
	docsRead bool
	// heightFloor is Config.TreeHeight as Open was given it: Advance grows
	// the tree height from it to each epoch's, as Open would.
	heightFloor int
	// at is the epoch an engine created by Open is at: the database, its
	// folded catalog and the page files they resolve to. SaveEpoch and
	// Advance move it; zero for engines not created by Open.
	at epochState
}

// Epoch returns the publication sequence number of the opened database: 0
// for a self-contained (version-1) database, the epoch catalog's number
// otherwise.
func (e *Engine) Epoch() int64 { return e.at.epoch }

// DeltaChain returns the delta files layered over the base page file, in
// application order — empty for a self-contained database.
func (e *Engine) DeltaChain() []string { return slices.Clone(e.at.deltas) }

// CatalogChain returns the catalog files the engine's epoch folds: the
// full catalog its chain of diff catalogs ends at, then each diff, its
// own last — one file for a self-contained database.
func (e *Engine) CatalogChain() []string {
	cats := make([]string, len(e.at.catalogs))
	for i, p := range e.at.catalogs {
		cats[i] = catalogPath(p)
	}
	return cats
}

// BasePath returns the page file the opened database resolves to: the
// database path itself for a version-1 catalog, the base its epoch chain
// ends at otherwise. Empty for engines not created by Open.
func (e *Engine) BasePath() string { return e.at.base }

// Relation is a stored element set owned by an Engine.
type Relation struct {
	rel *relation.Relation
	// heights is the set of PBiTree heights the codes occupy, one bit per
	// height (the catalog statistic behind AUTO's single-height test,
	// MHCJ's k and the rollup target; see core.Context.AncestorHeights).
	// Zero for an empty relation, and for one read from a catalog that
	// predates the statistic: joins then pre-scan it.
	heights uint64
	// sorted is true when the relation is stored in document order
	// (after Engine.Sort).
	sorted bool
	// startIdx / intervalIdx are persistent access paths (see index.go).
	startIdx    *btree.Tree
	intervalIdx *itree.Tree
	// shared counts the leading pages LoadOver took over by ID from the
	// relation it superseded (0 for every other relation).
	shared int
	// stats[j] is what the catalog records of the records on pages 0..j
	// besides their number, for the leading pages whose statistics LoadOver
	// knows: it keeps them for the pages it writes and the pages it shares,
	// and decodes the others when a commit needs them (see statsThrough).
	stats []codeStats
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.rel.Name() }

// Len returns the number of elements.
func (r *Relation) Len() int64 { return r.rel.NumRecords() }

// Pages returns the number of occupied disk pages, the paper's ‖R‖.
func (r *Relation) Pages() int64 { return r.rel.NumPages() }

// SharedPages returns how many of those pages LoadOver shares by page ID
// with the relation it superseded rather than having written them; the
// other Pages() - SharedPages() are this relation's own. Zero for relations
// created any other way.
func (r *Relation) SharedPages() int64 { return int64(r.shared) }

// Codes materializes the relation's codes in storage order. The read goes
// through the engine's buffer pool and is charged like any scan; the
// caller is responsible for the result fitting in memory.
func (r *Relation) Codes() ([]pbicode.Code, error) {
	out := make([]pbicode.Code, 0, r.Len())
	s := r.rel.BatchScan()
	defer s.Close()
	for s.Next() {
		for _, c := range s.Codes() {
			out = append(out, pbicode.Code(c))
		}
	}
	return out, s.Err()
}

// Layout scans the relation's page headers and returns the physical
// layout summary: pages per format, records, stored payload bytes, and
// the fixed-width page count the same records would need (the scan-page
// savings denominator). It costs a full scan's page fetches.
func (r *Relation) Layout() (relation.LayoutInfo, error) { return r.rel.Layout() }

// NewEngine creates an engine per cfg.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.ReadOnly {
		return nil, fmt.Errorf("containment: ReadOnly applies to Open, not NewEngine (which creates a database)")
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = storage.DefaultPageSize
	}
	if cfg.BufferPages == 0 {
		cfg.BufferPages = 1024
	}
	cost := storage.CostModel{Random: cfg.DiskCost.Random, Sequential: cfg.DiskCost.Sequential}
	var disk storage.Disk
	if cfg.Path != "" {
		fd, err := storage.OpenFileDisk(cfg.Path, cfg.PageSize, cost)
		if err != nil {
			return nil, err
		}
		disk = fd
	} else {
		disk = storage.NewMemDisk(cfg.PageSize, cost)
	}
	return &Engine{disk: disk, pool: buffer.New(disk, cfg.BufferPages), cfg: cfg}, nil
}

// Close releases the engine's storage and gives its buffer pool's memory
// to engines opened later.
func (e *Engine) Close() error {
	defer e.pool.Release()
	if err := e.pool.FlushAll(); err != nil {
		e.disk.Close() //nolint:errcheck // first error wins
		return err
	}
	return e.disk.Close()
}

// Load stores a code set as a relation.
func (e *Engine) Load(name string, codes []pbicode.Code) (*Relation, error) {
	return e.LoadOver(nil, name, 0, codes)
}

// minTreeHeight returns the smallest PBiTree height whose code space
// contains c: the smallest h >= 1 with 2^h - 1 >= c, which is c's bit
// length.
func minTreeHeight(c pbicode.Code) int {
	return max(1, bits.Len64(uint64(c)))
}

// LoadDoc stores the code set of every element with the given tag.
func (e *Engine) LoadDoc(doc *xmltree.Document, tag string) (*Relation, error) {
	if e.cfg.TreeHeight < doc.Height {
		e.cfg.TreeHeight = doc.Height
	}
	return e.Load(tag, doc.Codes(tag))
}

// JoinOptions configures one join execution.
type JoinOptions struct {
	// Algorithm to run; Auto prices Table 1's candidates and runs the
	// cheapest, Table 1's own pick on a tie (see Engine.Explain).
	Algorithm Algorithm
	// Spec describes the inputs for Auto selection and lets the sorted
	// merge joins skip their on-the-fly sorts.
	Spec Spec
	// Collect materializes result pairs into Result.Pairs. Leave false
	// for large joins; Result.Count is always filled.
	Collect bool
	// Emit, when non-nil, receives every result pair as it is produced.
	Emit func(Pair) error
	// RollupTarget forces MHCJ+Rollup's target height (0 = chosen from the
	// heights the ancestor set occupies; see core.MHCJRollup).
	RollupTarget int
	// Filter, when non-nil, keeps only pairs it accepts: Result.Count,
	// Pairs and Emit see the filtered stream. ParentChild builds the
	// filter for the child axis; arbitrary predicates compose structural
	// conditions beyond pure containment.
	Filter func(Pair) bool
	// VPJRootCut switches VPJ to the paper's literal root-relative cut
	// levels instead of LCA-relative ones (ablation A8 only; degrades on
	// skewed document embeddings).
	VPJRootCut bool
	// TraceID is the originating request's trace ID, threaded through for
	// annotation only: fan-out engines (internal/shard) stamp it into
	// per-shard span details and serving exemplars so distributed traces
	// correlate by the request's ID instead of an internal one. It does
	// not affect execution.
	TraceID string
}

// ParentChild returns a join filter that keeps only pairs where the
// ancestor element is the descendant's direct parent in doc — turning the
// containment (descendant-axis) join into the parent-child (child-axis)
// structural join of Al-Khalifa et al. The containment join computes a
// superset; the filter checks parenthood on the document in O(1) per pair.
func ParentChild(doc *xmltree.Document) func(Pair) bool {
	return func(p Pair) bool {
		d := doc.ByCode(p.D)
		return d != nil && d.Parent != nil && d.Parent.Code == p.A
	}
}

// IOStats reports the physical cost of one join.
type IOStats struct {
	// Reads and Writes are page I/O counts (sequential subsets included).
	Reads, Writes int64
	SeqReads      int64
	SeqWrites     int64
	// VirtualTime is the disk clock's charge for these accesses.
	VirtualTime time.Duration
	// WallTime is the measured host time.
	WallTime time.Duration
	// PoolHits / PoolMisses / PoolEvictions are buffer-pool counters for
	// the same window: page requests served from memory, requests that went
	// to disk, and frames evicted to make room.
	PoolHits      int64
	PoolMisses    int64
	PoolEvictions int64
}

// Total returns total page I/Os.
func (s IOStats) Total() int64 { return s.Reads + s.Writes }

// Add accumulates o into s — the one merge helper every aggregation path
// uses (the sharded engine's per-shard result merge, qserv's per-request
// totals) instead of hand-written field sums. Every field adds, including
// WallTime; callers merging executions that overlapped in time (parallel
// shards) should overwrite WallTime with the measured envelope afterwards.
func (s *IOStats) Add(o IOStats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.SeqReads += o.SeqReads
	s.SeqWrites += o.SeqWrites
	s.VirtualTime += o.VirtualTime
	s.WallTime += o.WallTime
	s.PoolHits += o.PoolHits
	s.PoolMisses += o.PoolMisses
	s.PoolEvictions += o.PoolEvictions
}

// Result reports one join execution.
type Result struct {
	// Algorithm that actually ran (after Auto resolution).
	Algorithm string
	// Count of result pairs.
	Count int64
	// Pairs, when JoinOptions.Collect was set.
	Pairs []Pair
	// FalseHits dropped by the rollup verification filter.
	FalseHits int64
	// Partitions written by partitioning algorithms.
	Partitions int64
	// Replicated ancestor records written by VPJ.
	Replicated int64
	// IndexProbes performed by INLJN / skip seeks by ADB+.
	IndexProbes int64
	// PredictedIO is the section 3.4 cost model's page I/O estimate for
	// the algorithm that ran (compare against IO.Total()).
	PredictedIO int64
	// IO is the physical cost.
	IO IOStats
}

// coreAlg maps the public algorithm enum onto the internal one.
func coreAlg(a Algorithm) core.Algorithm {
	switch a {
	case Auto:
		return core.AlgAuto
	case NestedLoop:
		return core.AlgNestedLoop
	case SHCJ:
		return core.AlgSHCJ
	case MHCJ:
		return core.AlgMHCJ
	case MHCJRollup:
		return core.AlgMHCJRollup
	case VPJ:
		return core.AlgVPJ
	case INLJN:
		return core.AlgINLJN
	case StackTree:
		return core.AlgStackTree
	case StackTreeAnc:
		return core.AlgStackTreeAnc
	case MPMGJN:
		return core.AlgMPMGJN
	case ADBPlus:
		return core.AlgADBPlus
	default:
		return core.Algorithm(-1)
	}
}

// joinState is one join's fixed working state in one allocation: the
// execution context, its counters, the sink that applies the options, and
// the copy of the options the sink reads. The join's Result is not part of
// it: an Analysis outlives its join (the serving trace ring keeps them),
// and the context points at the engine's pool and working memory.
type joinState struct {
	stats core.Stats
	ctx   core.Context
	sink  optSink
	opts  JoinOptions
}

// descSink is the sink of a Chain step with no filter: it records each
// matched descendant into m, taking the stack merge's ancestor chains
// whole (core.ChainSink), so the step makes one call per descendant there
// instead of one per pair. A count-only join, whose Result.Count is the
// execution's pair count, runs with core.Discard instead.
type descSink struct{ m *matches }

func (s descSink) Emit(_, d relation.Rec) error {
	s.m.add(d.Code)
	return nil
}

func (s descSink) EmitChain(_ []relation.Rec, d relation.Rec) error {
	s.m.add(d.Code)
	return nil
}

// optSink adapts JoinOptions to a core.Sink.
type optSink struct {
	res  *Result
	opts *JoinOptions
	kept int64
}

func (s *optSink) Emit(a, d relation.Rec) error {
	p := Pair{A: a.Code, D: d.Code}
	if s.opts.Filter != nil && !s.opts.Filter(p) {
		return nil
	}
	s.kept++
	if s.opts.Collect {
		s.res.Pairs = append(s.res.Pairs, p)
	}
	if s.opts.Emit != nil {
		return s.opts.Emit(p)
	}
	return nil
}

// Join evaluates a ◁ d.
func (e *Engine) Join(a, d *Relation, opts JoinOptions) (*Result, error) {
	res, _, err := e.join(context.Background(), a, d, opts, false, nil)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// JoinContext is Join with cooperative cancellation: the execution polls
// ctx at page-I/O granularity (and every 1024 emitted pairs) and aborts
// with an error matching ErrCanceled or ErrDeadlineExceeded — classify
// with Classify. Unlike Join, a non-nil partial Result accompanies the
// error: counters and I/O stats reflect the work done up to the abort.
// Temporary join state is released before returning on every error path.
func (e *Engine) JoinContext(ctx context.Context, a, d *Relation, opts JoinOptions) (*Result, error) {
	res, _, err := e.join(ctx, a, d, opts, false, nil)
	return res, err
}

// snapCounters builds the trace snapshot closure over the engine's physical
// counters plus the per-join pair count.
func (e *Engine) snapCounters(stats *core.Stats) func() trace.Counters {
	return func() trace.Counters {
		ds := e.disk.Stats()
		ps := e.pool.Stats()
		return trace.Counters{
			Reads:         ds.Reads,
			Writes:        ds.Writes,
			SeqReads:      ds.SeqReads,
			SeqWrites:     ds.SeqWrites,
			VirtualIO:     ds.VirtualIO,
			PoolHits:      ps.Hits,
			PoolMisses:    ps.Misses,
			PoolEvictions: ps.Evictions,
			Pairs:         stats.Pairs,
		}
	}
}

// join is the shared body of Join and Analyze. When traced is set it runs
// the execution under a trace.Recorder whose root span brackets exactly the
// window measured into Result.IO, and returns the finished span tree.
//
// goCtx carries the caller's cancellation; context.Background() means
// uncancelable. On error the returned Result and Span are still non-nil,
// reflecting the partial execution (counters, I/O, a root span annotated
// "canceled"/"error"), and the engine's temporary join state is released.
//
// into, when non-nil, collects the distinct matched descendants of a join
// with no Filter, Collect or Emit (a Chain step's).
func (e *Engine) join(goCtx context.Context, a, d *Relation, opts JoinOptions, traced bool, into *matches) (*Result, *trace.Span, error) {
	st := &joinState{opts: opts}
	stats, ctx, sink := &st.stats, &st.ctx, &st.sink
	*ctx = core.Context{
		Pool:            e.pool,
		TreeHeight:      e.cfg.TreeHeight,
		AncestorHeights: a.heights,
		VPJRootCut:      opts.VPJRootCut,
		Stats:           stats,
		Scratch:         &e.scratch,
	}
	if goCtx != nil && goCtx != context.Background() {
		ctx.Ctx = goCtx
	}
	spec := effectiveSpec(&opts, a, d)
	res := &Result{}
	*sink = optSink{res: res, opts: &st.opts}
	// A join whose pairs no option reads takes the stack merge's chains
	// whole: a Chain step's descendants go to into, a count-only join's
	// nowhere.
	var out core.Sink = sink
	if opts.Filter == nil && !opts.Collect && opts.Emit == nil {
		out = core.Discard
		if into != nil {
			out = descSink{m: into}
		}
	}

	// Resolve Auto up front so the cost prediction names the algorithm
	// that actually runs.
	alg := coreAlg(opts.Algorithm)
	if alg == core.AlgAuto {
		alg = core.Choose(ctx, spec, a.rel, d.rel).Chosen
	}
	res.PredictedIO = core.EstimateIO(alg, core.Gather(ctx, spec, a.rel, d.rel))

	// The recorder's root span opens here so its counter window coincides
	// with the before/after bracketing below: the root Total equals
	// Result.IO, and self-attributed phase costs sum to it exactly.
	if traced {
		ctx.Trace = trace.New("join", e.snapCounters(stats))
	}
	poolBefore := e.pool.Stats()
	before := e.disk.Stats()
	start := time.Now()
	// Arm the buffer pool directly (not only inside core.Run) so the
	// forced-rollup and persistent-index dispatch paths below are equally
	// cancelable.
	prev := ctx.ArmPool()
	var err error
	switch {
	case opts.Algorithm == MHCJRollup && opts.RollupTarget > 0:
		err = core.MHCJRollup(ctx, a.rel, d.rel, opts.RollupTarget, out)
	default:
		// Persistent access paths serve the index algorithms without the
		// on-the-fly build cost; otherwise the framework runs normally
		// (the merge joins already skip sorting via spec.Sorted*).
		var handled bool
		handled, err = e.runIndexed(ctx, alg, a, d, out)
		if !handled && err == nil {
			alg, err = core.Run(ctx, alg, spec, a.rel, d.rel, out)
		}
	}
	ctx.DisarmPool(prev)
	wall := time.Since(start)
	io := e.disk.Stats().Sub(before)
	poolIO := e.pool.Stats().Sub(poolBefore)
	root := ctx.Trace.Finish()

	res.Algorithm = alg.String()
	res.Count = stats.Pairs
	if opts.Filter != nil {
		res.Count = sink.kept
	}
	res.FalseHits = stats.FalseHits
	res.Partitions = stats.Partitions
	res.Replicated = stats.Replicated
	res.IndexProbes = stats.IndexProbes
	res.IO = IOStats{
		Reads:         io.Reads,
		Writes:        io.Writes,
		SeqReads:      io.SeqReads,
		SeqWrites:     io.SeqWrites,
		VirtualTime:   io.VirtualIO,
		WallTime:      wall,
		PoolHits:      poolIO.Hits,
		PoolMisses:    poolIO.Misses,
		PoolEvictions: poolIO.Evictions,
	}
	if err != nil {
		if root != nil {
			root.Detail = failureDetail(err)
		}
		// Abandon this join's temporary state. Well-behaved algorithms
		// free their temps on the way out; on read-only engines this also
		// reclaims the overlay, so a canceled request cannot leak private
		// memory into a long-lived serving engine. Best-effort: the join
		// error is the one worth reporting.
		e.ReleaseTemp() //nolint:errcheck // best-effort cleanup on error
		return res, root, err
	}
	return res, root, nil
}

// JoinDoc loads the two tag sets of doc and joins them: the containment
// query //ancTag//descTag.
func (e *Engine) JoinDoc(doc *xmltree.Document, ancTag, descTag string, opts JoinOptions) (*Result, error) {
	a, err := e.LoadDoc(doc, ancTag)
	if err != nil {
		return nil, err
	}
	d, err := e.LoadDoc(doc, descTag)
	if err != nil {
		return nil, err
	}
	return e.Join(a, d, opts)
}

// Free drops a relation's pages, reclaiming pool frames.
func (e *Engine) Free(r *Relation) error { return r.rel.Free() }

// ResetIOStats zeroes the engine's disk and buffer-pool counters
// (benchmark harness use).
func (e *Engine) ResetIOStats() {
	e.disk.ResetStats()
	e.pool.ResetStats()
}

// IOStats returns the disk and buffer-pool counters accumulated since the
// last reset (benchmark harness use; Join results carry per-join deltas
// already).
func (e *Engine) IOStats() IOStats {
	s, p := e.disk.Stats(), e.pool.Stats()
	return IOStats{
		Reads: s.Reads, Writes: s.Writes,
		SeqReads: s.SeqReads, SeqWrites: s.SeqWrites,
		VirtualTime: s.VirtualIO,
		PoolHits:    p.Hits, PoolMisses: p.Misses, PoolEvictions: p.Evictions,
	}
}

// DropCache flushes and evicts every resident page so the next join starts
// with a cold buffer pool, the setting the paper's measurements assume.
func (e *Engine) DropCache() error {
	return e.pool.EvictAll()
}

// PoolSize returns the engine's buffer pool size in frames.
func (e *Engine) PoolSize() int { return e.pool.Size() }

// PageSize returns the engine's page size in bytes.
func (e *Engine) PageSize() int { return e.cfg.PageSize }

// TreeHeight returns the engine's current PBiTree height.
func (e *Engine) TreeHeight() int { return e.cfg.TreeHeight }
