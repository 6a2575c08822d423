// Package core implements the containment join algorithms of the paper over
// PBiTree-encoded relations: the horizontal-partitioning joins (SHCJ, MHCJ,
// MHCJ+Rollup), the vertical-partitioning join (VPJ) with its I/O-optimal
// memory joins, and the adapted region-code baselines (index nested loop,
// MPMGJN, stack-tree, ADB+), plus the framework that selects among them
// (Table 1 of the paper).
//
// Every algorithm consumes relations of PBiTree-coded element records
// through the shared buffer pool, so page I/O counts and the virtual disk
// clock reflect exactly the accesses each algorithm performs. Algorithms
// respect a memory budget of b buffer pages; in-memory working sets are
// sized in record-equivalents of that budget.
package core

import (
	"context"
	"fmt"
	"math/bits"

	"github.com/pbitree/pbitree/internal/buffer"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/trace"
	"github.com/pbitree/pbitree/pbicode"
)

// Context carries the engine configuration shared by one join execution.
type Context struct {
	// Pool is the buffer pool all I/O goes through.
	Pool *buffer.Pool
	// TreeHeight is the height H of the PBiTree the element codes come
	// from; the vertical partitioning join needs it to name partition
	// levels. Required for VPJ, ignored by the other algorithms.
	TreeHeight int
	// AncestorHeights, when non-zero, is the set of PBiTree heights the
	// ancestor set occupies, one bit per height (catalog statistics, as the
	// paper assumes for the rollup target choice; see HeightMask). The
	// selectors read a single-height set and MHCJ's k from it, and
	// MHCJ+Rollup its target. When zero, MHCJ+Rollup discovers it with an
	// extra scan whose I/O is charged normally.
	AncestorHeights uint64
	// VPJRootCut makes VPJ choose cut levels relative to the tree root,
	// as the paper's Algorithm 5 literally states, instead of relative to
	// the data's LCA (this implementation's default). Exists for ablation
	// A8; root-relative cuts degrade on skewed document embeddings.
	VPJRootCut bool
	// Stats accumulates execution counters when non-nil.
	Stats *Stats
	// Trace records per-phase spans when non-nil (EXPLAIN ANALYZE and
	// serving telemetry). Nil disables recording: the algorithms' phase
	// boundaries cost one nil check and allocate nothing.
	Trace *trace.Recorder
	// Ctx, when non-nil, makes the execution cancelable: cancellation is
	// polled at page-I/O granularity through the buffer pool (ArmPool) and
	// every 1024 emitted pairs, and surfaces as ErrCanceled or
	// ErrDeadlineExceeded. Nil means uncancelable, at the cost of one nil
	// check per page request — the same bargain trace.Recorder strikes.
	Ctx context.Context
	// Scratch is the working memory the execution borrows from the engine
	// that owns it (see Scratch). Nil means none is lent: the execution
	// allocates its own on first need.
	Scratch *Scratch

	tmpSeq int
}

// b returns the memory budget in pages: the pool size, at least 3.
func (c *Context) b() int { return max(c.Pool.Size(), 3) }

// memRecs returns the record capacity of n pages of working memory: n pages
// of the paper's fixed-width records. Every fits-in-memory decision of the
// kernels compares record counts against it, never page counts, so the
// memory a join holds is bounded by b however densely the pages on disk are
// packed.
func (c *Context) memRecs(n int) int64 {
	return int64(n) * int64(relation.PerPage(c.Pool.PageSize()))
}

// singleHeightA reports whether the ancestor set is known to occupy exactly
// one height, SHCJ's precondition.
func (c *Context) singleHeightA() bool { return bits.OnesCount64(c.AncestorHeights) == 1 }

// minRecs returns the record count of the smaller input.
func minRecs(a, d *relation.Relation) int64 { return min(a.NumRecords(), d.NumRecords()) }

// tmp returns a fresh temporary relation name.
func (c *Context) tmp(kind string) string {
	c.tmpSeq++
	return fmt.Sprintf("tmp.%s.%d", kind, c.tmpSeq)
}

// stats returns the stats collector, never nil.
func (c *Context) stats() *Stats {
	if c.Stats == nil {
		c.Stats = &Stats{}
	}
	return c.Stats
}

// Stats collects algorithm-level counters for one join execution. Page I/O
// and virtual time are tracked by the storage layer, not here.
type Stats struct {
	// Pairs is the number of result pairs emitted.
	Pairs int64
	// FalseHits counts rollup equijoin matches rejected by the
	// verification filter (Table 2(f) of the paper).
	FalseHits int64
	// Partitions counts partition files written (horizontal heights,
	// hash partitions, vertical groups).
	Partitions int64
	// Replicated counts A-side records written more than once by the
	// vertical partitioning (section 3.3's node replication).
	Replicated int64
	// MaxRecursion is the deepest VPJ / hash-partitioning recursion.
	MaxRecursion int
	// Rescans counts descendant-segment re-reads by MPMGJN.
	Rescans int64
	// IndexProbes counts index probes by INLJN and skip seeks by ADB+.
	IndexProbes int64
}

// Sink consumes join result pairs (a, d), a a proper ancestor of d.
type Sink interface {
	Emit(a, d relation.Rec) error
}

// CountSink counts pairs and discards them. The paper's measurements
// likewise exclude result materialization from algorithm cost.
type CountSink struct{ N int64 }

// Emit implements Sink.
func (s *CountSink) Emit(a, d relation.Rec) error { s.N++; return nil }

// PairSink collects pairs in memory (tests and small queries).
type PairSink struct{ Pairs []Pair }

// Pair is one join result.
type Pair struct{ A, D pbicode.Code }

// Emit implements Sink.
func (s *PairSink) Emit(a, d relation.Rec) error {
	s.Pairs = append(s.Pairs, Pair{A: a.Code, D: d.Code})
	return nil
}

// RelationSink materializes results into a relation, one record per pair:
// Code = descendant code, Aux = ancestor code. This is the format a
// follow-up containment join or a result consumer would read.
type RelationSink struct{ Out *relation.Relation }

// Emit implements Sink.
func (s *RelationSink) Emit(a, d relation.Rec) error {
	return s.Out.Append(relation.Rec{Code: d.Code, Aux: uint64(a.Code)})
}

// countingSink wraps a sink, bumping ctx stats and polling cancellation
// every 1024 pairs so CPU-bound emission loops (in-memory joins, cross
// products) stay responsive even between page requests.
type countingSink struct {
	sink  Sink
	stats *Stats
	ctx   *Context
}

func (s countingSink) Emit(a, d relation.Rec) error {
	s.stats.Pairs++
	if s.stats.Pairs&1023 == 0 {
		if err := s.ctx.Canceled(); err != nil {
			return err
		}
	}
	return s.sink.Emit(a, d)
}

// wrap attaches pair counting to a user sink.
func (c *Context) Wrap(sink Sink) Sink {
	return countingSink{sink: sink, stats: c.stats(), ctx: c}
}

// HeightHistogram scans rel and returns its count of records at each
// PBiTree height. It costs one relation scan.
func HeightHistogram(rel *relation.Relation) ([64]int64, error) {
	var hist [64]int64
	s := rel.BatchScan()
	for s.Next() {
		for _, c := range s.Codes() {
			hist[bits.TrailingZeros64(c)&63]++
		}
	}
	return hist, s.Err()
}

// heightMask returns the set of heights a histogram holds records at, one
// bit per height: the statistic a catalog keeps (Context.AncestorHeights).
func heightMask(hist *[64]int64) uint64 {
	var m uint64
	for h, n := range hist {
		if n > 0 {
			m |= 1 << uint(h)
		}
	}
	return m
}

// quantileHeight returns the smallest height h such that at least frac of
// the histogram's mass lies at or below h.
func quantileHeight(hist *[64]int64, frac float64) int {
	var total int64
	for _, n := range hist {
		total += n
	}
	want := int64(float64(total) * frac)
	var cum int64
	for h, n := range hist {
		if cum += n; cum >= want {
			return h
		}
	}
	return 63
}

// NestedLoop is the naive block nested-loop containment join: it loads
// chunks of A into memory and scans D once per chunk, testing Lemma 1
// directly. It needs no sorting, index, or partitioning, serves as the
// correctness oracle in tests, and is the terminal fallback of the
// recursive algorithms.
func NestedLoop(ctx *Context, a, d *relation.Relation, sink Sink) error {
	sink = ctx.Wrap(sink)
	sp := ctx.Trace.Start("nested-loop")
	defer ctx.Trace.End(sp)
	chunkCap := int(ctx.memRecs(ctx.b() - 2))
	// The chunk is as large as A fills it, at most chunkCap, and stays with
	// the scratch for the next join.
	sc := ctx.scratch()
	chunk := sized(sc.recs, min(chunkCap, int(a.NumRecords())))[:0]
	defer func() { sc.recs = chunk[:0] }()
	join := func() error {
		if len(chunk) == 0 {
			return nil
		}
		s := d.Scan()
		defer s.Close()
		for s.Next() {
			dr := s.Rec()
			for _, ar := range chunk {
				if pbicode.IsAncestor(ar.Code, dr.Code) {
					if err := sink.Emit(ar, dr); err != nil {
						return err
					}
				}
			}
		}
		return s.Err()
	}
	s := a.Scan()
	defer s.Close()
	for s.Next() {
		chunk = append(chunk, s.Rec())
		if len(chunk) == chunkCap {
			if err := join(); err != nil {
				return err
			}
			chunk = chunk[:0]
		}
	}
	if err := s.Err(); err != nil {
		return err
	}
	return join()
}
