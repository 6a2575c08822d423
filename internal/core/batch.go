package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/pbicode"
)

// This file is the batched (vectorized) execution core: slab variants of
// the equijoin engine, the partitioning passes, and the memory joins.
// Each variant consumes relation.BatchScanner column slabs — a []uint64 of
// codes and a []uint64 of aux words per page — and derives join keys with
// the branch-free pbicode batch kernels, so the per-record work in the hot
// loops is a few ALU ops and one open-addressing probe instead of a
// Scanner.Next call, a map lookup, and a closure dispatch.
//
// Every batch variant is behaviorally identical to its record-at-a-time
// counterpart: same pairs (order may differ within a page only where the
// serial path also gives no order guarantee), same partition contents,
// same trace spans, same page access pattern — the phase-attribution
// tests that lock per-phase sums to IOStats hold on both paths. The
// serial paths remain intact behind Context.NoBatch (the -batch=off
// escape hatch) and serve as the baseline in the randomized equivalence
// tests.

// flatSlot is one open-addressing slot: the join key and the 1-based head
// of its chain in the arena (0 = empty slot).
type flatSlot struct {
	key  uint64
	head int32
}

// flatTable is the batch path's hash table: open addressing with linear
// probing over power-of-two slots, chaining duplicate keys through a flat
// arena exactly like the map-based hashTable. A probe is a splitmix64 mix
// plus a short linear scan of 16-byte slots — several times cheaper than
// a Go map lookup, which is what the probe loop of every equijoin spends
// its time on.
type flatTable struct {
	mask  uint64
	slots []flatSlot
	recs  []relation.Rec
	next  []int32 // 1-based index of the previous entry with the same key
	used  int     // occupied slots (distinct keys)
}

// init empties the table and sizes it for capacity records, reusing the
// arrays of earlier builds when they are large enough: only the slots this
// build can touch are cleared, so a small build on a table that once held
// a large one pays for its own size. The table lives in the engine's
// Scratch; equiJoin caps build sides at memRecs(b-2), which bounds it.
func (t *flatTable) init(capacity int64) {
	if capacity < 0 || capacity > 1<<30 {
		capacity = 0
	}
	size := 16
	for int64(size) < capacity*2 {
		size <<= 1
	}
	if cap(t.slots) < size {
		t.slots = make([]flatSlot, size)
	} else {
		t.slots = t.slots[:size]
		clear(t.slots)
	}
	t.mask = uint64(size - 1)
	if cap(t.recs) < int(capacity) {
		t.recs = make([]relation.Rec, 0, capacity)
		t.next = make([]int32, 0, capacity)
	}
	t.recs, t.next, t.used = t.recs[:0], t.next[:0], 0
}

// grow doubles the slot array and rehashes. Chains live in the arena and
// are untouched — only the heads move.
func (t *flatTable) grow() {
	old := t.slots
	size := len(old) * 2
	t.slots = make([]flatSlot, size)
	t.mask = uint64(size - 1)
	for _, s := range old {
		if s.head == 0 {
			continue
		}
		i := splitmix64(s.key) & t.mask
		for t.slots[i].head != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
}

// add stores r under key.
func (t *flatTable) add(key uint64, r relation.Rec) {
	if (t.used+1)*2 > len(t.slots) {
		t.grow()
	}
	t.recs = append(t.recs, r)
	t.next = append(t.next, 0)
	idx := int32(len(t.recs))
	i := splitmix64(key) & t.mask
	for {
		s := &t.slots[i]
		if s.head == 0 {
			s.key, s.head = key, idx
			t.used++
			return
		}
		if s.key == key {
			t.next[idx-1] = s.head
			s.head = idx
			return
		}
		i = (i + 1) & t.mask
	}
}

// probe returns the 1-based head of key's chain, 0 when absent. Walk the
// chain via next: for i := probe(k); i != 0; i = next[i-1] { recs[i-1] }.
func (t *flatTable) probe(key uint64) int32 {
	i := splitmix64(key) & t.mask
	for {
		s := t.slots[i]
		if s.head == 0 {
			return 0
		}
		if s.key == key {
			return s.head
		}
		i = (i + 1) & t.mask
	}
}

func (t *flatTable) len() int { return len(t.recs) }

// reset empties the table keeping its capacity (block-join chunk reuse).
func (t *flatTable) reset() {
	clear(t.slots)
	t.recs = t.recs[:0]
	t.next = t.next[:0]
	t.used = 0
}

// fMask/fBit are the constants of the branch-free F derivation at height
// h: F(c,h) = c&fMask | fBit. lowMask tests eligibility — a descendant
// participates iff its height is below h, i.e. c&lowMask != 0.
func fMask(h int) (mask, bit, lowMask uint64) {
	return ^uint64(0) << (uint(h) + 1), uint64(1) << uint(h), uint64(1)<<uint(h) - 1
}

// hashJoinBuildABatch is the slab variant of hashJoinBuildA: build the
// flat table over (prepped) A, then stream D page slabs, deriving each
// probe key branch-free.
func hashJoinBuildABatch(ctx *Context, a, d *relation.Relation, h int, prep aPrep, sink Sink) error {
	table := &ctx.scratch().table
	table.init(a.NumRecords())
	as := a.BatchScan()
	for as.Next() {
		codes, aux := as.Codes(), as.Aux()
		if prep == nil {
			for i, c := range codes {
				table.add(c, relation.Rec{Code: pbicode.Code(c), Aux: aux[i]})
			}
		} else {
			for i, c := range codes {
				r := prep(relation.Rec{Code: pbicode.Code(c), Aux: aux[i]})
				table.add(uint64(r.Code), r)
			}
		}
	}
	if err := as.Err(); err != nil {
		return err
	}
	mask, bit, low := fMask(h)
	ds := d.BatchScan()
	for ds.Next() {
		codes, aux := ds.Codes(), ds.Aux()
		for i, c := range codes {
			if c&low == 0 {
				continue // at or above height h: cannot have an ancestor there
			}
			idx := table.probe(c&mask | bit)
			if idx == 0 {
				continue
			}
			dr := relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}
			for ; idx != 0; idx = table.next[idx-1] {
				if err := sink.Emit(table.recs[idx-1], dr); err != nil {
					return err
				}
			}
		}
	}
	return ds.Err()
}

// hashJoinBuildDBatch is the slab variant of hashJoinBuildD: the table is
// keyed by FBatch-derived codes of eligible D records, probed with
// (prepped) A codes.
func hashJoinBuildDBatch(ctx *Context, a, d *relation.Relation, h int, prep aPrep, sink Sink) error {
	sc := ctx.scratch()
	table := &sc.table
	table.init(d.NumRecords())
	_, _, low := fMask(h)
	ds := d.BatchScan()
	for ds.Next() {
		codes, aux := ds.Codes(), ds.Aux()
		sc.fkeys = sized(sc.fkeys, len(codes))
		fkeys := sc.fkeys
		pbicode.FBatch(fkeys, codes, h)
		for i, c := range codes {
			if c&low != 0 {
				table.add(fkeys[i], relation.Rec{Code: pbicode.Code(c), Aux: aux[i]})
			}
		}
	}
	if err := ds.Err(); err != nil {
		return err
	}
	as := a.BatchScan()
	for as.Next() {
		codes, aux := as.Codes(), as.Aux()
		for i, c := range codes {
			ar := relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}
			if prep != nil {
				ar = prep(ar)
			}
			for idx := table.probe(uint64(ar.Code)); idx != 0; idx = table.next[idx-1] {
				if err := sink.Emit(ar, table.recs[idx-1]); err != nil {
					return err
				}
			}
		}
	}
	return as.Err()
}

// blockEquiJoinBatch is the slab variant of blockEquiJoin: flat-table
// chunks of A, D rescanned per chunk through one resettable batch scanner
// (no per-block scanner or buffer churn).
func blockEquiJoinBatch(ctx *Context, a, d *relation.Relation, h int, prep aPrep, sink Sink) error {
	chunkCap := ctx.memRecs(ctx.b() - 2)
	if chunkCap < 1 {
		chunkCap = 1
	}
	table := &ctx.scratch().table
	table.init(int64(chunkCap))
	mask, bit, low := fMask(h)
	var ds relation.BatchScanner
	join := func() error {
		if table.len() == 0 {
			return nil
		}
		ds.Reset(d)
		for ds.Next() {
			codes, aux := ds.Codes(), ds.Aux()
			for i, c := range codes {
				if c&low == 0 {
					continue
				}
				idx := table.probe(c&mask | bit)
				if idx == 0 {
					continue
				}
				dr := relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}
				for ; idx != 0; idx = table.next[idx-1] {
					if err := sink.Emit(table.recs[idx-1], dr); err != nil {
						return err
					}
				}
			}
		}
		return ds.Err()
	}
	as := a.BatchScan()
	for as.Next() {
		codes, aux := as.Codes(), as.Aux()
		for i, c := range codes {
			r := relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}
			if prep != nil {
				r = prep(r)
			}
			table.add(uint64(r.Code), r)
			if table.len() == chunkCap {
				if err := join(); err != nil {
					return err
				}
				table.reset()
			}
		}
	}
	if err := as.Err(); err != nil {
		return err
	}
	return join()
}

// hashPartitionBatchA is the slab variant of graceJoin's ancestor-side
// partitioning pass: every record is kept, keyed by its (prepped) code.
func hashPartitionBatchA(ctx *Context, rel *relation.Relation, k int, kind string, prep aPrep, salt uint64) ([]*relation.Relation, error) {
	return hashPartitionBatch(ctx, rel, k, kind, salt, func(codes, aux []uint64, emit func(relation.Rec, uint64) error) error {
		if prep == nil {
			for i, c := range codes {
				if err := emit(relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}, c); err != nil {
					return err
				}
			}
			return nil
		}
		for i, c := range codes {
			r := prep(relation.Rec{Code: pbicode.Code(c), Aux: aux[i]})
			if err := emit(r, uint64(r.Code)); err != nil {
				return err
			}
		}
		return nil
	})
}

// hashPartitionBatchD is the slab variant of graceJoin's descendant-side
// partitioning pass: eligible records (height below h) keyed by their
// FBatch-derived join code.
func hashPartitionBatchD(ctx *Context, rel *relation.Relation, k int, kind string, h int, salt uint64) ([]*relation.Relation, error) {
	_, _, low := fMask(h)
	sc := ctx.scratch()
	return hashPartitionBatch(ctx, rel, k, kind, salt, func(codes, aux []uint64, emit func(relation.Rec, uint64) error) error {
		sc.fkeys = sized(sc.fkeys, len(codes))
		fkeys := sc.fkeys
		pbicode.FBatch(fkeys, codes, h)
		for i, c := range codes {
			if c&low == 0 {
				continue
			}
			if err := emit(relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}, fkeys[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// hashPartitionBatch carries the shared partition-file plumbing of the two
// slab partitioners; page is called once per page slab with an emit that
// routes one kept record by its hash key. Partitions inherit the input's
// page format.
func hashPartitionBatch(ctx *Context, rel *relation.Relation, k int, kind string, salt uint64, page func(codes, aux []uint64, emit func(relation.Rec, uint64) error) error) ([]*relation.Relation, error) {
	parts := make([]*relation.Relation, k)
	apps := make([]*relation.Appender, k)
	for i := range parts {
		parts[i] = relation.New(ctx.Pool, ctx.tmp(kind))
		parts[i].SetCompress(rel.Compressed())
	}
	closeApps := func() error {
		var first error
		for _, ap := range apps {
			if ap != nil {
				if err := ap.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
		return first
	}
	fail := func(err error) ([]*relation.Relation, error) {
		closeApps() //nolint:errcheck // first error wins
		freeAll(parts)
		return nil, err
	}
	emit := func(r relation.Rec, kv uint64) error {
		i := int(splitmix64(kv^salt) % uint64(k))
		if apps[i] == nil {
			apps[i] = parts[i].NewAppender()
			ctx.stats().Partitions++
		}
		return apps[i].Append(r)
	}
	s := rel.BatchScan()
	for s.Next() {
		if err := page(s.Codes(), s.Aux(), emit); err != nil {
			return fail(err)
		}
	}
	if err := s.Err(); err != nil {
		return fail(err)
	}
	if err := closeApps(); err != nil {
		freeAll(parts)
		return nil, err
	}
	return parts, nil
}

// partitionByHeightBatch is the slab variant of partitionByHeight: heights
// come from a TrailingZeros per slab element instead of a method call per
// record; the wave structure (at most b-2 new heights per pass) and the
// resulting partitions are identical.
func partitionByHeightBatch(ctx *Context, rel *relation.Relation) (map[int]*relation.Relation, []int, error) {
	parts := make(map[int]*relation.Relation)
	done := make(map[int]bool)
	freeParts := func() {
		for _, p := range parts {
			p.Free() //nolint:errcheck // cleanup after earlier error
		}
	}
	var s relation.BatchScanner
	for {
		apps := make(map[int]*relation.Appender)
		closeApps := func() error {
			var first error
			for _, ap := range apps {
				if err := ap.Close(); err != nil && first == nil {
					first = err
				}
			}
			return first
		}
		deferred := false
		s.Reset(rel)
		for s.Next() {
			codes, aux := s.Codes(), s.Aux()
			for i, c := range codes {
				h := bits.TrailingZeros64(c)
				if done[h] {
					continue
				}
				ap, ok := apps[h]
				if !ok {
					if len(apps)+2 > ctx.b() {
						deferred = true // another wave picks this height up
						continue
					}
					parts[h] = relation.New(ctx.Pool, ctx.tmp(fmt.Sprintf("mhcj.h%d", h)))
					parts[h].SetCompress(rel.Compressed())
					ap = parts[h].NewAppender()
					apps[h] = ap
					ctx.stats().Partitions++
				}
				if err := ap.Append(relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}); err != nil {
					closeApps() //nolint:errcheck // first error wins
					freeParts()
					return nil, nil, err
				}
			}
		}
		if err := s.Err(); err != nil {
			closeApps() //nolint:errcheck // first error wins
			freeParts()
			return nil, nil, err
		}
		if err := closeApps(); err != nil {
			freeParts()
			return nil, nil, err
		}
		for h := range apps {
			done[h] = true
		}
		if !deferred {
			break
		}
	}
	heights := make([]int, 0, len(parts))
	for h := range parts {
		heights = append(heights, h)
	}
	sort.Ints(heights)
	return parts, heights, nil
}

// heightHistogramBatch is the slab variant of HeightHistogram.
func heightHistogramBatch(rel *relation.Relation) (map[int]int64, error) {
	hist := make(map[int]int64)
	s := rel.BatchScan()
	for s.Next() {
		for _, c := range s.Codes() {
			hist[bits.TrailingZeros64(c)]++
		}
	}
	return hist, s.Err()
}

// multiHeightProbeJoinBatch is the slab variant of multiHeightProbeJoin:
// the memory-resident multi-height ancestor table is probed with the
// branch-free F derivation for each distinct ancestor height, per D page
// slab.
func multiHeightProbeJoinBatch(ctx *Context, a, d *relation.Relation, sink Sink) error {
	table := &ctx.scratch().table
	table.init(a.NumRecords())
	heightSet := make(map[int]struct{})
	as := a.BatchScan()
	for as.Next() {
		codes, aux := as.Codes(), as.Aux()
		for i, c := range codes {
			table.add(c, relation.Rec{Code: pbicode.Code(c), Aux: aux[i]})
			heightSet[bits.TrailingZeros64(c)] = struct{}{}
		}
	}
	if err := as.Err(); err != nil {
		return err
	}
	masks := make([][3]uint64, 0, len(heightSet))
	for h := range heightSet {
		m, b, low := fMask(h)
		masks = append(masks, [3]uint64{m, b, low})
	}
	ds := d.BatchScan()
	for ds.Next() {
		codes, aux := ds.Codes(), ds.Aux()
		for i, c := range codes {
			for _, mb := range masks {
				if c&mb[2] == 0 {
					continue // descendant at or above this ancestor height
				}
				idx := table.probe(c&mb[0] | mb[1])
				if idx == 0 {
					continue
				}
				dr := relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}
				for ; idx != 0; idx = table.next[idx-1] {
					if err := sink.Emit(table.recs[idx-1], dr); err != nil {
						return err
					}
				}
			}
		}
	}
	return ds.Err()
}

// memProbeJoinBatch is the slab variant of memProbeJoin: D is loaded and
// sorted by region Start as before; A streams as page slabs whose regions
// are derived in one RegionBatch pass, each probing the sorted starts.
func memProbeJoinBatch(ctx *Context, a, d *relation.Relation, sink Sink) error {
	sc := ctx.scratch()
	recs := sc.recs[:0]
	defer func() { sc.recs = recs[:0] }()
	ds := d.BatchScan()
	for ds.Next() {
		aux := ds.Aux()
		for i, c := range ds.Codes() {
			recs = append(recs, relation.Rec{Code: pbicode.Code(c), Aux: aux[i]})
		}
	}
	if err := ds.Err(); err != nil {
		return err
	}
	slices.SortFunc(recs, func(x, y relation.Rec) int { return cmp.Compare(x.Code.Start(), y.Code.Start()) })
	sc.dStart = sized(sc.dStart, len(recs))
	starts := sc.dStart
	for i, r := range recs {
		starts[i] = r.Code.Start()
	}
	as := a.BatchScan()
	for as.Next() {
		codes, aux := as.Codes(), as.Aux()
		sc.starts, sc.ends = sized(sc.starts, len(codes)), sized(sc.ends, len(codes))
		aStarts, aEnds := sc.starts, sc.ends
		pbicode.RegionBatch(aStarts, aEnds, codes)
		for i, c := range codes {
			ha := bits.TrailingZeros64(c)
			lo, _ := slices.BinarySearch(starts, aStarts[i])
			if lo == len(starts) || starts[lo] > aEnds[i] {
				continue
			}
			ar := relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}
			for j := lo; j < len(starts) && starts[j] <= aEnds[i]; j++ {
				if bits.TrailingZeros64(uint64(recs[j].Code)) < ha {
					if err := sink.Emit(ar, recs[j]); err != nil {
						return err
					}
				}
			}
		}
	}
	return as.Err()
}
