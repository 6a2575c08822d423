package core

import (
	"fmt"
	"math/bits"

	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/pbicode"
)

// This file implements the equijoin engine behind the horizontal
// partitioning algorithms: A ⋈ D on A.Code = F(D.Code, h), evaluated as an
// in-memory hash join when a side fits the memory budget and as a Grace
// hash join (partition both sides by a shared hash of the join key, then
// join partition pairs) otherwise — the "highly optimized equijoin
// evaluation techniques" the paper's section 3.2 leans on, with the
// textbook 3(‖A‖+‖D‖) I/O when one partitioning pass suffices.
//
// Every kernel consumes relation.BatchScanner column slabs — a []uint64 of
// codes and a []uint64 of aux words per page — and derives join keys with
// branch-free mask arithmetic, so the per-record work in the hot loops is
// a few ALU ops and one open-addressing probe.
//
// The ancestor side may be transformed on the fly by a prep function; the
// rollup technique uses this to roll ancestors up to the target height
// during the very scan that feeds the join, so the "simple strategy" of
// the paper costs no extra materialization pass.

// splitmix64 is the 64-bit finalizer used to hash join keys; a salt
// decorrelates recursive partitioning rounds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// aPrep transforms ancestor-side records as they are scanned (identity
// when nil). Rollup sets Code to the rolled-up code and Aux to the
// original code.
type aPrep func(relation.Rec) relation.Rec

// flatSlot is one open-addressing slot: the join key and the 1-based head
// of its chain in the arena (0 = empty slot).
type flatSlot struct {
	key  uint64
	head int32
}

// flatTable is the equijoin hash table: open addressing with linear
// probing over power-of-two slots, chaining duplicate keys through a flat
// arena (one slot per distinct key plus two flat slices, instead of a
// []Rec per key). A probe is a splitmix64 mix plus a short linear scan of
// 16-byte slots, which is what the probe loop of every equijoin spends its
// time on.
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

// fKey holds the constants of the branch-free F derivation at one ancestor
// height h: F(c,h) = c&mask | bit. low tests eligibility — a descendant
// participates iff its height is below h, i.e. c&low != 0.
type fKey struct{ mask, bit, low uint64 }

func fKeyAt(h int) fKey {
	return fKey{mask: ^uint64(0) << (uint(h) + 1), bit: uint64(1) << uint(h), low: uint64(1)<<uint(h) - 1}
}

// appendKeys appends the F constants of every height in the mask heights,
// ascending.
func appendKeys(keys []fKey, heights uint64) []fKey {
	for m := heights; m != 0; m &= m - 1 {
		keys = append(keys, fKeyAt(bits.TrailingZeros64(m)))
	}
	return keys
}

// probeD streams d through a table keyed by ancestor code: each descendant
// probes with F(d, h) for every ancestor height in keys, in the order
// given, and meets the whole chain of each hit. It is the D side of the
// build-A hash join, of every block of the block join, and of the
// multi-height probe join.
func probeD(table *flatTable, ds *relation.BatchScanner, keys []fKey, sink Sink) error {
	for ds.Next() {
		codes, aux := ds.Codes(), ds.Aux()
		for i, c := range codes {
			for _, k := range keys {
				if c&k.low == 0 {
					continue // at or above this height: cannot have an ancestor there
				}
				idx := table.probe(c&k.mask | k.bit)
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

// equiJoin evaluates A ⋈_{prep(A).Code = F(D.Code, h)} D into sink. All
// useful matches have ancestor-side height exactly h (callers arrange
// this: SHCJ's A is single-height; rollup preps codes to height h).
// Emission passes the prepped ancestor record through, so rollup callers
// can post-filter via Aux.
func equiJoin(ctx *Context, a, d *relation.Relation, h int, prep aPrep, sink Sink, depth int) error {
	memCap := ctx.memRecs(ctx.b() - 2)
	switch {
	case a.NumRecords() <= memCap:
		return hashJoinBuildA(ctx, a, d, h, 0, prep, sink)
	case d.NumRecords() <= memCap:
		return hashJoinBuildD(ctx, a, d, h, prep, sink)
	case depth >= 8:
		// Pathological skew (e.g. one giant duplicate key): stop
		// partitioning and block-join.
		return blockEquiJoin(ctx, a, d, h, prep, sink)
	default:
		return graceJoin(ctx, a, d, h, prep, sink, depth)
	}
}

// hashJoinBuildA builds the table on the (prepped) ancestor side and
// streams D through it, probing F(d, h) and then F(d, t) for every height t
// in the mask tail, ascending: records prep leaves above h (rollup's tail)
// are keyed by their own codes and meet exactly their descendants.
func hashJoinBuildA(ctx *Context, a, d *relation.Relation, h int, tail uint64, prep aPrep, sink Sink) error {
	sp := ctx.Trace.StartDetail("hash-join", "build=A")
	defer ctx.Trace.End(sp)
	return joinBuildA(ctx, a, d, 1<<uint(h)|tail, prep, sink)
}

// joinBuildA hashes a, prepped, by code and streams d through the table,
// probing F(d, t) for every height t in heights, ascending. With heights 0
// it probes every key height a holds: the multi-height probe join, the
// ancestor-enumeration join only PBiTree codes make possible (each probe
// key is computed from the descendant's code alone).
func joinBuildA(ctx *Context, a, d *relation.Relation, heights uint64, prep aPrep, sink Sink) error {
	table := &ctx.scratch().table
	table.init(a.NumRecords())
	var present uint64 // key heights a holds, one bit each
	as := a.BatchScan()
	for as.Next() {
		codes, aux := as.Codes(), as.Aux()
		for i, c := range codes {
			r := relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}
			if prep != nil {
				r = prep(r)
			}
			key := uint64(r.Code)
			present |= key & -key
			table.add(key, r)
		}
	}
	if err := as.Err(); err != nil {
		return err
	}
	if heights == 0 {
		heights = present
	}
	var buf [64]fKey
	return probeD(table, d.BatchScan(), appendKeys(buf[:0], heights), sink)
}

// hashJoinBuildD builds the table on the descendant side, keyed by the
// FBatch-derived codes of the eligible records, and streams (prepped) A.
func hashJoinBuildD(ctx *Context, a, d *relation.Relation, h int, prep aPrep, sink Sink) error {
	sp := ctx.Trace.StartDetail("hash-join", "build=D")
	defer ctx.Trace.End(sp)
	sc := ctx.scratch()
	table := &sc.table
	table.init(d.NumRecords())
	low := fKeyAt(h).low
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

// graceJoin partitions both inputs by a shared hash of the join key and
// joins partition pairs, recursing on still-oversized pairs. Ancestor
// partitions hold prepped records, so recursion passes a nil prep.
func graceJoin(ctx *Context, a, d *relation.Relation, h int, prep aPrep, sink Sink, depth int) error {
	b := ctx.b()
	memCap := ctx.memRecs(b - 2)
	k := int((minRecs(a, d) + memCap - 1) / memCap)
	if k < 2 {
		k = 2
	}
	if k > b-1 {
		k = b - 1
	}
	salt := uint64(depth+1) * 0x9e3779b97f4a7c15
	if depth+1 > ctx.stats().MaxRecursion {
		ctx.stats().MaxRecursion = depth + 1
	}

	psp := ctx.Trace.StartDetail("grace-partition", fmt.Sprintf("k=%d depth=%d", k, depth))
	aParts, err := hashPartitionA(ctx, a, k, prep, salt)
	if err != nil {
		ctx.Trace.End(psp)
		return err
	}
	dParts, err := hashPartitionD(ctx, d, k, h, salt)
	ctx.Trace.End(psp)
	if err != nil {
		freeAll(aParts)
		return err
	}
	defer freeAll(aParts)
	defer freeAll(dParts)
	for i := 0; i < k; i++ {
		if aParts[i].NumRecords() == 0 || dParts[i].NumRecords() == 0 {
			continue
		}
		if aParts[i].NumRecords() == a.NumRecords() && dParts[i].NumRecords() == d.NumRecords() {
			// The hash achieved nothing: every record shares one join
			// key (an extreme rollup). No salt will split it — block-join
			// immediately instead of burning recursion passes.
			if err := blockEquiJoin(ctx, aParts[i], dParts[i], h, nil, sink); err != nil {
				return err
			}
		} else if err := equiJoin(ctx, aParts[i], dParts[i], h, nil, sink, depth+1); err != nil {
			return err
		}
		if err := aParts[i].Free(); err != nil {
			return err
		}
		if err := dParts[i].Free(); err != nil {
			return err
		}
	}
	return nil
}

// hashPartitionA is graceJoin's ancestor-side partitioning pass: every
// record is kept, keyed by its (prepped) code.
func hashPartitionA(ctx *Context, rel *relation.Relation, k int, prep aPrep, salt uint64) ([]*relation.Relation, error) {
	return hashPartition(ctx, rel, k, "ha", salt, func(codes, aux []uint64, emit func(relation.Rec, uint64) error) error {
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

// hashPartitionD is graceJoin's descendant-side partitioning pass:
// eligible records (height below h) keyed by their FBatch-derived join
// code.
func hashPartitionD(ctx *Context, rel *relation.Relation, k int, h int, salt uint64) ([]*relation.Relation, error) {
	low := fKeyAt(h).low
	sc := ctx.scratch()
	return hashPartition(ctx, rel, k, "hd", salt, func(codes, aux []uint64, emit func(relation.Rec, uint64) error) error {
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

// hashPartition splits rel into k partition relations by hash(key) and
// returns them; page is called once per page slab with an emit that routes
// one kept record by its hash key. Appenders are opened lazily so empty
// partitions cost nothing. Partitions inherit the input's page format.
func hashPartition(ctx *Context, rel *relation.Relation, k int, kind string, salt uint64, page func(codes, aux []uint64, emit func(relation.Rec, uint64) error) error) ([]*relation.Relation, error) {
	parts := make([]*relation.Relation, k)
	apps := make([]*relation.Appender, k)
	for i := range parts {
		parts[i] = relation.NewLike(rel, ctx.Pool, ctx.tmp(kind))
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
	// fail cleans up on any error: the caller never sees the partitions, so
	// they must be freed here or they leak.
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

// freeAll releases partition relations, ignoring errors (cleanup path).
func freeAll(parts []*relation.Relation) {
	for _, p := range parts {
		if p != nil {
			p.Free() //nolint:errcheck // best-effort cleanup
		}
	}
}

// blockEquiJoin is the terminal fallback: hash chunks of A in memory and
// rescan D per chunk, through one resettable scanner.
func blockEquiJoin(ctx *Context, a, d *relation.Relation, h int, prep aPrep, sink Sink) error {
	sp := ctx.Trace.Start("block-join")
	defer ctx.Trace.End(sp)
	chunkCap := int(ctx.memRecs(ctx.b() - 2))
	table := &ctx.scratch().table
	table.init(int64(chunkCap))
	keys := []fKey{fKeyAt(h)}
	var ds relation.BatchScanner
	join := func() error {
		if table.len() == 0 {
			return nil
		}
		ds.Reset(d)
		return probeD(table, &ds, keys, sink)
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
