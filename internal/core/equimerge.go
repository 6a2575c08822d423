package core

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/pbicode"
)

// This file implements the in-memory equijoin of two inputs stored in
// document order: a merge that builds no hash table. The paper hashes the
// equijoin A.Code = F(D.Code, h) because its inputs are neither sorted nor
// indexed; a relation that records its document order (Relation.Ordered)
// already holds both sides sorted on the join key:
//
//   - along D, F(d, h) never decreases among the records below h: the
//     height-h subtree that covers d also covers d's region start, so F(d, h)
//     is a non-decreasing function of Start(d), and document order sorts by
//     Start;
//   - along A, the codes of one height never decrease (one height's regions
//     are disjoint and ordered by Start), and neither do rollup's rolled
//     codes, F(a, h) of records at or below h, by the argument for D.
//
// So the build side is read into the same arena the hash table would hold,
// each key height's records threaded into a run in scan order, and the
// probe side advances one cursor per key height instead of hashing. A
// false order claim — Attach takes it on the catalog's word — is caught by
// the comparisons the merge makes anyway: a build run whose keys decrease
// is hashed from the arena (no second read), and a probe side that goes
// back fails the join with ErrOrderClaim rather than miss pairs.

// ErrOrderClaim matches the error of a join whose input claims document
// order (Relation.Ordered) but is not in it: the catalog's claim is false,
// which Fsck reports; the join fails rather than answer wrongly.
var ErrOrderClaim = errors.New("core: relation is not in the document order it claims")

// identityKey keys a record by its own code: c&mask | bit = c.
var identityKey = fKey{mask: ^uint64(0)}

// runs threads the records of a merge build, held in a flatTable's arena,
// into one run per key height: head and tail are the 1-based arena indexes
// of the first and last record of each height (0 = none), and the arena's
// next links each record to the following one of its height. Index 64
// holds the key 0, which no probe reads.
type runs struct {
	head, tail [65]int32
}

// add appends r to the arena at the end of its key height's run and
// reports whether the run's keys still do not decrease.
func (rs *runs) add(t *flatTable, r relation.Rec) bool {
	t.recs = append(t.recs, r)
	t.next = append(t.next, 0)
	idx := int32(len(t.recs))
	h := bits.TrailingZeros64(uint64(r.Code))
	last := rs.tail[h]
	rs.tail[h] = idx
	if last == 0 {
		rs.head[h] = idx
		return true
	}
	t.next[last-1] = idx
	return t.recs[last-1].Code <= r.Code
}

// mergeProbeD streams d against the runs of a merge build: for each record
// and each key height in keys that it lies below, the height's cursor
// advances to the first key not below F(d, h), and the records carrying
// that key are emitted. d is read in full, as the hash probe reads it, so
// page reads do not depend on the kernel; a record whose region starts
// before its predecessor's fails the join with ErrOrderClaim.
func mergeProbeD(t *flatTable, rs *runs, d *relation.Relation, keys []fKey, sink Sink) error {
	var cur [64]int32
	for i, k := range keys {
		cur[i] = rs.head[bits.TrailingZeros64(k.bit)]
	}
	recs, next := t.recs, t.next
	var prev uint64 // Start-1 of the previous record
	ds := d.BatchScan()
	for ds.Next() {
		codes, aux := ds.Codes(), ds.Aux()
		for i, c := range codes {
			s := c - c&-c
			if s < prev {
				ds.Close()
				return orderError(d)
			}
			prev = s
			for ki, k := range keys {
				if c&k.low == 0 {
					continue // at or above this height: cannot have an ancestor there
				}
				key := c&k.mask | k.bit
				j := cur[ki]
				for j != 0 && uint64(recs[j-1].Code) < key {
					j = next[j-1]
				}
				cur[ki] = j
				if j == 0 || uint64(recs[j-1].Code) != key {
					continue
				}
				dr := relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}
				for ; j != 0 && uint64(recs[j-1].Code) == key; j = next[j-1] {
					if err := sink.Emit(recs[j-1], dr); err != nil {
						ds.Close()
						return err
					}
				}
			}
		}
	}
	return ds.Err()
}

// mergeProbeA streams (prepped) a against the descendants of a merge
// build, held in scan order in recs and sorted on F(d, k's height): the
// cursor advances to the first descendant whose key is not below the
// ancestor's, and the descendants carrying its key are emitted. Ancestor
// keys at another height never meet one, as in the hash probe; a key that
// falls below its predecessor fails the join with ErrOrderClaim.
func mergeProbeA(recs []relation.Rec, a *relation.Relation, k fKey, prep aPrep, sink Sink) error {
	j := 0
	var prev uint64
	as := a.BatchScan()
	for as.Next() {
		codes, aux := as.Codes(), as.Aux()
		for i, c := range codes {
			ar := relation.Rec{Code: pbicode.Code(c), Aux: aux[i]}
			if prep != nil {
				ar = prep(ar)
			}
			key := uint64(ar.Code)
			if key&(k.bit|k.low) != k.bit {
				continue // not a height-h key
			}
			if key < prev {
				as.Close()
				return orderError(a)
			}
			prev = key
			for j < len(recs) && uint64(recs[j].Code)&k.mask|k.bit < key {
				j++
			}
			for x := j; x < len(recs) && uint64(recs[x].Code)&k.mask|k.bit == key; x++ {
				if err := sink.Emit(ar, recs[x]); err != nil {
					as.Close()
					return err
				}
			}
		}
	}
	return as.Err()
}

func orderError(r *relation.Relation) error {
	return fmt.Errorf("%w: %s", ErrOrderClaim, r.Name())
}
