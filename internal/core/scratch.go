package core

import (
	"github.com/pbitree/pbitree/internal/extsort"
	"github.com/pbitree/pbitree/internal/relation"
)

// Scratch is the working memory one engine owns for its lifetime and lends
// to every join it runs through Context.Scratch: the hash table of the
// equijoins, the key and region slabs of its kernels, the record chunk of
// the memory joins, the stack-tree join's stack, the pending-pair arena of
// the stack-tree-anc join and the external sort's buffers. The algorithms already size each
// of these by the b-page budget — a build side never exceeds
// memRecs(b-2) records, a sort run never exceeds b pages — so what stays
// resident is bounded by b and the page size, whatever the inputs. Nothing
// is allocated until a join first needs it; after that a warm join reuses
// it and allocates only the small bookkeeping objects of its temporary
// relations.
//
// A Scratch belongs to one goroutine at a time, like the engine that owns
// it: no locks, and deliberately no sync.Pool, whose contents the GC may
// drop at any cycle — the point is that the memory is there on the next
// join. The zero value is ready to use.
type Scratch struct {
	table  flatTable
	fkeys  []uint64       // FBatch output, one page of join keys
	starts []uint64       // RegionBatch output, one page of region starts
	ends   []uint64       // and ends
	recs   []relation.Rec // NestedLoop's A chunk, the memory join's loaded D
	dStart []uint64       // region starts of recs, for the memory join's probes
	stack  stack          // StackTree's open ancestors
	anc    ancArena
	sort   extsort.Scratch
}

// scratch returns the execution's working memory. A Context built without
// one (tests, one-off callers) gets a private Scratch that lives as long
// as the Context, so it allocates what it needs once per execution.
func (c *Context) scratch() *Scratch {
	if c.Scratch == nil {
		c.Scratch = new(Scratch)
	}
	return c.Scratch
}

// sized returns s with length n, reusing its array when large enough. The
// contents are unspecified.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
