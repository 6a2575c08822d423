package containment

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/pbitree/pbitree/internal/core"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/pbicode"
)

// PlanEntry is one candidate algorithm with its predicted cost.
type PlanEntry struct {
	Algorithm   string
	PredictedIO int64
	Chosen      bool
}

// Explain returns AUTO's view of a join without running it: the candidates
// it prices, each with its §3.4 page I/O prediction, cheapest first, and
// the one a Join under Auto runs marked — Table 1's pick whenever that is
// among the cheapest (core.Choose).
func (e *Engine) Explain(a, d *Relation) []PlanEntry {
	ctx := e.coreContext()
	ctx.AncestorHeights = a.heights
	p := core.Choose(ctx, inputSpec(a, d), a.rel, d.rel)
	out := make([]PlanEntry, p.N)
	for i, alg := range p.Algs[:p.N] {
		out[i] = PlanEntry{Algorithm: alg.String(), PredictedIO: p.IO[i], Chosen: alg == p.Chosen}
	}
	slices.SortStableFunc(out, func(x, y PlanEntry) int { return cmp.Compare(x.PredictedIO, y.PredictedIO) })
	return out
}

// JoinInput is what EXPLAIN's header reports of a join input: a stored
// relation, or one sharded across engines (internal/shard).
type JoinInput interface {
	Len() int64
	Pages() int64
	Ordered() bool
}

// InputHeader renders the inputs of EXPLAIN's header: each one's elements
// and pages, marked "ordered" when it is stored in document order, so that
// AUTO prices no sort of it. ExplainString and the CLIs print this one line.
func InputHeader(a, d JoinInput) string {
	note := func(r JoinInput) string {
		if r.Ordered() {
			return ", ordered"
		}
		return ""
	}
	return fmt.Sprintf("|A|=%d (%d pages%s)  |D|=%d (%d pages%s)", a.Len(), a.Pages(), note(a), d.Len(), d.Pages(), note(d))
}

// ExplainString renders Explain as a small table.
func (e *Engine) ExplainString(a, d *Relation) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  b=%d\n", InputHeader(a, d), e.pool.Size())
	for _, p := range e.Explain(a, d) {
		mark := " "
		if p.Chosen {
			mark = "*"
		}
		fmt.Fprintf(&sb, "%s %-14s predicted %d page I/O\n", mark, p.Algorithm, p.PredictedIO)
	}
	return sb.String()
}

// This file adds persistent per-relation access paths: a copy in document
// order and a B+-tree on region Start. With them, the framework's Table 1
// rows that assume "sorted" or "indexed" inputs run without the on-the-fly
// preparation cost the unsorted/unindexed setting pays — the situation of
// base relations in a stored XML database, as opposed to intermediate
// results.

// Sort replaces the relation's storage order with document order (region
// Start ascending, ancestors first on ties), which it then claims
// (Ordered): the merge joins skip their on-the-fly sorts. The copy holds
// what Load of the sorted code list would store, ordinals and page fences
// included, so LoadOver and the seeking merges read it as they read a
// loaded relation. The external sort's I/O, and that of writing the copy,
// is charged when Sort runs; a relation already in document order is left
// as it is, and nothing is written. A Config.PaperLayout engine writes the
// copy in the paper's layout, and the copy claims its order all the same:
// a sort's output is in order by construction, whereas the paper's loads
// are not assumed to be. The relations a join derives from the copy are
// then packed.
func (e *Engine) Sort(r *Relation) error {
	if r.rel.Ordered() {
		return nil
	}
	ctx := e.coreContext()
	sorted, err := core.SortByDoc(ctx, r.rel, r.rel.Name())
	if err != nil {
		return err
	}
	defer sorted.Free() //nolint:errcheck // cleanup
	// Keep the relation's name: the copy replaces it (catalog identity must
	// survive).
	out := relation.New(e.pool, r.rel.Name())
	out.SetPaperLayout(e.cfg.PaperLayout)
	app := out.NewAppender()
	var ord uint64
	s := sorted.BatchScan()
	for err == nil && s.Next() {
		for _, c := range s.Codes() {
			if err = app.Append(relation.Rec{Code: pbicode.Code(c), Aux: ord}); err != nil {
				break
			}
			ord++
		}
	}
	s.Close()
	if err = errors.Join(err, s.Err(), app.Close()); err == nil {
		err = r.rel.Free()
	}
	if err != nil {
		out.Free() //nolint:errcheck // cleanup after earlier error
		return err
	}
	out.SetPaperLayout(false)
	r.rel, r.stats, r.shared = out, nil, 0
	return nil
}

// BuildStartIndex builds and attaches a persistent B+-tree on the
// relation's region Starts (the index INLJN probes descendant sets with,
// and ADB+ skips through). Build cost (sort + bulk-load) is charged now.
func (e *Engine) BuildStartIndex(r *Relation) error {
	if r.startIdx != nil {
		return nil
	}
	ctx := e.coreContext()
	idx, err := core.BuildStartIndex(ctx, r.rel, r.rel.Name()+".idx")
	if err != nil {
		return err
	}
	r.startIdx = idx
	return nil
}

// Ordered reports whether the relation's records are stored in document
// order, as loading or sorting them found and the catalog records: the
// sorts on the fly of the merge and index joins then read it as it is, and
// AUTO takes Table 1's sorted row for two such inputs. A relation a
// Config.PaperLayout engine loads or opens never claims it; one Sort wrote
// does.
func (r *Relation) Ordered() bool { return r.rel.Ordered() }

// Indexed reports whether the relation has a persistent Start index
// (BuildStartIndex).
func (r *Relation) Indexed() bool { return r.startIdx != nil }

// coreContext returns an execution context over the engine's pool, tree
// height and working memory, for the operations that run outside Join
// (sorts, index builds, plan estimates).
func (e *Engine) coreContext() *core.Context {
	return &core.Context{Pool: e.pool, TreeHeight: e.cfg.TreeHeight, Scratch: &e.scratch}
}

// inputSpec reports the persistent indexes of a join's inputs, which AUTO
// and the cost model read beside each relation's own order claim.
func inputSpec(a, d *Relation) core.InputSpec {
	return core.InputSpec{IndexedA: a.Indexed(), IndexedD: d.Indexed()}
}

// JoinRegionNative runs the *native region-coded* stack-tree join over
// (Start, End)-layout copies of a and d — the baseline of ablation A2,
// reproducing the paper's internal comparison of original region-based
// algorithms against their PBiTree adaptations. The layout conversion is
// excluded from the reported cost (a region-coding system stores this
// layout to begin with); the join starts cache-cold like the harness's
// other measurements.
func (e *Engine) JoinRegionNative(a, d *Relation) (*Result, error) {
	stats := &core.Stats{}
	ctx := e.coreContext()
	ctx.Stats = stats
	ra, err := core.ToRegionRelation(ctx, a.rel, a.rel.Name()+".region")
	if err != nil {
		return nil, err
	}
	defer ra.Free() //nolint:errcheck // cleanup
	rd, err := core.ToRegionRelation(ctx, d.rel, d.rel.Name()+".region")
	if err != nil {
		return nil, err
	}
	defer rd.Free() //nolint:errcheck // cleanup
	if err := e.DropCache(); err != nil {
		return nil, err
	}
	before := e.disk.Stats()
	start := time.Now()
	if err := core.StackTreeRegionOnTheFly(ctx, ra, rd, &core.CountSink{}); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	io := e.disk.Stats().Sub(before)
	return &Result{
		Algorithm: "STACKTREE-REGION",
		Count:     stats.Pairs,
		IO: IOStats{
			Reads: io.Reads, Writes: io.Writes,
			SeqReads: io.SeqReads, SeqWrites: io.SeqWrites,
			VirtualTime: io.VirtualIO, WallTime: wall,
		},
	}, nil
}

// runIndexed dispatches the index-using algorithms onto persistent
// indexes when present, falling back to on-the-fly builds otherwise.
// It reports whether it handled the algorithm.
func (e *Engine) runIndexed(ctx *core.Context, alg core.Algorithm, a, d *Relation, sink core.Sink) (bool, error) {
	switch alg {
	case core.AlgINLJN:
		// A persistent Start index on D is probed with each ancestor;
		// otherwise INLJN builds its index on the fly, on the smaller side.
		if d.startIdx != nil {
			return true, core.INLJNProbeDescendants(ctx, a.rel, d.startIdx, ctx.Wrap(sink))
		}
		return false, nil
	case core.AlgADBPlus:
		if a.startIdx != nil && d.startIdx != nil {
			return true, core.ADBPlus(ctx, a.startIdx, d.startIdx, sink)
		}
		return false, nil
	default:
		return false, nil
	}
}
