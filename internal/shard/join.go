package shard

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/trace"
	"github.com/pbitree/pbitree/pbicode"
)

// This file is the scatter-gather executor: every join fans out to the
// shard engines through a bounded worker pool, each shard runs the
// ordinary single-engine join (AUTO selection per shard — shards differ in
// size and skew, so they may legitimately pick different algorithms), and
// the coordinator merges results, IOStats and trace spans. Cancellation is
// first-error-wins: the first shard failure (or the caller's ctx) cancels
// the shared context, the remaining shards abort at page-I/O granularity
// exactly as PR 3's machinery provides, and every shard's temporary state
// is released before the merged error returns.

// runShards runs fn for every shard index with at most e.parallel
// executions in flight. The first error cancels the rest; when both a real
// failure and knock-on cancellations occur, the real failure is reported
// (cancellation errors only win when nothing else failed).
func (e *Engine) runShards(ctx context.Context, fn func(ctx context.Context, i int) error) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, e.parallel)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	report := func(err error) {
		mu.Lock()
		if firstErr == nil ||
			(containment.Classify(firstErr) == containment.FailCanceled &&
				containment.Classify(err) != containment.FailCanceled) {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}
	for i := range e.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-cctx.Done():
				return
			}
			defer func() { <-sem }()
			if cctx.Err() != nil {
				return
			}
			if err := fn(cctx, i); err != nil {
				report(err)
			}
		}(i)
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// join is the shared body of JoinContext and AnalyzeContext: fan out,
// merge. traced runs each shard under EXPLAIN ANALYZE and reassembles the
// per-shard span trees as children of one merged root, so the fan-out is
// visible in the plan output.
func (e *Engine) join(ctx context.Context, a, d *Relation, opts containment.JoinOptions, traced bool) (*containment.Result, *trace.Span, error) {
	if a == nil || d == nil {
		return nil, nil, fmt.Errorf("shard: nil relation")
	}
	// The user's Emit sees pairs from all shards; serialize it. Collect is
	// handled per shard and merged below (shard order, not global document
	// order — identical multiset, cheaper than a global sort).
	shardOpts := opts
	shardOpts.Collect = false
	if opts.Emit != nil {
		var emitMu sync.Mutex
		userEmit := opts.Emit
		shardOpts.Emit = func(p containment.Pair) error {
			emitMu.Lock()
			defer emitMu.Unlock()
			return userEmit(p)
		}
	}

	outs := make([]*containment.Result, len(e.shards))
	roots := make([]*trace.Span, len(e.shards))
	pairs := make([][]containment.Pair, len(e.shards))
	start := time.Now()
	err := e.runShards(ctx, func(cctx context.Context, i int) error {
		ai, di := a.per[i], d.per[i]
		if ai == nil || di == nil {
			return nil // the shard holds no codes of one side: no pairs possible
		}
		so := shardOpts
		if opts.Collect {
			so.Collect = true
		}
		var res *containment.Result
		var err error
		if traced {
			var an *containment.Analysis
			an, err = e.shards[i].AnalyzeContext(cctx, ai, di, so)
			if an != nil {
				res = an.Result
				if root := an.Root(); root != nil {
					// The per-shard span carries the originating request's
					// trace ID (when the caller threaded one through), so
					// distributed traces and /metrics exemplars correlate
					// shard-local phases with the external request.
					tag := fmt.Sprintf("shard=%d", i)
					if opts.TraceID != "" {
						tag = fmt.Sprintf("shard=%d trace=%s", i, opts.TraceID)
					}
					if root.Detail != "" {
						root.Detail = tag + " " + root.Detail
					} else {
						root.Detail = tag
					}
					roots[i] = root
				}
			}
		} else {
			res, err = e.shards[i].JoinContext(cctx, ai, di, so)
		}
		// Partial results from aborted shards still merge: the coordinator
		// reports the I/O actually performed, like a solo engine does.
		outs[i] = res
		if res != nil {
			pairs[i] = res.Pairs
		}
		return err
	})
	wall := time.Since(start)

	merged := &containment.Result{}
	var algos []string
	seen := map[string]bool{}
	for i, out := range outs {
		if out == nil {
			continue
		}
		merged.Count += out.Count
		merged.FalseHits += out.FalseHits
		merged.Partitions += out.Partitions
		merged.Replicated += out.Replicated
		merged.IndexProbes += out.IndexProbes
		merged.PredictedIO += out.PredictedIO
		merged.IO.Add(out.IO)
		if opts.Collect {
			merged.Pairs = append(merged.Pairs, pairs[i]...)
		}
		if out.Algorithm != "" && !seen[out.Algorithm] {
			seen[out.Algorithm] = true
			algos = append(algos, out.Algorithm)
		}
		e.totMu.Lock()
		e.totals[i].Add(out.IO)
		e.totMu.Unlock()
	}
	// Shards ran concurrently: the envelope is the honest wall time, not
	// the per-shard sum (VirtualTime keeps the sum — the virtual disk
	// models aggregate I/O work, the quantity the paper's model predicts).
	merged.IO.WallTime = wall
	merged.Algorithm = strings.Join(algos, "+")

	var root *trace.Span
	if traced {
		kept := roots[:0:0]
		for _, r := range roots {
			if r != nil {
				kept = append(kept, r)
			}
		}
		root = trace.Merge("join", fmt.Sprintf("sharded n=%d", len(e.shards)), wall, kept...)
	}
	if err != nil {
		// Per-shard joins release their own temps on error; shards that
		// finished before a sibling failed may still hold overlay pages
		// from loaded inputs on read-only engines. Sweep them all.
		e.ReleaseTemp() //nolint:errcheck // best-effort cleanup on error
		return merged, root, err
	}
	return merged, root, nil
}

// Join evaluates a ◁ d across all shards and merges the per-shard results:
// counts, pairs (with Collect), physical I/O (WallTime = the fan-out
// envelope), and the algorithm names that ran ("+"-joined when shards
// chose differently).
func (e *Engine) Join(a, d *Relation, opts containment.JoinOptions) (*containment.Result, error) {
	return e.JoinContext(context.Background(), a, d, opts)
}

// JoinContext is Join with cooperative cancellation, the sharded analogue
// of containment.Engine.JoinContext: ctx cancels every in-flight shard at
// page-I/O granularity, a non-nil partial Result accompanies the error,
// and all temporary state is released.
func (e *Engine) JoinContext(ctx context.Context, a, d *Relation, opts containment.JoinOptions) (*containment.Result, error) {
	res, _, err := e.join(ctx, a, d, opts, false)
	return res, err
}

// Analyze is EXPLAIN ANALYZE across the fan-out: each shard's span tree
// becomes one child of a merged root ("join [sharded n=N]"), so the plan
// shows per-shard algorithms, I/O, and wall times side by side.
func (e *Engine) Analyze(a, d *Relation, opts containment.JoinOptions) (*containment.Analysis, error) {
	return e.AnalyzeContext(context.Background(), a, d, opts)
}

// AnalyzeContext is Analyze with cooperative cancellation. Like
// containment.Engine.AnalyzeContext, an aborted execution still returns a
// partial Analysis alongside the error when any shard got as far as
// running.
func (e *Engine) AnalyzeContext(ctx context.Context, a, d *Relation, opts containment.JoinOptions) (*containment.Analysis, error) {
	res, root, err := e.join(ctx, a, d, opts, true)
	if err != nil {
		if res == nil {
			return nil, err
		}
		return containment.NewAnalysis(res, root), err
	}
	return containment.NewAnalysis(res, root), nil
}

// PathStep reports one join step of a path evaluation: the /query steps
// block of pbiserve and pbirouter, and a sharded evaluation's per-step
// report. Merged across shards (MergeSteps), Algorithm lists the names
// that ran, "+"-joined when they differ, and Matches is the total distinct
// descendant matches.
type PathStep struct {
	Anc       string `json:"anc"`
	Desc      string `json:"desc"`
	Algorithm string `json:"algorithm"`
	Matches   int64  `json:"matches"`
}

// MergeSteps folds one shard's step reports, in chain order, into merged:
// matches sum, algorithm names "+"-join in shard order (MergeAlgo). A step
// no earlier shard reached is appended. Exported for the network-level
// coordinator (internal/router), which merges per-node /query steps with
// the semantics this package uses in process.
func MergeSteps(merged, steps []PathStep) []PathStep {
	for i, st := range steps {
		if i == len(merged) {
			merged = append(merged, PathStep{Anc: st.Anc, Desc: st.Desc})
		}
		merged[i].Matches += st.Matches
		merged[i].Algorithm = MergeAlgo(merged[i].Algorithm, st.Algorithm)
	}
	return merged
}

// UnknownRelationError reports a path tag with no stored relation on any
// shard.
type UnknownRelationError struct{ Name string }

func (e *UnknownRelationError) Error() string {
	return fmt.Sprintf("no stored relation for tag %q", e.Name)
}

// PathContext evaluates a descendant-axis chain (tags[0]//tags[1]//...)
// across the shards and returns the final match set in document order,
// per-step reports, and every shard's per-step EXPLAIN ANALYZE.
//
// Each shard runs the whole chain independently — correct because every
// containment pair, hence every chain of them, lies within one document,
// and documents never span shards. The per-shard chains fan out under the
// same bounded pool and cancellation rules as JoinContext.
func (e *Engine) PathContext(ctx context.Context, tags []string) ([]pbicode.Code, []PathStep, []*containment.Analysis, error) {
	if len(tags) == 0 {
		return nil, nil, nil, fmt.Errorf("shard: empty path")
	}
	for _, t := range tags {
		if _, ok := e.rels[t]; !ok {
			return nil, nil, nil, &UnknownRelationError{t}
		}
	}

	outs := make([]*chainOut, len(e.shards))
	err := e.runShards(ctx, func(cctx context.Context, i int) error {
		out, err := e.chainShard(cctx, i, tags)
		outs[i] = out
		return err
	})

	var codes []pbicode.Code
	steps := make([]PathStep, 0, len(tags)-1)
	var analyses []*containment.Analysis
	for i, out := range outs {
		if out == nil {
			continue
		}
		var io containment.IOStats
		for _, an := range out.analyses {
			if an.Result != nil {
				io.Add(an.Result.IO)
			}
		}
		e.totMu.Lock()
		e.totals[i].Add(io)
		e.totMu.Unlock()
		codes = append(codes, out.codes...)
		steps = MergeSteps(steps, out.steps)
		analyses = append(analyses, out.analyses...)
	}
	containment.SortDocOrder(codes)
	if err != nil {
		e.ReleaseTemp() //nolint:errcheck // best-effort cleanup on error
		return codes, steps, analyses, err
	}
	return codes, steps, analyses, nil
}

// chainOut is one shard's contribution to a path evaluation.
type chainOut struct {
	codes    []pbicode.Code
	steps    []PathStep
	analyses []*containment.Analysis
}

// MergeAlgo accumulates a distinct algorithm name into a "+"-joined list —
// the convention merged results use when partitions legitimately picked
// different algorithms. Exported for the network-level coordinator
// (internal/router), which merges per-node responses with the same
// semantics this package uses in process.
func MergeAlgo(list, name string) string {
	if name == "" {
		return list
	}
	if list == "" {
		return name
	}
	// A per-shard name can itself be composite ("MHCJ+Rollup"), so dedupe
	// on whole names: name is present only as a full "+"-bounded run.
	if strings.Contains("+"+list+"+", "+"+name+"+") {
		return list
	}
	return list + "+" + name
}

// chainShard runs the full chain on shard i (the per-shard mirror of
// qserv's solo path evaluator).
func (e *Engine) chainShard(ctx context.Context, i int, tags []string) (out *chainOut, err error) {
	out = &chainOut{}
	eng := e.shards[i]
	rel := func(tag string) *containment.Relation { return e.rels[tag].per[i] }

	first := rel(tags[0])
	if first == nil {
		return out, nil // shard holds none of the anchor tag: contributes nothing
	}
	if len(tags) == 1 {
		out.codes, err = first.Codes()
		return out, err
	}

	anc := first
	temp := false
	var matched containment.Matches
	for s := 1; s < len(tags); s++ {
		desc := rel(tags[s])
		if desc == nil {
			// No descendants of this tag on the shard: the chain dies here.
			if temp {
				return out, eng.Free(anc)
			}
			return out, nil
		}
		if err := ctx.Err(); err != nil {
			return out, err
		}
		matched.Reset() // its previous content is loaded into anc by now
		an, err := eng.AnalyzeContext(ctx, anc, desc, containment.JoinOptions{Emit: matched.Emit})
		if temp {
			if ferr := eng.Free(anc); ferr != nil && err == nil {
				err = ferr
			}
		}
		cur := matched.Distinct()
		if an != nil {
			out.analyses = append(out.analyses, an)
			if an.Result != nil {
				out.steps = append(out.steps, PathStep{
					Anc: tags[s-1], Desc: tags[s],
					Algorithm: an.Result.Algorithm, Matches: int64(len(cur)),
				})
			}
		}
		if err != nil {
			return out, err
		}
		if s == len(tags)-1 {
			out.codes = cur
			return out, nil
		}
		if len(cur) == 0 {
			return out, nil
		}
		anc, err = eng.Load("q.path.anc", cur)
		if err != nil {
			return out, err
		}
		temp = true
	}
	panic("unreachable")
}
