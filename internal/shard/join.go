package shard

import (
	"context"
	"fmt"
	"runtime"
	"slices"
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
// the coordinator merges results, IOStats and trace spans. The first shard
// failure (or the caller's ctx) cancels the shared context, the remaining
// shards abort at page-I/O granularity, and every shard's temporary state
// is released before the error runShards selects returns.

// runShards runs fn for every shard index with at most
// min(GOMAXPROCS, shards) executions in flight. The first error cancels the
// rest. Errors are kept per shard and chosen once every shard has stopped:
// the first real failure in shard order, else the first cancellation or
// deadline, else the caller's ctx error. So a knock-on cancellation never
// hides a real failure, and which failure wins does not depend on arrival
// order.
func (e *Engine) runShards(ctx context.Context, fn func(ctx context.Context, i int) error) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, min(runtime.GOMAXPROCS(0), len(e.shards)))
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
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
			if errs[i] = fn(cctx, i); errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	var abort error
	for _, err := range errs {
		switch containment.Classify(err) {
		case containment.FailNone:
		case containment.FailCanceled, containment.FailDeadline:
			if abort == nil {
				abort = err
			}
		default:
			return err
		}
	}
	if abort != nil {
		return abort
	}
	return ctx.Err()
}

// join is the shared body of JoinContext and AnalyzeContext: fan out,
// merge. traced runs each shard under EXPLAIN ANALYZE and reassembles the
// per-shard span trees as children of one merged root, so the fan-out is
// visible in the plan output.
func (e *Engine) join(ctx context.Context, a, d *Relation, opts containment.JoinOptions, traced bool) (*containment.Result, *trace.Span, error) {
	if a == nil || d == nil {
		return nil, nil, fmt.Errorf("shard: nil relation")
	}
	// The user's Emit sees pairs from all shards; serialize it. Collected
	// pairs merge in shard order, not global document order — identical
	// multiset, cheaper than a global sort.
	shardOpts := opts
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
	var roots []*trace.Span
	if traced {
		roots = make([]*trace.Span, len(e.shards))
	}
	start := time.Now()
	err := e.runShards(ctx, func(cctx context.Context, i int) error {
		ai, di := a.per[i], d.per[i]
		if ai == nil || di == nil {
			return nil // the shard holds no codes of one side: no pairs possible
		}
		// Partial results from aborted shards still merge: the coordinator
		// reports the I/O actually performed, like a solo engine does.
		if !traced {
			res, err := e.shards[i].JoinContext(cctx, ai, di, shardOpts)
			outs[i] = res
			return err
		}
		an, err := e.shards[i].AnalyzeContext(cctx, ai, di, shardOpts)
		if an != nil {
			outs[i], roots[i] = an.Result, an.Root()
		}
		return err
	})
	merged, root := e.merge(outs, roots, opts.TraceID, time.Since(start))
	if opts.Collect {
		for _, out := range outs {
			if out != nil {
				merged.Pairs = append(merged.Pairs, out.Pairs...)
			}
		}
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

// merge folds the per-shard executions of one join — outs and, when
// traced, their root spans, both indexed by shard — into one Result and
// one span tree, and adds each shard's I/O to its running total. Counts
// and I/O add, except WallTime: the shards ran concurrently, so it is
// wall, the fan-out envelope (VirtualTime keeps the sum — the virtual
// disk models aggregate I/O work, the quantity the paper's model
// predicts). Algorithm names "+"-join in shard order (MergeAlgo), and
// each shard's root, labeled with its index, becomes a child of one
// "join [sharded n=N]" root.
func (e *Engine) merge(outs []*containment.Result, roots []*trace.Span, traceID string, wall time.Duration) (*containment.Result, *trace.Span) {
	merged := &containment.Result{}
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
		merged.Algorithm = MergeAlgo(merged.Algorithm, out.Algorithm)
		e.totMu.Lock()
		e.totals[i].Add(out.IO)
		e.totMu.Unlock()
	}
	merged.IO.WallTime = wall
	if roots == nil {
		return merged, nil
	}
	for i, root := range roots {
		if root == nil {
			continue
		}
		// The per-shard span carries the originating request's trace ID
		// (when the caller threaded one through), so distributed traces
		// and /metrics exemplars correlate shard-local phases with the
		// external request.
		tag := fmt.Sprintf("shard=%d", i)
		if traceID != "" {
			tag += " trace=" + traceID
		}
		if root.Detail != "" {
			tag += " " + root.Detail
		}
		root.Detail = tag
	}
	return merged, trace.Merge("join", fmt.Sprintf("sharded n=%d", len(e.shards)), wall, roots...)
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

// MergeSteps folds one node's step reports, in chain order, into merged:
// matches sum, algorithm names "+"-join in node order (MergeAlgo). A step
// no earlier node reported is appended. Exported for the network-level
// coordinator (internal/router), which merges per-node /query steps with
// the semantics PathContext merges per-shard steps with.
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

// PathSteps converts a chain's step reports over tags into one PathStep
// per report and the analyses that ran, in chain order — a prefix of the
// steps, since a chain that ends early runs no later step. Solo serving
// and PathContext share it.
func PathSteps(tags []string, reps []containment.StepReport) ([]PathStep, []*containment.Analysis) {
	steps := make([]PathStep, len(reps))
	var analyses []*containment.Analysis
	for i, r := range reps {
		steps[i] = PathStep{Anc: tags[i], Desc: tags[i+1], Matches: r.Matches}
		if r.Analysis != nil {
			steps[i].Algorithm = r.Analysis.Result.Algorithm
			analyses = append(analyses, r.Analysis)
		}
	}
	return steps, analyses
}

// UnknownRelationError reports a path tag with no stored relation on any
// shard.
type UnknownRelationError struct{ Name string }

func (e *UnknownRelationError) Error() string {
	return fmt.Sprintf("no stored relation for tag %q", e.Name)
}

// PathContext evaluates a descendant-axis chain (tags[0]//tags[1]//...)
// across the shards and returns the final match set in document order,
// one PathStep per join, and one EXPLAIN ANALYZE per step that ran.
//
// Each shard runs the whole chain independently through
// containment.Engine.Chain — correct because every containment pair, hence
// every chain of them, lies within one document, and documents never span
// shards. The per-shard chains fan out under the same bounded pool and
// cancellation rules as JoinContext. Step s then merges the shards'
// step-s reports as a sharded join merges its shards: its Analysis holds
// each shard's span tree under one "join [sharded n=N]" root. Its
// WallTime is the slowest shard's, as the chains share no step boundary
// to measure an envelope at.
func (e *Engine) PathContext(ctx context.Context, tags []string) ([]pbicode.Code, []PathStep, []*containment.Analysis, error) {
	if len(tags) == 0 {
		return nil, nil, nil, fmt.Errorf("shard: empty path")
	}
	rels := make([]*Relation, len(tags))
	for i, t := range tags {
		r, ok := e.rels[t]
		if !ok {
			return nil, nil, nil, &UnknownRelationError{t}
		}
		rels[i] = r
	}

	codes := make([][]pbicode.Code, len(e.shards))
	reps := make([][]containment.StepReport, len(e.shards))
	err := e.runShards(ctx, func(cctx context.Context, i int) error {
		chain := make([]containment.ChainStep, len(tags)-1)
		for s := range chain {
			chain[s].Desc = rels[s+1].per[i]
		}
		var err error
		codes[i], reps[i], err = e.shards[i].Chain(cctx, rels[0].per[i], chain)
		return err
	})

	merged := make([]containment.StepReport, len(tags)-1)
	for s := range merged {
		outs := make([]*containment.Result, len(e.shards))
		roots := make([]*trace.Span, len(e.shards))
		var wall time.Duration
		ran := false
		for i, r := range reps {
			if s >= len(r) {
				continue // the shard failed before this step
			}
			merged[s].Matches += r[s].Matches
			if an := r[s].Analysis; an != nil {
				outs[i], roots[i] = an.Result, an.Root()
				wall = max(wall, an.Result.IO.WallTime)
				ran = true
			}
		}
		if ran {
			merged[s].Analysis = containment.NewAnalysis(e.merge(outs, roots, "", wall))
		}
	}
	all := slices.Concat(codes...)
	containment.SortDocOrder(all)
	steps, analyses := PathSteps(tags, merged)
	if err != nil {
		e.ReleaseTemp() //nolint:errcheck // best-effort cleanup on error
	}
	return all, steps, analyses, err
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
