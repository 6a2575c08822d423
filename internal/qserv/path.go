package qserv

import (
	"context"
	"fmt"
	"strings"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/shard"
	"github.com/pbitree/pbitree/pbicode"
)

// This file evaluates descendant-axis path expressions (//a//b//c) against
// stored relations: each step is one containment join between the previous
// step's match set and the next tag's stored element set, exactly the
// paper's decomposition of structural queries into containment-join
// chains. Intermediate match sets are unsorted and unindexed — the case
// the partitioning algorithms exist for — so each step goes through the
// engine's normal Auto selection.
//
// The child axis (/) and equality predicates ([t="v"]) need the source
// document's structure and text, which a stored database does not retain;
// those are rejected at validation with a pointer to pbiquery.

// CanonicalPath parses and validates a path expression for serving and
// returns its canonical form (the cache key component) and the step tags.
// Exported so internal/router normalizes and validates path queries
// identically to the nodes it fronts.
func CanonicalPath(expr string) (string, []string, error) {
	steps, err := containment.ParsePath(expr)
	if err != nil {
		return "", nil, err
	}
	tags := make([]string, len(steps))
	var sb strings.Builder
	for i, st := range steps {
		if !st.Descendant {
			return "", nil, fmt.Errorf("child axis (/%s) needs the source document; only // steps can be served from stored relations (use pbiquery for the full language)", st.Tag)
		}
		if st.PredChild != "" {
			return "", nil, fmt.Errorf("predicates ([%s=...]) need document text; only bare // steps can be served from stored relations", st.PredChild)
		}
		tags[i] = st.Tag
		sb.WriteString("//")
		sb.WriteString(st.Tag)
	}
	return sb.String(), tags, nil
}

// PathStep reports one join step of a path evaluation (the /query steps
// block): one type for solo, sharded and routed serving.
type PathStep = shard.PathStep

// evalPath runs the join chain for tags on one solo worker. It returns
// the final match set in document order plus per-step join reports. Each
// step runs under Engine.AnalyzeContext, so callers get the per-phase
// breakdown for telemetry alongside the ordinary result, and the chain
// aborts as soon as ctx is canceled (the failed step's temps are released
// by the caller's releaseTemp). Sharded serving runs the same chain per
// shard instead (shard.Engine.PathContext via shardWorker.evalPath).
func (wk *soloWorker) evalPath(ctx context.Context, tags []string) ([]pbicode.Code, []PathStep, []*containment.Analysis, error) {
	first, ok := wk.relation(tags[0])
	if !ok {
		return nil, nil, nil, &unknownRelationError{tags[0]}
	}
	if len(tags) == 1 {
		codes, err := first.Codes()
		return codes, nil, nil, err
	}

	var steps []PathStep
	var analyses []*containment.Analysis
	// anc is the stored first relation for step 1, then a temporary
	// relation loaded from the previous match set.
	anc := first
	temp := false
	var matched containment.Matches
	for i := 1; i < len(tags); i++ {
		desc, ok := wk.relation(tags[i])
		if !ok {
			return nil, nil, nil, &unknownRelationError{tags[i]}
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		matched.Reset() // its previous content is loaded into anc by now
		an, err := wk.eng.AnalyzeContext(ctx, anc, desc, containment.JoinOptions{Emit: matched.Emit})
		if temp {
			if ferr := wk.eng.Free(anc); ferr != nil && err == nil {
				err = ferr
			}
		}
		if err != nil {
			return nil, nil, nil, err
		}
		cur := matched.Distinct()
		analyses = append(analyses, an)
		steps = append(steps, PathStep{
			Anc: tags[i-1], Desc: tags[i],
			Algorithm: an.Result.Algorithm, Matches: int64(len(cur)),
		})
		if i == len(tags)-1 {
			return cur, steps, analyses, nil
		}
		anc, err = wk.eng.Load("q.path.anc", cur)
		if err != nil {
			return nil, nil, nil, err
		}
		temp = true
	}
	panic("unreachable")
}

// unknownRelationError distinguishes "no such relation" (a 404) from
// execution failures (500s).
type unknownRelationError struct{ name string }

func (e *unknownRelationError) Error() string {
	return fmt.Sprintf("no stored relation for tag %q", e.name)
}
