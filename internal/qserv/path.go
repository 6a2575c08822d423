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
// chains. Each step goes through the engine's normal Auto selection.
// Relations stored in document order, and every intermediate match set,
// which is loaded in it, are sorted inputs, so such steps take Table 1's
// sorted row, the stack-tree merge, whose output order §3.1 calls
// "favorable for further containment joins": it hands each step its
// matches once, in order.
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

// evalPath runs the join chain for tags on one solo worker: every tag is
// resolved first, so an unknown one is a 404 before any join runs, then
// containment.Engine.Chain evaluates the chain, one AnalyzeContext per
// step. It returns the final match set in document order, one PathStep
// per join (len(tags)-1 of them), and the steps' analyses in chain order
// — partial ones too when the chain fails, for the caller's trace. The
// failed step's temps are released by the caller's releaseTemp. Sharded
// serving runs the same chain per shard (shardWorker.evalPath).
func (wk *soloWorker) evalPath(ctx context.Context, tags []string) ([]pbicode.Code, []PathStep, []*containment.Analysis, error) {
	rels := make([]*containment.Relation, len(tags))
	for i, tag := range tags {
		r, ok := wk.relation(tag)
		if !ok {
			return nil, nil, nil, &unknownRelationError{tag}
		}
		rels[i] = r
	}
	chain := make([]containment.ChainStep, len(tags)-1)
	for i := range chain {
		chain[i].Desc = rels[i+1]
	}
	codes, reps, err := wk.eng.Chain(ctx, rels[0], chain)
	steps, analyses := shard.PathSteps(tags, reps)
	return codes, steps, analyses, err
}

// unknownRelationError distinguishes "no such relation" (a 404) from
// execution failures (500s).
type unknownRelationError struct{ name string }

func (e *unknownRelationError) Error() string {
	return fmt.Sprintf("no stored relation for tag %q", e.name)
}
