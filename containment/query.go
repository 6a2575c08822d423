package containment

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// This file adds a small path-expression front end over the join engine:
// the descendant and child axes with optional equality predicates — the
// query shapes the paper's introduction uses to motivate containment
// joins (e.g. //Section[Title="Introduction"]//Figure). Full query-to-plan
// translation is out of the paper's scope (§1); this subset makes the
// engine usable without hand-assembling joins.
//
// Grammar:
//
//	expr      = step { step } .
//	step      = ("//" | "/") tag [ predicate ] .
//	predicate = "[" childTag "=" value "]"    (value optionally quoted)
//
// A leading "//" selects elements anywhere; a leading "/" selects the root
// (if its tag matches). "//" between steps is the containment join, "/"
// the parent-child join.

// Step is one parsed path step.
type Step struct {
	// Descendant is true for the // axis, false for /.
	Descendant bool
	// Tag is the element tag to match.
	Tag string
	// PredChild / PredValue express [PredChild="PredValue"]; empty when
	// absent.
	PredChild, PredValue string
}

// ParsePath parses a path expression.
func ParsePath(expr string) ([]Step, error) {
	s := strings.TrimSpace(expr)
	if s == "" {
		return nil, fmt.Errorf("containment: empty path expression")
	}
	var steps []Step
	for len(s) > 0 {
		var desc bool
		switch {
		case strings.HasPrefix(s, "//"):
			desc = true
			s = s[2:]
		case strings.HasPrefix(s, "/"):
			s = s[1:]
		default:
			return nil, fmt.Errorf("containment: step %d must start with / or //", len(steps)+1)
		}
		// Tag runs to the next '/', '[' or end.
		end := len(s)
		if i := strings.IndexAny(s, "/["); i >= 0 {
			end = i
		}
		tag := s[:end]
		if tag == "" {
			return nil, fmt.Errorf("containment: missing tag in step %d", len(steps)+1)
		}
		s = s[end:]
		step := Step{Descendant: desc, Tag: tag}
		if strings.HasPrefix(s, "[") {
			close := strings.IndexByte(s, ']')
			if close < 0 {
				return nil, fmt.Errorf("containment: unclosed predicate in step %d", len(steps)+1)
			}
			pred := s[1:close]
			s = s[close+1:]
			child, value, ok := strings.Cut(pred, "=")
			if !ok || strings.TrimSpace(child) == "" {
				return nil, fmt.Errorf("containment: predicate %q wants childTag=value", pred)
			}
			value = strings.TrimSpace(value)
			value = strings.Trim(value, `"'`)
			step.PredChild = strings.TrimSpace(child)
			step.PredValue = value
		}
		steps = append(steps, step)
	}
	return steps, nil
}

// SortDocOrder orders codes as a document traversal would: by region
// start, ancestors before their descendants. Every coordinator that merges
// per-partition match sets (a path step here, internal/shard, the network
// merge of internal/router) produces this one canonical order.
func SortDocOrder(codes []pbicode.Code) {
	slices.SortFunc(codes, func(x, y pbicode.Code) int {
		if c := cmp.Compare(x.Start(), y.Start()); c != 0 {
			return c
		}
		return cmp.Compare(y.Height(), x.Height())
	})
}

// matches collects the descendant side of one path step's join pairs and
// yields the distinct matched elements in document order — the step's
// output, and the next step's ancestor set. Chain passes Emit as each
// step's JoinOptions.Emit. One collector serves every chain an engine runs
// (Engine.matched), Reset before each step, so a warm chain's steps append
// into a buffer that no longer grows. Like the stack-tree-anc arena, a
// buffer past b pages' worth of records is dropped when its chain ends
// (release), so an engine keeps at most that much between chains.
//
// There is no hash set: a descendant with several matching ancestors is
// emitted once per ancestor, so duplicates are dropped by sorting. Most
// never get that far — the hash-probe joins emit a descendant's pairs back
// to back, which Emit collapses as they arrive.
type matches struct {
	codes []pbicode.Code
	// emit is Emit bound once, for JoinOptions.Emit. It points back at the
	// collector, which is why that is an object of its own: an Engine that
	// reached itself could never be finalized, and the serving tests watch
	// retired engines get collected through their finalizers.
	emit func(Pair) error
}

// newMatches returns an empty collector.
func newMatches() *matches {
	m := &matches{}
	m.emit = m.Emit
	return m
}

// Emit records p's descendant.
func (m *matches) Emit(p Pair) error {
	if n := len(m.codes); n == 0 || m.codes[n-1] != p.D {
		m.codes = append(m.codes, p.D)
	}
	return nil
}

// Distinct returns the distinct recorded descendants in document order.
// The slice is the collector's own buffer: valid until the next Reset.
func (m *matches) Distinct() []pbicode.Code {
	SortDocOrder(m.codes)
	m.codes = slices.Compact(m.codes)
	return m.codes
}

// Reset empties the collector for the next step, keeping its buffer.
func (m *matches) Reset() { m.codes = m.codes[:0] }

// release ends a chain: it drops a buffer larger than maxKeep codes.
func (m *matches) release(maxKeep int) {
	if cap(m.codes) > maxKeep {
		m.codes = nil
	}
}

// ChainStep is one step of a containment-join chain: the join of the
// previous step's distinct matches (the anchor, for the first step) with
// Desc.
type ChainStep struct {
	// Desc is the step's candidate descendants. Nil means none — a shard
	// that holds no element of the tag — so the step matches nothing.
	Desc *Relation
	// Filter restricts the step's pairs (JoinOptions.Filter): nil for the
	// // axis, ParentChild(doc) for /.
	Filter func(Pair) bool
}

// StepReport is one chain step's outcome.
type StepReport struct {
	// Analysis is the step's EXPLAIN ANALYZE: partial when the step
	// failed, nil when the chain ended before the step ran.
	Analysis *Analysis
	// Matches counts the step's distinct matched descendants.
	Matches int64
}

// Chain evaluates anchor//steps[0]//steps[1]//... — the paper's
// decomposition of a structural query into a chain of containment joins
// (§1) — and returns the final step's distinct matches in document order
// plus one report per step. It is the one path evaluator: pbiquery's
// QueryContext, qserv's solo worker and the sharded engine's per-shard
// chains all call it, so they share its rules:
//
//   - the caller resolves every relation before the chain runs;
//   - each step is one AnalyzeContext under Auto selection, whose
//     ancestor set is the previous step's matches loaded as a temporary
//     relation and freed after its join;
//   - an empty set (or a nil anchor or Desc) ends the chain, and the
//     steps after it report Matches 0 with a nil Analysis;
//   - on error the reports made so far come back, the failed step's
//     partial Analysis included. Cancellation is noticed by the join at
//     its next page request, so that Analysis is annotated "canceled" or
//     "canceled (deadline)".
//
// With no steps the result is the anchor's own codes. The anchor and the
// step relations stay the caller's to free. The returned codes are the
// caller's: a slice of their own, which no later call of the engine
// touches.
func (e *Engine) Chain(ctx context.Context, anchor *Relation, steps []ChainStep) ([]pbicode.Code, []StepReport, error) {
	reps := make([]StepReport, len(steps))
	if anchor == nil {
		return nil, reps, nil
	}
	if len(steps) == 0 {
		codes, err := anchor.Codes()
		SortDocOrder(codes)
		return codes, reps, err
	}
	if e.matched == nil {
		e.matched = newMatches()
	}
	matched := e.matched
	defer matched.release(e.pool.Size() * relation.PerPage(e.pool.PageSize()))
	var cur []pbicode.Code
	anc, n := anchor, anchor.Len()
	for i, st := range steps {
		if n == 0 || st.Desc == nil {
			return nil, reps, nil
		}
		if anc == nil {
			var err error
			if anc, err = e.Load("q.path.anc", cur); err != nil {
				return nil, reps[:i], err
			}
		}
		matched.Reset() // cur, its previous content, is loaded into anc by now
		an, err := e.AnalyzeContext(ctx, anc, st.Desc, JoinOptions{Emit: matched.emit, Filter: st.Filter})
		if anc != anchor {
			// An aborted join has already released temp state; freeing
			// again is a harmless no-op.
			if ferr := e.Free(anc); ferr != nil && err == nil {
				err = ferr
			}
		}
		anc = nil
		cur = matched.Distinct()
		n = int64(len(cur))
		reps[i] = StepReport{Analysis: an, Matches: n}
		if err != nil {
			return nil, reps[:i+1], err
		}
	}
	out := make([]pbicode.Code, len(cur))
	copy(out, cur)
	return out, reps, nil
}

// Query evaluates a path expression over doc and returns the codes of the
// final step's elements in document order. Each descendant step runs a
// containment join; each child step the same join with the parent-child
// filter; predicates restrict the step's candidate set before joining.
func (e *Engine) Query(doc *xmltree.Document, expr string) ([]pbicode.Code, error) {
	return e.QueryContext(context.Background(), doc, expr)
}

// QueryContext is Query with cooperative cancellation: it loads every
// step's candidates from doc and runs them through Chain under ctx, so a
// multi-join path aborts promptly. Classify the error to distinguish
// cancellation from faults.
func (e *Engine) QueryContext(ctx context.Context, doc *xmltree.Document, expr string) (codes []pbicode.Code, err error) {
	steps, err := ParsePath(expr)
	if err != nil {
		return nil, err
	}
	rels := make([]*Relation, 0, len(steps))
	defer func() {
		for _, r := range rels {
			if ferr := e.Free(r); ferr != nil && err == nil {
				codes, err = nil, ferr
			}
		}
	}()
	chain := make([]ChainStep, len(steps)-1)
	for i, st := range steps {
		cands := doc.Codes(st.Tag)
		if st.PredChild != "" {
			cands = doc.CodesWhere(st.Tag, func(el *xmltree.Element) bool {
				for _, c := range el.Children {
					if c.Tag == st.PredChild && c.Text == st.PredValue {
						return true
					}
				}
				return false
			})
		}
		if i == 0 && !st.Descendant {
			// A leading / anchors the chain at the document root.
			cands = slices.DeleteFunc(slices.Clone(cands), func(c pbicode.Code) bool { return c != doc.Root.Code })
		}
		r, err := e.Load(fmt.Sprintf("q.%d", i), cands)
		if err != nil {
			return nil, err
		}
		rels = append(rels, r)
		if i > 0 {
			chain[i-1] = ChainStep{Desc: r}
			if !st.Descendant {
				chain[i-1].Filter = ParentChild(doc)
			}
		}
	}
	codes, _, err = e.Chain(ctx, rels[0], chain)
	return codes, err
}
