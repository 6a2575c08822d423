package containment

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

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

// Matches collects the descendant side of one path step's join pairs and
// yields the distinct matched elements in document order — the step's
// output, and the next step's ancestor set. Every path evaluator (Query
// here, the solo and sharded chains of internal/qserv and internal/shard)
// passes Emit as the step's JoinOptions.Emit. One Matches serves all the
// steps of an evaluation, Reset in between, so the steps share one buffer.
//
// There is no hash set: a descendant with several matching ancestors is
// emitted once per ancestor, so duplicates are dropped by sorting. Most
// never get that far — the hash-probe joins emit a descendant's pairs back
// to back, which Emit collapses as they arrive.
type Matches struct{ codes []pbicode.Code }

// Emit records p's descendant.
func (m *Matches) Emit(p Pair) error {
	if n := len(m.codes); n == 0 || m.codes[n-1] != p.D {
		m.codes = append(m.codes, p.D)
	}
	return nil
}

// Distinct returns the distinct recorded descendants in document order.
// The slice is the collector's own buffer: valid until the next Reset.
func (m *Matches) Distinct() []pbicode.Code {
	SortDocOrder(m.codes)
	m.codes = slices.Compact(m.codes)
	return m.codes
}

// Reset empties the collector for the next step, keeping its buffer.
func (m *Matches) Reset() { m.codes = m.codes[:0] }

// Query evaluates a path expression over doc and returns the codes of the
// final step's elements in document order. Each descendant step runs a
// containment join; each child step the same join with the parent-child
// filter; predicates restrict the step's candidate set before joining.
func (e *Engine) Query(doc *xmltree.Document, expr string) ([]pbicode.Code, error) {
	return e.QueryContext(context.Background(), doc, expr)
}

// QueryContext is Query with cooperative cancellation: each step's join
// runs under ctx (see JoinContext), and ctx is also checked between
// steps, so a multi-join path aborts promptly. Classify the error to
// distinguish cancellation from faults.
func (e *Engine) QueryContext(ctx context.Context, doc *xmltree.Document, expr string) ([]pbicode.Code, error) {
	steps, err := ParsePath(expr)
	if err != nil {
		return nil, err
	}
	candidates := func(st Step) []pbicode.Code {
		if st.PredChild == "" {
			return doc.Codes(st.Tag)
		}
		return doc.CodesWhere(st.Tag, func(el *xmltree.Element) bool {
			for _, c := range el.Children {
				if c.Tag == st.PredChild && c.Text == st.PredValue {
					return true
				}
			}
			return false
		})
	}

	// First step anchors the chain.
	first := steps[0]
	var cur []pbicode.Code
	if first.Descendant {
		cur = candidates(first)
	} else if doc.Root.Tag == first.Tag {
		for _, c := range candidates(first) {
			if c == doc.Root.Code {
				cur = []pbicode.Code{c}
			}
		}
	}

	var matched Matches
	for _, st := range steps[1:] {
		if len(cur) == 0 {
			return nil, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a, err := e.Load("q.anc", cur)
		if err != nil {
			return nil, err
		}
		d, err := e.Load("q.desc", candidates(st))
		if err != nil {
			e.Free(a) //nolint:errcheck // cleanup after earlier error
			return nil, err
		}
		matched.Reset() // cur, its previous content, is loaded into a by now
		opts := JoinOptions{Emit: matched.Emit}
		if !st.Descendant {
			opts.Filter = ParentChild(doc)
		}
		if _, err := e.JoinContext(ctx, a, d, opts); err != nil {
			// The aborted join already released temp state (on read-only
			// engines that includes these freshly loaded inputs); freeing
			// them again is a harmless no-op.
			e.Free(a) //nolint:errcheck // cleanup after earlier error
			e.Free(d) //nolint:errcheck // cleanup after earlier error
			return nil, err
		}
		if err := e.Free(a); err != nil {
			return nil, err
		}
		if err := e.Free(d); err != nil {
			return nil, err
		}
		cur = matched.Distinct()
	}
	SortDocOrder(cur) // a single-step path never went through Distinct
	return cur, nil
}
