package containment

import (
	"fmt"

	"github.com/pbitree/pbitree/internal/core"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// QueryPath evaluates the descendant-axis path //tags[0]//tags[1]//…
// over doc and returns the codes of the final tag's elements that have a
// matching ancestor chain, in document order. This is the paper's
// decomposition of structural queries into a series of containment joins
// (section 1, citing Li & Moon), exploiting the property §3.1 highlights:
// the stack-tree join can emit results in descendant order, which is
// "favorable for further containment joins" — so the whole chain runs as
// pipelined stack-tree merges with no sorting anywhere:
//
//   - tag code sets from a document are already in document order;
//   - each step's output is consumed in descendant order, deduplicated on
//     the fly (duplicates are adjacent in a d-sorted stream), and becomes
//     the next step's pre-sorted ancestor input;
//   - intermediate results live in spooled relations, not in memory.
func (e *Engine) QueryPath(doc *xmltree.Document, tags ...string) ([]pbicode.Code, error) {
	if len(tags) == 0 {
		return nil, fmt.Errorf("containment: empty path")
	}
	if e.cfg.TreeHeight < doc.Height {
		e.cfg.TreeHeight = doc.Height
	}
	ctx := e.coreContext()

	cur, err := relation.FromCodes(e.pool, "path.0."+tags[0], doc.Codes(tags[0]))
	if err != nil {
		return nil, err
	}
	for step := 1; step < len(tags); step++ {
		if cur.NumRecords() == 0 {
			return nil, nil
		}
		d, err := relation.FromCodes(e.pool, fmt.Sprintf("path.%d.%s", step, tags[step]), doc.Codes(tags[step]))
		if err != nil {
			return nil, err
		}
		next := relation.New(e.pool, fmt.Sprintf("path.%d.out", step))
		app := next.NewAppender()
		var last pbicode.Code
		sink := sinkFunc(func(a, dr relation.Rec) error {
			// Descendant-ordered emission: duplicates (several matching
			// ancestors) arrive adjacently.
			if dr.Code == last {
				return nil
			}
			last = dr.Code
			return app.Append(relation.Rec{Code: dr.Code})
		})
		// Both inputs are in document order: the pure merge applies.
		if err := core.StackTree(ctx, cur, d, sink); err != nil {
			app.Close() //nolint:errcheck // first error wins
			return nil, err
		}
		if err := app.Close(); err != nil {
			return nil, err
		}
		if err := cur.Free(); err != nil {
			return nil, err
		}
		if err := d.Free(); err != nil {
			return nil, err
		}
		cur = next
	}
	recs, err := cur.ReadAll()
	if err != nil {
		return nil, err
	}
	if err := cur.Free(); err != nil {
		return nil, err
	}
	out := make([]pbicode.Code, len(recs))
	for i, r := range recs {
		out[i] = r.Code
	}
	return out, nil
}

// CountPath returns the number of elements QueryPath would return.
func (e *Engine) CountPath(doc *xmltree.Document, tags ...string) (int64, error) {
	codes, err := e.QueryPath(doc, tags...)
	if err != nil {
		return 0, err
	}
	return int64(len(codes)), nil
}

// sinkFunc adapts a function to core.Sink.
type sinkFunc func(a, d relation.Rec) error

// Emit implements core.Sink.
func (f sinkFunc) Emit(a, d relation.Rec) error { return f(a, d) }
