package containment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/pbitree/pbitree/internal/trace"
	"github.com/pbitree/pbitree/xmltree"
)

// This file implements EXPLAIN ANALYZE: Engine.Analyze runs a join under a
// phase recorder and returns the result together with the span tree, a
// flattened per-phase cost breakdown, and a rendered table that compares
// the actual page I/O against the section 3.4 cost model's prediction.

// Analysis is the outcome of Engine.Analyze: the join result plus its
// recorded phase tree.
type Analysis struct {
	// Result is the ordinary join result; Result.IO equals the root span's
	// inclusive counters.
	Result *Result
	// Phases is the pre-order flattening of the span tree with
	// self-attributed costs: summing any column over Phases yields the
	// root's inclusive value (each page access is attributed exactly once).
	Phases []PhaseIO

	root *trace.Span
}

// PhaseIO is one phase's self-attributed cost (net of child phases).
type PhaseIO struct {
	// Name is the phase name from the recorder's stable vocabulary
	// ("partition", "equijoin", "sort-runs", ...); Depth is the nesting
	// depth (0 = the root "join" span); Detail annotates the instance.
	Name   string
	Detail string
	Depth  int
	// Wall is host time net of child phases; VirtualIO the disk clock's
	// charge for this phase's own page accesses.
	Wall      time.Duration
	VirtualIO time.Duration
	// Reads / Writes are page I/O counts attributed to this phase alone.
	Reads, Writes int64
	// PoolHits / PoolMisses are buffer-pool counters for the phase.
	PoolHits, PoolMisses int64
	// Pairs emitted during this phase (net of child phases).
	Pairs int64
}

// Pages returns the phase's total page I/O.
func (p PhaseIO) Pages() int64 { return p.Reads + p.Writes }

// SpanNode is the JSON shape of one recorded span, inclusive of children
// (serving telemetry returns these from /debug/trace).
type SpanNode struct {
	Name      string      `json:"name"`
	Detail    string      `json:"detail,omitempty"`
	WallNS    int64       `json:"wall_ns"`
	VirtualNS int64       `json:"virtual_ns"`
	Reads     int64       `json:"reads"`
	Writes    int64       `json:"writes"`
	PoolHits  int64       `json:"pool_hits"`
	PoolMiss  int64       `json:"pool_misses"`
	Pairs     int64       `json:"pairs"`
	Children  []*SpanNode `json:"children,omitempty"`
}

// newAnalysis flattens the finished span tree into Phases, sized once.
func newAnalysis(res *Result, root *trace.Span) *Analysis {
	an := &Analysis{Result: res, root: root}
	if root == nil {
		return an
	}
	n := 0
	root.Walk(func(*trace.Span, int) { n++ })
	an.Phases = make([]PhaseIO, 0, n)
	root.Walk(func(sp *trace.Span, depth int) {
		self := sp.Self()
		an.Phases = append(an.Phases, PhaseIO{
			Name:       sp.Name,
			Detail:     sp.Detail,
			Depth:      depth,
			Wall:       sp.SelfWall(),
			VirtualIO:  self.VirtualIO,
			Reads:      self.Reads,
			Writes:     self.Writes,
			PoolHits:   self.PoolHits,
			PoolMisses: self.PoolMisses,
			Pairs:      self.Pairs,
		})
	})
	return an
}

// SpanTree returns the recorded span tree in its JSON shape (inclusive
// counters, nested children), or nil when nothing was recorded.
func (an *Analysis) SpanTree() *SpanNode {
	return spanNode(an.root)
}

// Root returns the recorded root span, or nil when nothing was recorded.
// The sharded engine (internal/shard) collects per-shard roots through
// this and reassembles them under one parent with trace.Merge.
func (an *Analysis) Root() *trace.Span { return an.root }

// NewAnalysis assembles an Analysis from a result and an externally built
// span tree — the constructor fan-out engines use after merging per-shard
// executions into one result and one parent span. Phases are flattened
// from root exactly as Engine.Analyze would.
func NewAnalysis(res *Result, root *trace.Span) *Analysis {
	return newAnalysis(res, root)
}

// Wire returns the recorded span tree in the distributed-trace wire shape
// (trace.WireSpan), with the section 3.4 cost model's prediction stamped
// on the root so trace consumers can compute actual-vs-predicted ratios
// per join without a second lookup. Nil when nothing was recorded.
func (an *Analysis) Wire() *trace.WireSpan {
	w := trace.ToWire(an.root)
	if w != nil && an.Result != nil {
		w.PredictedIO = an.Result.PredictedIO
	}
	return w
}

// IORatio returns the join's actual page I/O divided by the cost model's
// prediction — the calibration signal the telemetry sidecar persists. Zero
// when no prediction exists.
func (an *Analysis) IORatio() float64 {
	if an.Result == nil || an.Result.PredictedIO <= 0 {
		return 0
	}
	return float64(an.Result.IO.Total()) / float64(an.Result.PredictedIO)
}

func spanNode(sp *trace.Span) *SpanNode {
	if sp == nil {
		return nil
	}
	n := &SpanNode{
		Name:      sp.Name,
		Detail:    sp.Detail,
		WallNS:    sp.Wall.Nanoseconds(),
		VirtualNS: sp.Total.VirtualIO.Nanoseconds(),
		Reads:     sp.Total.Reads,
		Writes:    sp.Total.Writes,
		PoolHits:  sp.Total.PoolHits,
		PoolMiss:  sp.Total.PoolMisses,
		Pairs:     sp.Total.Pairs,
	}
	for _, c := range sp.Children {
		n.Children = append(n.Children, spanNode(c))
	}
	return n
}

// Table renders the per-phase breakdown with wall-clock times included.
func (an *Analysis) Table() string { return an.Render(true) }

// Render renders the analysis as a fixed-width table: one row per phase
// (indented by nesting depth, costs self-attributed) plus a total row, and
// a header comparing the actual page I/O against the section 3.4 cost
// model's prediction. includeWall false omits the host-time column, leaving
// only deterministic quantities (virtual clock, page counts, pool
// counters) — golden tests rely on that.
func (an *Analysis) Render(includeWall bool) string {
	var b strings.Builder
	res := an.Result
	fmt.Fprintf(&b, "EXPLAIN ANALYZE  algorithm=%s  pairs=%d\n", res.Algorithm, res.Count)
	fmt.Fprintf(&b, "predicted I/O: %d pages   actual I/O: %d pages (%d reads + %d writes)\n",
		res.PredictedIO, res.IO.Total(), res.IO.Reads, res.IO.Writes)
	header := fmt.Sprintf("%-34s %8s %8s %8s %12s %9s %10s", "PHASE", "PAGES", "READS", "WRITES", "VIRT-IO", "POOL-HIT", "PAIRS")
	if includeWall {
		header += fmt.Sprintf(" %12s", "WALL")
	}
	b.WriteString(header)
	b.WriteByte('\n')
	var totPages, totReads, totWrites, totPairs int64
	var totVirt time.Duration
	for _, p := range an.Phases {
		label := strings.Repeat("  ", p.Depth) + p.Name
		if p.Detail != "" {
			label += " [" + p.Detail + "]"
		}
		if len(label) > 34 {
			label = label[:31] + "..."
		}
		row := fmt.Sprintf("%-34s %8d %8d %8d %12s %9s %10d",
			label, p.Pages(), p.Reads, p.Writes, p.VirtualIO, hitRate(p.PoolHits, p.PoolMisses), p.Pairs)
		if includeWall {
			row += fmt.Sprintf(" %12s", p.Wall.Round(time.Microsecond))
		}
		b.WriteString(row)
		b.WriteByte('\n')
		totPages += p.Pages()
		totReads += p.Reads
		totWrites += p.Writes
		totPairs += p.Pairs
		totVirt += p.VirtualIO
	}
	total := fmt.Sprintf("%-34s %8d %8d %8d %12s %9s %10d",
		"TOTAL", totPages, totReads, totWrites, totVirt, hitRate(res.IO.PoolHits, res.IO.PoolMisses), totPairs)
	if includeWall {
		total += fmt.Sprintf(" %12s", res.IO.WallTime.Round(time.Microsecond))
	}
	b.WriteString(total)
	b.WriteByte('\n')
	return b.String()
}

// hitRate formats a buffer-pool hit percentage, "-" when no requests.
func hitRate(hits, misses int64) string {
	if hits+misses == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
}

// Analyze evaluates a ◁ d exactly like Join, additionally recording each
// algorithm phase — EXPLAIN ANALYZE. The recording costs a counter
// snapshot per phase boundary; page I/O and the virtual clock are
// unaffected, so Result matches what Join would report.
func (e *Engine) Analyze(a, d *Relation, opts JoinOptions) (*Analysis, error) {
	res, root, err := e.join(context.Background(), a, d, opts, true)
	if err != nil {
		return nil, err
	}
	return newAnalysis(res, root), nil
}

// AnalyzeContext is Analyze with cooperative cancellation (see
// JoinContext). On error the returned Analysis is still non-nil when the
// join got as far as running: its Result holds partial counters and its
// span tree's root is annotated "canceled", "canceled (deadline)" or
// "error" — a partial EXPLAIN ANALYZE of the aborted execution.
func (e *Engine) AnalyzeContext(ctx context.Context, a, d *Relation, opts JoinOptions) (*Analysis, error) {
	res, root, err := e.join(ctx, a, d, opts, true)
	if err != nil {
		if res == nil {
			return nil, err
		}
		return newAnalysis(res, root), err
	}
	return newAnalysis(res, root), nil
}

// AnalyzeDoc is JoinDoc under Analyze: it loads the two tag sets of doc and
// analyzes the containment query //ancTag//descTag.
func (e *Engine) AnalyzeDoc(doc *xmltree.Document, ancTag, descTag string, opts JoinOptions) (*Analysis, error) {
	a, err := e.LoadDoc(doc, ancTag)
	if err != nil {
		return nil, err
	}
	d, err := e.LoadDoc(doc, descTag)
	if err != nil {
		return nil, err
	}
	return e.Analyze(a, d, opts)
}
