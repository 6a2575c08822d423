// Package trace is a lightweight phase recorder for join executions: a
// tree of spans, each carrying wall time plus deltas of the engine's
// physical counters (page I/O, virtual disk time, buffer-pool hits and
// misses, pairs emitted). It is the substrate of EXPLAIN ANALYZE
// (containment.Engine.Analyze) and of the per-phase serving telemetry
// (internal/qserv's /metrics), attributing cost to the phases the paper's
// section 3.4 cost model reasons about — sort runs and merge passes,
// partition scans, per-partition equijoins, VPJ replication levels.
//
// The package has no dependencies beyond the standard library. Counter
// snapshots come from a caller-supplied closure, so the recorder never
// imports the storage or buffer layers.
//
// Recording is strictly opt-in and free when off: every method is safe on
// a nil *Recorder and returns immediately, so instrumented hot paths pay
// one nil check per phase boundary and allocate nothing — the engine's
// benchmarks run with a nil recorder.
package trace

import "time"

// Counters is a snapshot of the engine's cumulative physical counters. A
// span stores the difference of two snapshots.
type Counters struct {
	// Reads / Writes are page I/O counts; SeqReads / SeqWrites the
	// sequential subsets.
	Reads, Writes       int64
	SeqReads, SeqWrites int64
	// VirtualIO is the virtual disk clock's charge.
	VirtualIO time.Duration
	// PoolHits / PoolMisses / PoolEvictions are buffer-pool counters.
	PoolHits, PoolMisses, PoolEvictions int64
	// Pairs is the number of join result pairs emitted.
	Pairs int64
}

// Sub returns c - o, the delta between two snapshots.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Reads:         c.Reads - o.Reads,
		Writes:        c.Writes - o.Writes,
		SeqReads:      c.SeqReads - o.SeqReads,
		SeqWrites:     c.SeqWrites - o.SeqWrites,
		VirtualIO:     c.VirtualIO - o.VirtualIO,
		PoolHits:      c.PoolHits - o.PoolHits,
		PoolMisses:    c.PoolMisses - o.PoolMisses,
		PoolEvictions: c.PoolEvictions - o.PoolEvictions,
		Pairs:         c.Pairs - o.Pairs,
	}
}

// Add returns c + o.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Reads:         c.Reads + o.Reads,
		Writes:        c.Writes + o.Writes,
		SeqReads:      c.SeqReads + o.SeqReads,
		SeqWrites:     c.SeqWrites + o.SeqWrites,
		VirtualIO:     c.VirtualIO + o.VirtualIO,
		PoolHits:      c.PoolHits + o.PoolHits,
		PoolMisses:    c.PoolMisses + o.PoolMisses,
		PoolEvictions: c.PoolEvictions + o.PoolEvictions,
		Pairs:         c.Pairs + o.Pairs,
	}
}

// Pages returns the span's total page I/O (reads + writes).
func (c Counters) Pages() int64 { return c.Reads + c.Writes }

// Span is one recorded phase. Total is inclusive of child spans; Self
// subtracts them, so summing Self over a whole tree equals the root's
// Total (cost is attributed exactly once).
type Span struct {
	// Name is the phase name — a small stable vocabulary ("partition",
	// "sort-runs", "hash-join", ...) suitable as a metric label.
	Name string
	// Detail annotates the instance (e.g. "h=5", "l=3 k=8"); free-form,
	// never used as a metric label.
	Detail string
	// Wall is the measured host time, inclusive of children.
	Wall time.Duration
	// Total is the counter delta across the span, inclusive of children.
	Total Counters
	// Children are the nested phases, in execution order.
	Children []*Span

	start time.Time
	begin Counters
}

// Self returns the span's counters minus its children's — the cost
// attributable to this phase alone.
func (s *Span) Self() Counters {
	out := s.Total
	for _, c := range s.Children {
		out = out.Sub(c.Total)
	}
	return out
}

// SelfWall returns the wall time net of child spans.
func (s *Span) SelfWall() time.Duration {
	w := s.Wall
	for _, c := range s.Children {
		w -= c.Wall
	}
	if w < 0 {
		w = 0
	}
	return w
}

// Walk visits the span and its descendants in pre-order, passing the
// nesting depth (0 for the receiver). It allocates nothing.
func (s *Span) Walk(fn func(sp *Span, depth int)) { s.walk(fn, 0) }

func (s *Span) walk(fn func(sp *Span, depth int), depth int) {
	fn(s, depth)
	for _, c := range s.Children {
		c.walk(fn, depth+1)
	}
}

// Merge assembles a parent span over independently recorded children —
// the shape of a scatter-gather execution, where each shard records its
// own tree and the coordinator wants one tree whose root brackets the
// whole fan-out. The parent's Total is the sum of the children's (so the
// self-attribution invariant holds: the coordinator itself did no page
// I/O), and its Wall is the caller-measured envelope, NOT the sum — the
// children ran concurrently, so their wall times overlap.
func Merge(name, detail string, wall time.Duration, children ...*Span) *Span {
	root := &Span{Name: name, Detail: detail, Wall: wall}
	for _, c := range children {
		if c == nil {
			continue
		}
		root.Children = append(root.Children, c)
		root.Total = root.Total.Add(c.Total)
	}
	return root
}

// Recorder accumulates a span tree for one join execution. It is
// single-threaded, like the engine it instruments. The zero of the type is
// not used; a nil *Recorder is the disabled state and every method on it
// is a no-op.
type Recorder struct {
	snap func() Counters
	root *Span
	open []*Span // innermost last; open[0] == root
}

// New opens a recorder whose root span is named name. snap must return the
// current cumulative counters; it is called once per span boundary.
func New(name string, snap func() Counters) *Recorder {
	r := &Recorder{snap: snap}
	root := &Span{Name: name, start: time.Now(), begin: snap()}
	r.root = root
	r.open = []*Span{root}
	return r
}

// Start opens a phase span nested under the innermost open span and
// returns it. On a nil recorder it returns nil (and End(nil) is a no-op),
// so instrumented code needs no enabled-check of its own.
func (r *Recorder) Start(name string) *Span {
	return r.StartDetail(name, "")
}

// StartDetail is Start with an instance annotation.
func (r *Recorder) StartDetail(name, detail string) *Span {
	if r == nil {
		return nil
	}
	sp := &Span{Name: name, Detail: detail, start: time.Now(), begin: r.snap()}
	parent := r.open[len(r.open)-1]
	parent.Children = append(parent.Children, sp)
	r.open = append(r.open, sp)
	return sp
}

// End closes sp, fixing its wall time and counter delta. Spans must close
// innermost-first; if an inner span was left open (error paths), it is
// closed with the same snapshot.
func (r *Recorder) End(sp *Span) {
	if r == nil || sp == nil {
		return
	}
	now := time.Now()
	c := r.snap()
	for len(r.open) > 1 {
		top := r.open[len(r.open)-1]
		r.open = r.open[:len(r.open)-1]
		top.Wall = now.Sub(top.start)
		top.Total = c.Sub(top.begin)
		if top == sp {
			return
		}
	}
}

// Finish closes every open span including the root and returns the root.
// The recorder must not be used afterwards.
func (r *Recorder) Finish() *Span {
	if r == nil {
		return nil
	}
	now := time.Now()
	c := r.snap()
	for len(r.open) > 0 {
		top := r.open[len(r.open)-1]
		r.open = r.open[:len(r.open)-1]
		top.Wall = now.Sub(top.start)
		top.Total = c.Sub(top.begin)
	}
	return r.root
}
