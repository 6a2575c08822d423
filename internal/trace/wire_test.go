package trace

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleTree() *Span {
	return &Span{
		Name:   "join",
		Detail: "mpmgjn",
		Wall:   5 * time.Millisecond,
		Total: Counters{
			Reads: 120, Writes: 30, SeqReads: 100, SeqWrites: 28,
			VirtualIO: 900 * time.Microsecond,
			PoolHits:  400, PoolMisses: 150, PoolEvictions: 22,
			Pairs: 7700,
		},
		Children: []*Span{
			{
				Name: "sort", Detail: "runs=4",
				Wall: 2 * time.Millisecond,
				Total: Counters{
					Reads: 60, Writes: 30, SeqReads: 55, SeqWrites: 28,
					VirtualIO: 500 * time.Microsecond,
					PoolHits:  100, PoolMisses: 60, PoolEvictions: 22,
				},
				Children: []*Span{
					{
						Name: "merge-pass", Detail: "k=4",
						Wall: 800 * time.Microsecond,
						Total: Counters{
							Reads: 20, Writes: 10,
							VirtualIO: 200 * time.Microsecond,
							PoolHits:  40, PoolMisses: 20,
						},
					},
				},
			},
			{
				Name: "merge-join",
				Wall: 3 * time.Millisecond,
				Total: Counters{
					Reads: 60, SeqReads: 45,
					VirtualIO: 400 * time.Microsecond,
					PoolHits:  300, PoolMisses: 90,
					Pairs: 7700,
				},
			},
		},
	}
}

// The satellite requirement: a serialized span tree re-parses with counter
// deltas intact. Round-trip Span → WireSpan → JSON → WireSpan → Span and
// require exact equality of names, details, wall times, and every counter
// at every depth.
func TestWireRoundTrip(t *testing.T) {
	orig := sampleTree()
	buf, err := json.Marshal(ToWire(orig))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back WireSpan
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	got := back.Span()
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round trip mutated the tree:\norig %+v\ngot  %+v", orig, got)
	}
	// Self-attribution must survive the trip: Σ Self == root Total.
	var sum Counters
	got.Walk(func(sp *Span, _ int) { sum = sum.Add(sp.Self()) })
	if sum != orig.Total {
		t.Fatalf("self sums to %+v, want root total %+v", sum, orig.Total)
	}
}

func TestWireNil(t *testing.T) {
	if ToWire(nil) != nil {
		t.Fatal("ToWire(nil) != nil")
	}
	var w *WireSpan
	if w.Span() != nil {
		t.Fatal("(*WireSpan)(nil).Span() != nil")
	}
}

func TestStitchWire(t *testing.T) {
	a := ToWire(sampleTree())
	a.Detail = "shard=0"
	a.PredictedIO = 100
	b := ToWire(sampleTree())
	b.Detail = "shard=1"
	b.PredictedIO = 40
	root := StitchWire("join", "routed n=2", 9*time.Millisecond, a, nil, b)
	if len(root.Children) != 2 {
		t.Fatalf("children = %d, want 2 (nil skipped)", len(root.Children))
	}
	if root.WallNS != (9 * time.Millisecond).Nanoseconds() {
		t.Fatalf("wall = %d, want envelope", root.WallNS)
	}
	if want := a.Reads + b.Reads; root.Reads != want {
		t.Fatalf("reads = %d, want %d", root.Reads, want)
	}
	if root.PredictedIO != 140 {
		t.Fatalf("predicted = %d, want 140", root.PredictedIO)
	}
	if want := a.Pairs + b.Pairs; root.Pairs != want {
		t.Fatalf("pairs = %d, want %d", root.Pairs, want)
	}
	// Envelope wall < sum of children here, so self clamps at zero.
	if root.SelfWallNS() != 0 {
		t.Fatalf("self wall = %d, want 0 (clamped)", root.SelfWallNS())
	}
}

func TestRecordRender(t *testing.T) {
	ws := ToWire(sampleTree())
	ws.PredictedIO = 100
	ws.Children[0].Node = "http://n0"
	rec := &Record{TraceID: "abc123", Query: "/join?anc=a&desc=b", Spans: []*WireSpan{ws}}
	var sb strings.Builder
	rec.Render(&sb)
	out := sb.String()
	for _, want := range []string{"abc123", "join [mpmgjn]", "sort [runs=4]", "@http://n0", "1.50x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// stored is an Entry that is an already rendered Record.
type stored Record

func (r *stored) ID() string      { return r.TraceID }
func (r *stored) Record() *Record { return (*Record)(r) }

func TestStoreEvictsOldest(t *testing.T) {
	s := NewStore(3)
	for i := 0; i < 5; i++ {
		s.Put(&stored{TraceID: fmt.Sprintf("t%d", i)})
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	for i := 0; i < 2; i++ {
		if s.Get(fmt.Sprintf("t%d", i)) != nil {
			t.Fatalf("t%d should have been evicted", i)
		}
	}
	for i := 2; i < 5; i++ {
		if s.Get(fmt.Sprintf("t%d", i)) == nil {
			t.Fatalf("t%d missing", i)
		}
	}
	// Replacing an existing ID must not consume a slot.
	s.Put(&stored{TraceID: "t4", Query: "updated"})
	if s.Len() != 3 {
		t.Fatalf("len after replace = %d, want 3", s.Len())
	}
	if got := s.Get("t4"); got == nil || got.Query != "updated" {
		t.Fatalf("replace failed: %+v", got)
	}
}

func TestStoreDisabledAndNil(t *testing.T) {
	var nilStore *Store
	nilStore.Put(&stored{TraceID: "x"})
	if nilStore.Get("x") != nil || nilStore.Len() != 0 {
		t.Fatal("nil store must be inert")
	}
	off := NewStore(0)
	off.Put(&stored{TraceID: "x"})
	if off.Get("x") != nil || off.Len() != 0 {
		t.Fatal("capacity<=0 store must be inert")
	}
	s := NewStore(4)
	s.Put(nil)
	s.Put(&stored{})
	if s.Len() != 0 {
		t.Fatal("nil/ID-less records must be dropped")
	}
}
