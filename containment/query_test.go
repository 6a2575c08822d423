package containment

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

const queryDoc = `<paper>
  <Section>
    <Title>Introduction</Title>
    <Figure>f1</Figure>
    <Sub><Figure>f2</Figure></Sub>
  </Section>
  <Section>
    <Title>Evaluation</Title>
    <Figure>f3</Figure>
  </Section>
  <Appendix><Figure>f4</Figure></Appendix>
</paper>`

func queryEngine(t *testing.T) (*Engine, *xmltree.Document) {
	t.Helper()
	doc, err := xmltree.ParseString(queryDoc, xmltree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, doc
}

func TestQueryExpressions(t *testing.T) {
	e, doc := queryEngine(t)
	cases := []struct {
		expr string
		want []string // figure texts expected, in document order
	}{
		{`//Section//Figure`, []string{"f1", "f2", "f3"}},
		{`//Section/Figure`, []string{"f1", "f3"}},
		{`//Section[Title="Introduction"]//Figure`, []string{"f1", "f2"}},
		{`//Section[Title="Introduction"]/Figure`, []string{"f1"}},
		{`//Section[Title=Evaluation]//Figure`, []string{"f3"}},
		{`/paper//Figure`, []string{"f1", "f2", "f3", "f4"}},
		{`//Sub/Figure`, []string{"f2"}},
		{`//Appendix//Figure`, []string{"f4"}},
		{`//Section[Title="Nope"]//Figure`, nil},
		{`/wrongroot//Figure`, nil},
		{`//Figure`, []string{"f1", "f2", "f3", "f4"}},
	}
	for _, tc := range cases {
		codes, err := e.Query(doc, tc.expr)
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		var got []string
		for _, c := range codes {
			got = append(got, doc.ByCode(c).Text)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.expr, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: got %v, want %v", tc.expr, got, tc.want)
			}
		}
	}
}

func TestQueryAttributePredicate(t *testing.T) {
	// With AttrNodes, attributes are "@name" children, so predicates can
	// address them: //item[@cat="x"]//price.
	doc, err := xmltree.ParseString(`<site>
	  <item cat="x"><price>1</price></item>
	  <item cat="y"><price>2</price></item>
	  <item cat="x"><price>3</price></item>
	</site>`, xmltree.Options{AttrNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	codes, err := e.Query(doc, `//item[@cat="x"]//price`)
	if err != nil {
		t.Fatal(err)
	}
	if len(codes) != 2 {
		t.Fatalf("matched %d prices, want 2", len(codes))
	}
	for _, c := range codes {
		if txt := doc.ByCode(c).Text; txt != "1" && txt != "3" {
			t.Fatalf("wrong price %q", txt)
		}
	}
}

func TestParsePathErrors(t *testing.T) {
	for _, expr := range []string{
		"", "Section", "//", "//a[b]", "//a[=x]", "//a[b=x", "//a//",
	} {
		if _, err := ParsePath(expr); err == nil {
			t.Errorf("%q parsed", expr)
		}
	}
}

func TestParsePathSteps(t *testing.T) {
	steps, err := ParsePath(`//a[t="v w"]/b//c`)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 {
		t.Fatalf("steps = %d", len(steps))
	}
	if !steps[0].Descendant || steps[0].Tag != "a" || steps[0].PredChild != "t" || steps[0].PredValue != "v w" {
		t.Fatalf("step0 = %+v", steps[0])
	}
	if steps[1].Descendant || steps[1].Tag != "b" {
		t.Fatalf("step1 = %+v", steps[1])
	}
	if !steps[2].Descendant || steps[2].Tag != "c" {
		t.Fatalf("step2 = %+v", steps[2])
	}
}

// TestMatchesAgainstMapReference checks the path-step collector against the
// map-and-sort it replaced, on random pair streams whose duplicates arrive
// both back to back (what hash-probe joins emit) and out of order (what
// partitioned and merge joins emit).
func TestMatchesAgainstMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var m matches
	for trial := 0; trial < 200; trial++ {
		m.Reset()
		seen := map[pbicode.Code]bool{}
		distinct := 1 + rng.Intn(60)
		for i, n := 0, rng.Intn(400); i < n; i++ {
			d := pbicode.Code(1 + rng.Intn(distinct))
			for reps := 1 + rng.Intn(3); reps > 0; reps-- {
				if err := m.Emit(Pair{A: pbicode.Code(1 + rng.Intn(1000)), D: d}); err != nil {
					t.Fatal(err)
				}
			}
			seen[d] = true
		}
		want := make([]pbicode.Code, 0, len(seen))
		for c := range seen {
			want = append(want, c)
		}
		sort.Slice(want, func(i, j int) bool {
			si, sj := want[i].Start(), want[j].Start()
			if si != sj {
				return si < sj
			}
			return want[i].Height() > want[j].Height()
		})
		if got := m.Distinct(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Distinct = %v, map reference = %v", trial, got, want)
		}
	}
}

// TestChainRules pins Engine.Chain's contract: one report per step, an
// empty set or a nil relation ends the chain with the rest reported empty,
// a failed step's partial Analysis comes back, and codes are in document
// order.
func TestChainRules(t *testing.T) {
	doc, err := xmltree.ParseString("<r><a><b><c/></b><c/></a><a><b/><c/></a><c/></r>", xmltree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{BufferPages: 32, TreeHeight: doc.Height})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rel := map[string]*Relation{}
	for _, tag := range []string{"a", "b", "c", "x"} {
		if rel[tag], err = e.Load(tag, doc.Codes(tag)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()

	codes, reps, err := e.Chain(ctx, rel["a"], []ChainStep{{Desc: rel["b"]}, {Desc: rel["c"]}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].Matches != 2 || reps[1].Matches != 1 || reps[0].Analysis == nil || reps[1].Analysis == nil {
		t.Fatalf("//a//b//c reports %+v", reps)
	}
	if want := doc.Codes("c")[:1]; !slices.Equal(codes, want) {
		t.Fatalf("//a//b//c = %v, want %v", codes, want)
	}

	codes, reps, err = e.Chain(ctx, rel["a"], nil)
	if err != nil || !slices.Equal(codes, doc.Codes("a")) || len(reps) != 0 {
		t.Fatalf("//a = %v %v %v", codes, reps, err)
	}

	for _, steps := range [][]ChainStep{
		{{Desc: rel["x"]}, {Desc: rel["c"]}},
		{{Desc: nil}, {Desc: rel["c"]}},
		{{Desc: rel["b"]}, {Desc: rel["a"]}, {Desc: rel["c"]}},
	} {
		codes, reps, err = e.Chain(ctx, rel["a"], steps)
		if err != nil || codes != nil || len(reps) != len(steps) || reps[len(reps)-1] != (StepReport{}) {
			t.Fatalf("emptying chain: codes %v reps %+v err %v", codes, reps, err)
		}
	}
	if _, reps, _ = e.Chain(ctx, nil, []ChainStep{{Desc: rel["c"]}}); len(reps) != 1 || reps[0] != (StepReport{}) {
		t.Fatalf("nil anchor reports %+v", reps)
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	_, reps, err = e.Chain(canceled, rel["a"], []ChainStep{{Desc: rel["b"]}, {Desc: rel["c"]}})
	if !errors.Is(err, context.Canceled) || len(reps) != 1 || reps[0].Analysis == nil || reps[0].Analysis.Root().Detail != "canceled" {
		t.Fatalf("canceled chain: err %v reports %+v", err, reps)
	}
	if err := e.ReleaseTemp(); err != nil {
		t.Fatal(err)
	}
}

// TestChainResultIsCallers pins Chain's result contract: the codes are the
// caller's, an exactly-sized slice of their own. The engine's match
// collector is reused by its next chain, which must leave the first
// result as it was.
func TestChainResultIsCallers(t *testing.T) {
	doc, err := xmltree.ParseString("<r><a><b><c/></b><c/></a><a><b/><c/></a><c/></r>", xmltree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{BufferPages: 32, TreeHeight: doc.Height})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rel := map[string]*Relation{}
	for _, tag := range []string{"a", "b", "c"} {
		if rel[tag], err = e.Load(tag, doc.Codes(tag)); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	first, _, err := e.Chain(ctx, rel["a"], []ChainStep{{Desc: rel["c"]}})
	if err != nil {
		t.Fatal(err)
	}
	want := doc.Codes("c")[:3]
	if !slices.Equal(first, want) || cap(first) != len(first) {
		t.Fatalf("//a//c = %v (cap %d), want %v exactly sized", first, cap(first), want)
	}
	second, _, err := e.Chain(ctx, rel["a"], []ChainStep{{Desc: rel["b"]}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(second, doc.Codes("b")) {
		t.Fatalf("//a//b = %v, want %v", second, doc.Codes("b"))
	}
	if !slices.Equal(first, want) {
		t.Fatalf("the second chain rewrote the first's result: %v, want %v", first, want)
	}
}
