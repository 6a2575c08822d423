package containment

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// TestQueryPathSmall: descendant paths through Engine.Query, the one path
// evaluator.
func TestQueryPathSmall(t *testing.T) {
	doc, err := xmltree.ParseString(`<lib>
	  <book><chapter><section><figure/></section></chapter></book>
	  <book><chapter><figure/></chapter></book>
	  <book><appendix><section><figure/></section></appendix></book>
	  <article><section><figure/></section></article>
	</lib>`, xmltree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// //book//section//figure: figures inside a section inside a book.
	got, err := e.Query(doc, "//book//section//figure")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("//book//section//figure = %d, want 2", len(got))
	}
	// //book//figure: 3 (one directly under a chapter).
	got, err = e.Query(doc, "//book//figure")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("//book//figure = %d, want 3", len(got))
	}
	// Single-step path: just the tag's elements.
	got, err = e.Query(doc, "//figure")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("//figure = %d", len(got))
	}
	// No matches.
	got, err = e.Query(doc, "//article//chapter//figure")
	if err != nil || len(got) != 0 {
		t.Fatalf("dead path = %d, %v", len(got), err)
	}
	// Errors.
	if _, err := e.Query(doc, ""); err == nil {
		t.Fatal("empty path accepted")
	}
}

// bruteForcePath computes the path result by direct ancestry tests.
func bruteForcePath(doc *xmltree.Document, tags []string) map[pbicode.Code]bool {
	cur := make(map[pbicode.Code]bool)
	for _, c := range doc.Codes(tags[0]) {
		cur[c] = true
	}
	for _, tag := range tags[1:] {
		next := make(map[pbicode.Code]bool)
		for _, d := range doc.Codes(tag) {
			for a := range cur {
				if pbicode.IsAncestor(a, d) {
					next[d] = true
					break
				}
			}
		}
		cur = next
	}
	return cur
}

// TestQueryPathAgainstBruteForce holds Engine.Query's descendant paths to
// direct ancestry tests.
func TestQueryPathAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var sb strings.Builder
	var build func(depth int)
	tags := []string{"a", "b", "c", "d"}
	build = func(depth int) {
		tag := tags[rng.Intn(len(tags))]
		sb.WriteString("<" + tag + ">")
		if depth < 6 {
			for i := 0; i < rng.Intn(4); i++ {
				build(depth + 1)
			}
		}
		sb.WriteString("</" + tag + ">")
	}
	sb.WriteString("<root>")
	for i := 0; i < 200; i++ {
		build(0)
	}
	sb.WriteString("</root>")
	doc, err := xmltree.ParseString(sb.String(), xmltree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{PageSize: 512, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, path := range [][]string{
		{"a", "b"},
		{"a", "b", "c"},
		{"b", "b"}, // self-nested tag
		{"root", "a", "d"},
	} {
		got, err := e.Query(doc, "//"+strings.Join(path, "//"))
		if err != nil {
			t.Fatalf("%v: %v", path, err)
		}
		want := bruteForcePath(doc, path)
		if len(got) != len(want) {
			t.Fatalf("%v: %d results, want %d", path, len(got), len(want))
		}
		for _, c := range got {
			if !want[c] {
				t.Fatalf("%v: unexpected result %v", path, c)
			}
		}
		// Document order: Starts non-decreasing.
		for i := 1; i < len(got); i++ {
			if got[i].Start() < got[i-1].Start() {
				t.Fatalf("%v: results not in document order", path)
			}
		}
	}
}
