package containment_test

import (
	"fmt"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/xmltree"
)

const paperDoc = `<doc>
  <Section><Title>Introduction</Title><Figure/><Figure/></Section>
  <Section><Title>Evaluation</Title><Figure/></Section>
</doc>`

// ExampleJoin runs the simplest possible containment join.
func ExampleJoin() {
	doc, _ := xmltree.ParseString(paperDoc, xmltree.Options{})
	pairs, _ := containment.Join(doc.Codes("Section"), doc.Codes("Figure"))
	fmt.Println("pairs:", len(pairs))
	// Output: pairs: 3
}

// ExampleEngine_Join shows the paper's motivating query
// //Section[Title="Introduction"]//Figure on the storage engine, with the
// algorithm chosen by the framework.
func ExampleEngine_Join() {
	doc, _ := xmltree.ParseString(paperDoc, xmltree.Options{})
	eng, _ := containment.NewEngine(containment.Config{})
	defer eng.Close()

	intro := doc.CodesWhere("Section", func(e *xmltree.Element) bool {
		for _, c := range e.Children {
			if c.Tag == "Title" && c.Text == "Introduction" {
				return true
			}
		}
		return false
	})
	a, _ := eng.Load("intro-sections", intro)
	d, _ := eng.Load("figures", doc.Codes("Figure"))
	res, _ := eng.Join(a, d, containment.JoinOptions{})
	fmt.Printf("%d figures in the Introduction section\n", res.Count)
	// Output: 2 figures in the Introduction section
}

// ExampleEngine_Query evaluates a multi-step descendant path as a chain of
// containment joins.
func ExampleEngine_Query() {
	doc, _ := xmltree.ParseString(`<lib>
	  <book><chapter><figure/></chapter></book>
	  <book><figure/></book>
	  <journal><chapter><figure/></chapter></journal>
	</lib>`, xmltree.Options{})
	eng, _ := containment.NewEngine(containment.Config{})
	defer eng.Close()
	figures, _ := eng.Query(doc, "//book//chapter//figure")
	fmt.Println("//book//chapter//figure:", len(figures))
	// Output: //book//chapter//figure: 1
}

// ExampleParentChild restricts a containment join to the child axis.
func ExampleParentChild() {
	doc, _ := xmltree.ParseString(
		`<a><b/><x><b/></x></a>`, xmltree.Options{})
	eng, _ := containment.NewEngine(containment.Config{})
	defer eng.Close()
	a, _ := eng.LoadDoc(doc, "a")
	d, _ := eng.LoadDoc(doc, "b")
	desc, _ := eng.Join(a, d, containment.JoinOptions{})
	child, _ := eng.Join(a, d, containment.JoinOptions{Filter: containment.ParentChild(doc)})
	fmt.Printf("//a//b: %d, //a/b: %d\n", desc.Count, child.Count)
	// Output: //a//b: 2, //a/b: 1
}
