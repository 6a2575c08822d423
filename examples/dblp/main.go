// dblp runs bibliography-style containment queries — the workload family
// behind the paper's Table 2(d) — over a generated DBLP-shaped document,
// showing how the framework picks different algorithms as the input
// characteristics change (Table 1 of the paper).
//
//	go run ./examples/dblp
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/xmltree"
)

// buildBibliography assembles the element tree directly (no XML text
// round-trip): publications with authors, titles and occasional extras,
// plus sparse nested citations that give the "article" tag multiple
// PBiTree heights.
func buildBibliography(pubs int, rng *rand.Rand) *xmltree.Document {
	root := &xmltree.Element{Tag: "dblp"}
	add := func(p *xmltree.Element, tag, text string) *xmltree.Element {
		e := &xmltree.Element{Tag: tag, Text: text, Parent: p}
		p.Children = append(p.Children, e)
		return e
	}
	for i := 0; i < pubs; i++ {
		art := add(root, "article", "")
		for j := 0; j <= rng.Intn(3); j++ {
			add(art, "author", fmt.Sprintf("Author %d", rng.Intn(pubs/3+1)))
		}
		add(art, "title", fmt.Sprintf("Paper %d", i))
		add(art, "year", fmt.Sprintf("%d", 1990+rng.Intn(13)))
		if rng.Float64() < 0.08 {
			add(art, "ee", fmt.Sprintf("db/%d.html", i))
		}
		if rng.Float64() < 0.01 {
			cited := add(add(art, "cite", ""), "article", "")
			add(cited, "author", "Cited Author")
			add(cited, "title", fmt.Sprintf("Cited %d", i))
		}
	}
	doc, err := xmltree.Encode(root)
	if err != nil {
		log.Fatal(err)
	}
	return doc
}

func main() {
	rng := rand.New(rand.NewSource(3))
	doc := buildBibliography(30000, rng)
	fmt.Printf("bibliography: %d elements, PBiTree height %d\n\n", doc.NumElements(), doc.Height)

	eng, err := containment.NewEngine(containment.Config{
		BufferPages: 128,
		PageSize:    1024,
		DiskCost:    containment.DefaultDiskCost,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	queries := []struct {
		id, anc, desc string
	}{
		{"Q1 (large A, ~8% D)", "article", "ee"},
		{"Q2 (large A, large D)", "article", "author"},
		{"Q3 (1:1)", "article", "title"},
		{"Q4 (multi-height A)", "article", "year"},
		{"Q5 (root, all authors)", "dblp", "author"},
	}
	fmt.Printf("%-24s %-12s %9s %9s %9s %10s\n", "query", "algorithm", "|A|", "|D|", "pairs", "pageIO")
	for _, q := range queries {
		a, err := eng.LoadDoc(doc, q.anc)
		if err != nil {
			log.Fatal(err)
		}
		d, err := eng.LoadDoc(doc, q.desc)
		if err != nil {
			log.Fatal(err)
		}
		eng.ResetIOStats()
		res, err := eng.Join(a, d, containment.JoinOptions{Algorithm: containment.Auto})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %-12s %9d %9d %9d %10d\n",
			q.id, res.Algorithm, a.Len(), d.Len(), res.Count, res.IO.Total())
		if err := eng.Free(a); err != nil {
			log.Fatal(err)
		}
		if err := eng.Free(d); err != nil {
			log.Fatal(err)
		}
	}

	// The same join over inputs prepared as Table 1's rows distinguish
	// them, its picks priced by the §3.4 cost model.
	fmt.Println("\nTable 1: //article//author over inputs in the paper's layout, b = 500")
	rows, err := table1(doc, rng)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("  %-28s -> %s (%d pairs)\n", r.name, r.res.Algorithm, r.res.Count)
	}
}

// row is one of Table 1's input settings and the join AUTO ran over it.
type row struct {
	name            string
	sorted, indexed bool
	res             *containment.Result
}

// table1 joins //article//author once per row of the paper's Table 1,
// over inputs made so: loaded in a shuffled order, then sorted into
// document order (Engine.Sort) for the sorted rows and given persistent
// Start indexes (Engine.BuildStartIndex) for the indexed ones. The engine
// writes the paper's pages and has its buffer, so the candidates that read
// each input once tie, and Table 1 breaks the tie: a partitioning join,
// STACKTREE, INLJN and ADB+.
func table1(doc *xmltree.Document, rng *rand.Rand) ([]row, error) {
	eng, err := containment.NewEngine(containment.Config{BufferPages: 500, PaperLayout: true, TreeHeight: doc.Height})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	load := func(tag string) (*containment.Relation, error) {
		codes := doc.Codes(tag)
		rng.Shuffle(len(codes), func(i, j int) { codes[i], codes[j] = codes[j], codes[i] })
		return eng.Load(tag, codes)
	}
	rows := []row{
		{name: "neither sorted nor indexed"},
		{name: "both sorted", sorted: true},
		{name: "both indexed", indexed: true},
		{name: "both sorted and indexed", sorted: true, indexed: true},
	}
	for i := range rows {
		r := &rows[i]
		a, err := load("article")
		if err != nil {
			return nil, err
		}
		d, err := load("author")
		if err != nil {
			return nil, err
		}
		for _, rel := range []*containment.Relation{a, d} {
			if r.sorted {
				if err := eng.Sort(rel); err != nil {
					return nil, err
				}
			}
			if r.indexed {
				if err := eng.BuildStartIndex(rel); err != nil {
					return nil, err
				}
			}
		}
		if r.res, err = eng.Join(a, d, containment.JoinOptions{Algorithm: containment.Auto}); err != nil {
			return nil, err
		}
		if err := eng.Free(a); err != nil {
			return nil, err
		}
		if err := eng.Free(d); err != nil {
			return nil, err
		}
	}
	return rows, nil
}
