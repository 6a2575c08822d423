// Command pbistat builds PBiTree statistics synopses over an XML
// document's tag sets and reports estimated vs actual containment join
// cardinalities — the optimizer-statistics workflow of the paper's
// section 6.
//
// Usage:
//
//	pbistat -anc section -desc figure [-level 6] file.xml
//	pbistat -tags file.xml        (list tags with counts and heights)
//	pbistat -docs [-shards N] file.xml [file.xml ...]
//	pbistat -layout db.pages      (per-relation page-format report)
//
// -layout opens a saved database read-only and reports each relation's
// physical layout: whether its pages are fixed-width, varint (legacy) or
// packed, the stored payload bytes per record, and the pages a pure
// fixed-width layout would need — i.e. the scan-page savings the packed
// format buys.
//
// -docs prints the per-document size breakdown of a corpus (element count
// and estimated heap pages) — the weights the shard packer balances — and
// with -shards N previews the LPT document assignment with its balance
// ratio, without building a database.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/relation"
	"github.com/pbitree/pbitree/internal/shard"
	"github.com/pbitree/pbitree/pbistats"
	"github.com/pbitree/pbitree/xmltree"
)

func main() {
	var (
		anc      = flag.String("anc", "", "ancestor tag")
		desc     = flag.String("desc", "", "descendant tag")
		level    = flag.Int("level", 6, "synopsis bucket level")
		tags     = flag.Bool("tags", false, "list tags instead of estimating")
		docs     = flag.Bool("docs", false, "per-document size breakdown of a corpus")
		shards   = flag.Int("shards", 0, "with -docs: preview the LPT packing into N shards")
		pageSize = flag.Int("pagesize", 4096, "with -docs: page size for the page estimate")
		layout   = flag.Bool("layout", false, "per-relation page-format report of a saved database (arg: page file)")
	)
	flag.Parse()
	if *layout {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: pbistat -layout db.pages")
			os.Exit(2)
		}
		layoutReport(flag.Arg(0))
		return
	}
	if *docs {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "usage: pbistat -docs [-shards N] file.xml [file.xml ...]")
			os.Exit(2)
		}
		docBreakdown(flag.Args(), *shards, *pageSize)
		return
	}
	if flag.NArg() != 1 || (!*tags && (*anc == "" || *desc == "")) {
		fmt.Fprintln(os.Stderr, "usage: pbistat -anc TAG -desc TAG [-level N] file.xml | pbistat -tags file.xml | pbistat -docs file.xml ...")
		os.Exit(2)
	}
	var in io.Reader = os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	}
	doc, err := xmltree.Parse(in, xmltree.Options{})
	if err != nil {
		fail(err)
	}

	if *tags {
		type row struct {
			tag string
			n   int
		}
		var rows []row
		for tag, n := range doc.Tags() {
			rows = append(rows, row{tag, n})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
		fmt.Printf("%-24s %10s %8s\n", "tag", "count", "heights")
		for _, r := range rows {
			heights := map[int]bool{}
			for _, c := range doc.Codes(r.tag) {
				heights[c.Height()] = true
			}
			fmt.Printf("%-24s %10d %8d\n", r.tag, r.n, len(heights))
		}
		return
	}

	lvl := *level
	if lvl >= doc.Height {
		lvl = doc.Height - 1
	}
	sa, err := pbistats.Build(doc.Codes(*anc), lvl, doc.Height)
	if err != nil {
		fail(err)
	}
	sd, err := pbistats.Build(doc.Codes(*desc), lvl, doc.Height)
	if err != nil {
		fail(err)
	}
	est, err := sa.EstimateJoin(sd)
	if err != nil {
		fail(err)
	}
	truth, err := containment.Count(doc.Codes(*anc), doc.Codes(*desc))
	if err != nil {
		fail(err)
	}
	fmt.Printf("//%s//%s\n", *anc, *desc)
	fmt.Printf("  |A| = %d, |D| = %d, synopsis level %d (%d + %d buckets)\n",
		sa.Total(), sd.Total(), lvl, sa.Buckets(), sd.Buckets())
	fmt.Printf("  estimated pairs: %.1f\n", est)
	fmt.Printf("  actual pairs:    %d\n", truth)
	if truth > 0 {
		fmt.Printf("  relative error:  %+.1f%%\n", (est-float64(truth))/float64(truth)*100)
	}
}

// docBreakdown encodes the files as one collection and prints each
// document's element count and estimated heap pages — the weights pbidb
// shard balance-packs by. With n > 0 it additionally runs the same LPT
// packer and reports the resulting per-shard loads and balance ratio, so
// a skewed corpus can be inspected before splitting.
func docBreakdown(paths []string, n, pageSize int) {
	coll := xmltree.NewCollection()
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			fail(err)
		}
		err = coll.AddDocument(path, f, xmltree.Options{})
		f.Close()
		if err != nil {
			fail(fmt.Errorf("%s: %w", path, err))
		}
	}
	perPage := relation.PerPage(pageSize)
	names := coll.Names()
	// The synthetic root's children are the document roots in insertion
	// order — the same order Names reports.
	roots := coll.Document().Root.Children
	weights := make([]int64, len(names))
	for i, root := range roots {
		weights[i] = countElements(root)
	}
	shardOf := make([]int, len(names))
	if n > 0 {
		for g, idxs := range shard.Pack(weights, n) {
			for _, i := range idxs {
				shardOf[i] = g
			}
		}
	}
	estPages := func(elems int64) int64 {
		return (elems + int64(perPage) - 1) / int64(perPage)
	}
	fmt.Printf("%-32s %10s %8s", "document", "elements", "~pages")
	if n > 0 {
		fmt.Printf(" %6s", "shard")
	}
	fmt.Println()
	var total int64
	for i, name := range names {
		fmt.Printf("%-32s %10d %8d", name, weights[i], estPages(weights[i]))
		if n > 0 {
			fmt.Printf(" %6d", shardOf[i])
		}
		fmt.Println()
		total += weights[i]
	}
	fmt.Printf("%-32s %10d %8d\n", fmt.Sprintf("total (%d documents)", len(names)), total, estPages(total))
	if n <= 0 {
		return
	}
	loads := make([]int64, n)
	counts := make([]int, n)
	for i := range names {
		loads[shardOf[i]] += weights[i]
		counts[shardOf[i]]++
	}
	fmt.Printf("\n%-6s %10s %10s %8s\n", "shard", "documents", "elements", "~pages")
	var maxLoad int64
	for g := 0; g < n; g++ {
		fmt.Printf("%-6d %10d %10d %8d\n", g, counts[g], loads[g], estPages(loads[g]))
		if loads[g] > maxLoad {
			maxLoad = loads[g]
		}
	}
	if total > 0 {
		mean := float64(total) / float64(n)
		fmt.Printf("balance: max/mean = %.2f (1.00 is perfect; the slowest shard bounds the fan-out)\n",
			float64(maxLoad)/mean)
	}
}

// layoutReport opens the database read-only and prints each stored
// relation's physical page layout: format mix, bytes per record, and the
// scan-page savings versus a pure fixed-width layout.
func layoutReport(path string) {
	eng, rels, err := containment.Open(containment.Config{Path: path, ReadOnly: true})
	if err != nil {
		fail(err)
	}
	defer eng.Close()
	names := make([]string, 0, len(rels))
	for name := range rels {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-24s %-10s %8s %10s %8s %7s %8s\n",
		"relation", "format", "pages", "records", "B/rec", "vs", "saved")
	var pages, equiv int64
	for _, name := range names {
		li, err := rels[name].Layout()
		if err != nil {
			fail(fmt.Errorf("%s: %w", name, err))
		}
		format := "mixed"
		switch li.Pages {
		case li.FixedPages:
			format = "fixed"
		case li.VarintPages:
			format = "varint"
		case li.PackedPages:
			format = "packed"
		}
		perRec := 0.0
		if li.Records > 0 {
			perRec = float64(li.PayloadBytes) / float64(li.Records)
		}
		ratio := 1.0
		if li.Pages > 0 {
			ratio = float64(li.FixedEquivPages) / float64(li.Pages)
		}
		fmt.Printf("%-24s %-10s %8d %10d %8.1f %6.2fx %8d\n",
			name, format, li.Pages, li.Records, perRec, ratio, li.FixedEquivPages-li.Pages)
		pages += li.Pages
		equiv += li.FixedEquivPages
	}
	if pages > 0 {
		fmt.Printf("\ntotal: %d pages (fixed-width equivalent %d); every full scan reads %d fewer pages\n",
			pages, equiv, equiv-pages)
	}
}

// countElements counts the elements of a subtree (the root included).
func countElements(e *xmltree.Element) int64 {
	var n int64 = 1
	for _, ch := range e.Children {
		n += countElements(ch)
	}
	return n
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "pbistat: %v\n", err)
	os.Exit(1)
}
