// Command pbidb builds a persistent containment-join database from XML
// documents and queries it across sessions: tag element sets become stored
// relations in a page file with a catalog sidecar; joins then run against
// the stored relations without re-parsing any XML.
//
// Usage:
//
//	pbidb build  -db site.db [-tags item,text] doc1.xml [doc2.xml ...]
//	pbidb tags   -db site.db
//	pbidb join   -db site.db -anc item -desc text [-algo auto] [-buffer 500]
//	pbidb shard  -db site.db [-shards 4] [-out site.db.shards]
//	pbidb epochs -db site.db
//
// epochs lists the database's epoch family — the snapshots a live-ingest
// pbiserve (-ingest, see doc/INGEST.md) has published beside the page
// file: which epoch is current, which are compacted bases vs delta
// layers, and how long each delta chain runs. A database that has never
// taken a write has only the implicit epoch 0.
//
// Multiple documents are encoded as one collection (a forest under a
// synthetic root), so joins span the corpus; pairs never cross documents.
// build records the document catalog (per-document root code and element
// weight); shard uses it to split the database into document-disjoint
// shard files for pbiserve -shards / parallel scatter-gather joins.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/ingest"
	"github.com/pbitree/pbitree/internal/shard"
	"github.com/pbitree/pbitree/xmltree"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		build(os.Args[2:])
	case "tags":
		tags(os.Args[2:])
	case "join":
		join(os.Args[2:])
	case "shard":
		shardCmd(os.Args[2:])
	case "epochs":
		epochs(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pbidb build  -db FILE [-tags a,b] doc.xml [doc.xml ...]
  pbidb tags   -db FILE
  pbidb join   -db FILE -anc TAG -desc TAG [-algo NAME] [-buffer N]
  pbidb shard  -db FILE [-shards N] [-out DIR]
  pbidb epochs -db FILE`)
	os.Exit(2)
}

// relPrefix namespaces tag relations in the catalog.
const relPrefix = "tag:"

func build(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	db := fs.String("db", "", "database file (required)")
	tagList := fs.String("tags", "", "comma-separated tags to store (default: every tag)")
	pageSize := fs.Int("pagesize", 4096, "page size")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *db == "" || fs.NArg() == 0 {
		usage()
	}

	coll := xmltree.NewCollection()
	for _, path := range fs.Args() {
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

	want := map[string]bool{}
	if *tagList != "" {
		for _, t := range strings.Split(*tagList, ",") {
			want[strings.TrimSpace(t)] = true
		}
	}

	eng, err := containment.NewEngine(containment.Config{
		Path:       *db,
		PageSize:   *pageSize,
		TreeHeight: coll.Height(),
	})
	if err != nil {
		fail(err)
	}
	defer eng.Close()
	var rels []*containment.Relation
	var stored, storedTags []string
	for tag := range coll.Document().Tags() {
		if strings.HasPrefix(tag, "#") {
			continue // synthetic collection root
		}
		if len(want) > 0 && !want[tag] {
			continue
		}
		r, err := eng.Load(relPrefix+tag, coll.Codes(tag))
		if err != nil {
			fail(err)
		}
		rels = append(rels, r)
		storedTags = append(storedTags, tag)
		stored = append(stored, fmt.Sprintf("%s(%d)", tag, r.Len()))
	}
	// Record the document catalog: each document's root code (its region
	// envelope) and its stored-element weight, the quantity pbidb shard
	// balance-packs by.
	var docs []containment.DocInfo
	for _, name := range coll.Names() {
		root, err := coll.RootCode(name)
		if err != nil {
			fail(err)
		}
		var elems int64
		for _, tag := range storedTags {
			codes, err := coll.CodesIn(name, tag)
			if err != nil {
				fail(err)
			}
			elems += int64(len(codes))
		}
		docs = append(docs, containment.DocInfo{Name: name, Root: root, Elements: elems})
	}
	if err := eng.SaveDocs(docs, rels...); err != nil {
		fail(err)
	}
	sort.Strings(stored)
	fmt.Printf("pbidb: stored %d documents, %d tag relations: %s\n",
		coll.NumDocuments(), len(rels), strings.Join(stored, " "))
}

// shardCmd splits a stored database into document-disjoint shard files
// plus a manifest (see internal/shard.Split and doc/SHARDING.md).
func shardCmd(args []string) {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	db := fs.String("db", "", "database file (required)")
	n := fs.Int("shards", 4, "number of shards")
	out := fs.String("out", "", "output directory (default DB.shards)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *db == "" || fs.NArg() != 0 {
		usage()
	}
	if *out == "" {
		*out = *db + ".shards"
	}
	man, err := shard.Split(*db, *n, *out)
	if err != nil {
		fail(err)
	}
	for i, ms := range man.Shards {
		fmt.Printf("pbidb: shard %d: %-16s %3d documents %10d elements\n",
			i, ms.Path, len(ms.Documents), ms.Elements)
	}
	fmt.Printf("pbidb: wrote %s (serve with: pbiserve -db %s -shards %d)\n",
		filepath.Join(*out, shard.ManifestName), *db, *n)
}

// openDB opens the database read-only: tags and join never modify stored
// relations, and an overlay absorbs temporary join state, so concurrent
// invocations (or a running pbiserve) can share the same page file.
func openDB(db string, buffer int) (*containment.Engine, map[string]*containment.Relation) {
	eng, rels, err := containment.Open(containment.Config{
		Path:        db,
		ReadOnly:    true,
		BufferPages: buffer,
		DiskCost:    containment.DefaultDiskCost,
	})
	if err != nil {
		fail(err)
	}
	return eng, rels
}

func tags(args []string) {
	fs := flag.NewFlagSet("tags", flag.ExitOnError)
	db := fs.String("db", "", "database file (required)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *db == "" {
		usage()
	}
	eng, rels := openDB(*db, 64)
	defer eng.Close()
	names := make([]string, 0, len(rels))
	for name := range rels {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-24s %10s %8s %8s\n", "tag", "elements", "pages", "ordered")
	for _, name := range names {
		r := rels[name]
		fmt.Printf("%-24s %10d %8d %8v\n", strings.TrimPrefix(name, relPrefix), r.Len(), r.Pages(), r.Ordered())
	}
}

func join(args []string) {
	fs := flag.NewFlagSet("join", flag.ExitOnError)
	db := fs.String("db", "", "database file (required)")
	anc := fs.String("anc", "", "ancestor tag (required)")
	desc := fs.String("desc", "", "descendant tag (required)")
	algo := fs.String("algo", "auto", "algorithm")
	buffer := fs.Int("buffer", 500, "buffer pool pages")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *db == "" || *anc == "" || *desc == "" {
		usage()
	}
	eng, rels := openDB(*db, *buffer)
	defer eng.Close()
	a, ok := rels[relPrefix+*anc]
	if !ok {
		fail(fmt.Errorf("no stored relation for tag %q", *anc))
	}
	d, ok := rels[relPrefix+*desc]
	if !ok {
		fail(fmt.Errorf("no stored relation for tag %q", *desc))
	}
	alg, ok := containment.ParseAlgorithm(*algo)
	if !ok {
		fail(fmt.Errorf("unknown algorithm %q (accepted: %s)", *algo,
			strings.Join(containment.AlgorithmNames(), ", ")))
	}
	res, err := eng.Join(a, d, containment.JoinOptions{Algorithm: alg})
	if err != nil {
		fail(err)
	}
	fmt.Printf("//%s//%s: %d pairs  algorithm=%s  pageIO=%d  elapsed=%v\n",
		*anc, *desc, res.Count, res.Algorithm, res.IO.Total(),
		(res.IO.VirtualTime + res.IO.WallTime).Round(1000000))
}

// epochs lists the database's published epoch family from the manifest a
// live-ingest server maintains beside the page file (internal/ingest).
// Reading the manifest alone keeps the listing cheap and safe to run
// against a database a pbiserve -ingest is actively writing: the manifest
// swaps atomically, so this sees either the old or the new family.
func epochs(args []string) {
	fs := flag.NewFlagSet("epochs", flag.ExitOnError)
	db := fs.String("db", "", "database file (required)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *db == "" || fs.NArg() != 0 {
		usage()
	}
	list, err := ingest.ListEpochs(*db)
	if err != nil {
		fail(err)
	}
	if list == nil {
		fmt.Printf("pbidb: %s: no epoch family (never ingested into); the page file is the implicit epoch 0\n", *db)
		return
	}
	fmt.Printf("%-7s %-9s %6s %6s %6s  %s\n", "epoch", "kind", "chain", "files", "dpages", "path")
	for _, e := range list.Epochs {
		kind := "delta"
		switch {
		case e.Epoch == 0:
			kind = "base"
		case e.Compacted:
			kind = "compacted"
		}
		cur := ""
		if e.Epoch == list.Current {
			cur = "  <- current"
		}
		// dpages: pages the epoch's commit wrote into its delta ("-" where
		// there is no delta, or the manifest predates the count).
		dpages := "-"
		if e.DeltaPages > 0 {
			dpages = strconv.FormatInt(e.DeltaPages, 10)
		}
		// chain: the page files the epoch layers, its base and deltas (the
		// manifest's chain also lists the catalogs its catalog folds over).
		chain := 0
		for _, f := range e.Chain {
			if !strings.HasSuffix(f, ".catalog") {
				chain++
			}
		}
		fmt.Printf("%-7d %-9s %6d %6d %6s  %s%s\n",
			e.Epoch, kind, chain, len(e.Files), dpages, list.Resolve(e), cur)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "pbidb: %v\n", err)
	os.Exit(1)
}
