// Command pbifsck is the offline integrity checker for persisted pbidb
// databases: it recomputes every page's CRC32-C and compares it against the
// checksum sidecar, pinpointing exactly which pages — and which stored
// relations — are damaged, and it decodes every page a relation owns the way
// a scan would (fixed, varint or packed, by the page's format byte),
// reporting a page whose header and payload disagree as INCONSISTENT. Run it
// when a query fails with the "corrupt"
// failure class, or routinely after restoring a database from backup.
//
// The scanner is epoch-aware: when the named database carries an epoch
// family (a live-ingest pbiserve has published snapshots beside it — see
// doc/INGEST.md), every published epoch is verified too. An epoch's catalog
// is first folded over its chain of diff catalogs: a diff that is missing
// or names the wrong parent epoch is reported as a BROKEN CHAIN naming its
// file. An epoch database then scans its base page file page-by-page and
// additionally verifies each delta file of its chain whole against the
// delta's trailing CRC32-C. Pass -noepochs to scan only the named files.
//
// Usage:
//
//	pbifsck db.pbidb [db2.pbidb ...]      verify page checksums (+ epoch family)
//	pbifsck -add legacy.pbidb             backfill checksums and page fences on an older database
//	pbifsck -json db.pbidb                machine-readable report
//	pbifsck -noepochs db.pbidb            skip the epoch family
//
// Exit status: 0 when every database verifies clean, 1 on corruption, a
// broken epoch chain or an unverifiable (legacy, no-checksum) database, 2 on usage or I/O errors.
// -add trusts the page file as it stands, so run it only on a database
// believed intact — there is nothing older to verify against. After the
// checksums it verifies the database, then writes the fences (each page's
// first Start) of every relation whose catalog claims document order
// without them, as catalogs written before fences do: such relations reopen
// with the loader's claim, so STACKTREE, ADB+ and INLJN seek over their
// pages instead of reading them to the end or bulk-loading a B+-tree.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/ingest"
)

func main() {
	var (
		add      = flag.Bool("add", false, "backfill a checksum sidecar, and the page fences of ordered relations, onto an older database")
		jsonOut  = flag.Bool("json", false, "emit one JSON report per database instead of text")
		noEpochs = flag.Bool("noepochs", false, "scan only the named files, not their epoch families")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: pbifsck [-add] [-json] [-noepochs] db.pbidb [db2.pbidb ...]")
		os.Exit(2)
	}

	if *add {
		for _, path := range flag.Args() {
			if err := containment.AddChecksums(path); err != nil {
				fmt.Fprintf(os.Stderr, "pbifsck: %s: %v\n", path, err)
				os.Exit(2)
			}
			fmt.Printf("%s: checksum sidecar written\n", path)
			n, err := containment.AddFences(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pbifsck: %s: %v\n", path, err)
				os.Exit(2)
			}
			fmt.Printf("%s: fences written for %d ordered relations\n", path, n)
		}
		return
	}

	bad := false
	seen := map[string]bool{}
	for _, path := range flag.Args() {
		for _, target := range expandEpochs(path, *noEpochs) {
			if clean, err := filepath.Abs(target); err == nil {
				if seen[clean] {
					continue // epoch 0 resolves back to a named file
				}
				seen[clean] = true
			}
			rep, err := containment.Fsck(target)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pbifsck: %s: %v\n", target, err)
				os.Exit(2)
			}
			if !rep.OK() {
				bad = true
			}
			if *jsonOut {
				out, _ := json.MarshalIndent(rep, "", "  ")
				fmt.Printf("%s\n", out)
				continue
			}
			report(rep)
		}
	}
	if bad {
		os.Exit(1)
	}
}

// expandEpochs returns the databases to scan for one argument: the named
// file, plus — when a live-ingest epoch manifest sits beside it — every
// published epoch of its family. A manifest read failure is reported but
// does not stop the base scan: the family may be mid-teardown.
func expandEpochs(path string, skip bool) []string {
	targets := []string{path}
	if skip {
		return targets
	}
	list, err := ingest.ListEpochs(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbifsck: %s: epoch manifest: %v (scanning base only)\n", path, err)
		return targets
	}
	if list == nil {
		return targets
	}
	fmt.Fprintf(os.Stderr, "pbifsck: %s: epoch family of %d (current %d)\n", path, len(list.Epochs), list.Current)
	for _, e := range list.Epochs {
		targets = append(targets, list.Resolve(e))
	}
	return targets
}

// report renders one scan result as text.
func report(rep *containment.FsckReport) {
	if rep.Chain != "" {
		fmt.Printf("%s: BROKEN CHAIN — %s\n", rep.Path, rep.Chain)
		return
	}
	if rep.NoChecksums {
		fmt.Printf("%s: no checksum sidecar (saved before page integrity landed); run pbifsck -add to protect it\n", rep.Path)
		return
	}
	epoch := ""
	if rep.Epoch > 0 {
		epoch = fmt.Sprintf(", epoch %d over %d deltas", rep.Epoch, len(rep.Deltas))
	}
	formats := fmt.Sprintf(", formats: %d fixed / %d varint / %d packed", rep.FixedPages, rep.VarintPages, rep.PackedPages)
	inconsistent := rep.UnknownFormatPages > 0 || len(rep.Undecodable) > 0 || len(rep.Entries) > 0
	if len(rep.Bad) == 0 && deltasOK(rep) && !inconsistent {
		fmt.Printf("%s: ok (%d/%d pages verified, page size %d%s%s)\n", rep.Path, rep.Checked, rep.Pages, rep.PageSize, epoch, formats)
		return
	}
	if inconsistent {
		fmt.Printf("%s: INCONSISTENT — %d relation-owned pages carry an unknown format byte, %d do not decode, %d catalog entries disagree with their pages%s\n",
			rep.Path, rep.UnknownFormatPages, len(rep.Undecodable), len(rep.Entries), formats)
		for _, b := range rep.Undecodable {
			fmt.Printf("  page %d (%s): %s\n", b.Page, strings.Join(b.Relations, ", "), b.Error)
		}
		for _, en := range rep.Entries {
			fmt.Printf("  relation %s: %s\n", en.Relation, en.Error)
		}
		if len(rep.Bad) == 0 && deltasOK(rep) {
			return
		}
	}
	fmt.Printf("%s: CORRUPT — %d of %d pages failed verification%s\n", rep.Path, len(rep.Bad), rep.Checked, epoch)
	for _, b := range rep.Bad {
		where := "unowned (catalog internals or slack)"
		if len(b.Relations) > 0 {
			where = "relations: " + strings.Join(b.Relations, ", ")
		}
		fmt.Printf("  page %d: want crc32c %08x, got %08x — %s\n", b.Page, b.Want, b.Got, where)
	}
	for _, d := range rep.Deltas {
		if !d.OK {
			fmt.Printf("  delta %s (%d pages): %s\n", d.Path, d.Pages, d.Error)
		}
	}
}

// deltasOK reports whether every delta of an epoch chain verified.
func deltasOK(rep *containment.FsckReport) bool {
	for _, d := range rep.Deltas {
		if !d.OK {
			return false
		}
	}
	return true
}
