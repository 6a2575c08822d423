package containment

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/pbitree/pbitree/internal/storage"
)

// buildDB saves a small two-relation database and returns its path plus
// the expected join pair count.
func buildDB(t *testing.T) (path string, wantPairs int) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "db.pages")
	rng := rand.New(rand.NewSource(61))
	aCodes := randCodes(rng, 800, 12)
	dCodes := randCodes(rng, 800, 12)
	e, err := NewEngine(Config{Path: path, PageSize: 512, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.Load("A", aCodes)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Load("D", dCodes)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Save(a, d); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return path, len(oracle(aCodes, dCodes))
}

// flipByteInRelation corrupts one byte inside the first page owned by the
// named relation and returns that page's ID.
func flipByteInRelation(t *testing.T, path, rel string) int64 {
	t.Helper()
	cat, err := readCatalog(path)
	if err != nil {
		t.Fatal(err)
	}
	var page int64 = -1
	for _, e := range cat.Relations {
		if e.Name == rel && len(e.Pages) > 0 {
			page = int64(e.Pages[0])
			break
		}
	}
	if page < 0 {
		t.Fatalf("relation %s has no pages", rel)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off := page*int64(cat.PageSize) + 17
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	return page
}

func TestCorruptionFailsQueryAndFsckPinpointsIt(t *testing.T) {
	path, _ := buildDB(t)
	page := flipByteInRelation(t, path, "A")

	// Fsck names the exact page and the relation that owns it.
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Bad) != 1 {
		t.Fatalf("report: OK=%v bad=%v", rep.OK(), rep.Bad)
	}
	if rep.Bad[0].Page != page {
		t.Fatalf("fsck blamed page %d, want %d", rep.Bad[0].Page, page)
	}
	found := false
	for _, r := range rep.Bad[0].Relations {
		if r == "A" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fsck owners %v missing relation A", rep.Bad[0].Relations)
	}

	// The serving path fails the query with the corrupt class — never a
	// silent wrong answer.
	eng, rels, err := Open(Config{Path: path, ReadOnly: true, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	_, err = eng.Join(rels["A"], rels["D"], JoinOptions{})
	if err == nil {
		t.Fatal("join over a corrupt page succeeded")
	}
	if got := Classify(err); got != FailCorrupt {
		t.Fatalf("Classify = %v (%v), want FailCorrupt", got, err)
	}
	// Quarantine: the same query fails fast the second time too.
	if _, err := eng.Join(rels["A"], rels["D"], JoinOptions{}); Classify(err) != FailCorrupt {
		t.Fatalf("second join: %v, want FailCorrupt", err)
	}
}

func TestCorruptionDetectedOnWritableOpen(t *testing.T) {
	path, _ := buildDB(t)
	flipByteInRelation(t, path, "D")
	eng, rels, err := Open(Config{Path: path, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	_, err = eng.Join(rels["A"], rels["D"], JoinOptions{})
	if Classify(err) != FailCorrupt {
		t.Fatalf("writable open join: %v, want FailCorrupt", err)
	}
}

// stripChecksums rewrites the database as a pre-checksum (legacy) one: no
// sidecar, no catalog flag — byte-for-byte what an old release saved.
func stripChecksums(t *testing.T, path string) {
	t.Helper()
	if err := os.Remove(storage.SumsPath(path)); err != nil {
		t.Fatal(err)
	}
	cat, err := readCatalog(path)
	if err != nil {
		t.Fatal(err)
	}
	cat.Checksums = false
	data, err := json.MarshalIndent(cat, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(catalogPath(path), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLegacyDatabaseStillOpens(t *testing.T) {
	path, wantPairs := buildDB(t)
	stripChecksums(t, path)

	// Legacy databases open and query cleanly — verification is simply off.
	eng, rels, err := Open(Config{Path: path, ReadOnly: true, BufferPages: 16})
	if err != nil {
		t.Fatalf("legacy open: %v", err)
	}
	res, err := eng.Join(rels["A"], rels["D"], JoinOptions{})
	if err != nil {
		t.Fatalf("legacy join: %v", err)
	}
	if int(res.Count) != wantPairs {
		t.Fatalf("legacy join count %d, want %d", res.Count, wantPairs)
	}
	eng.Close()

	// Fsck flags them as unverifiable rather than pretending they're fine.
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.NoChecksums || rep.OK() {
		t.Fatalf("legacy report: %+v", rep)
	}

	// AddChecksums backfills protection; the database then verifies clean
	// and a fresh open arms verification.
	if err := AddChecksums(path); err != nil {
		t.Fatal(err)
	}
	rep, err = Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("post-backfill report: %+v", rep)
	}
	flipByteInRelation(t, path, "A")
	eng2, rels2, err := Open(Config{Path: path, ReadOnly: true, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if _, err := eng2.Join(rels2["A"], rels2["D"], JoinOptions{}); Classify(err) != FailCorrupt {
		t.Fatalf("post-backfill corruption: %v, want FailCorrupt", err)
	}
}

func TestOpenRejectsMissingSidecar(t *testing.T) {
	path, _ := buildDB(t)
	// Catalog says checksums exist, but the sidecar is gone: opening must
	// fail loudly instead of silently serving unverified pages.
	if err := os.Remove(storage.SumsPath(path)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Config{Path: path, ReadOnly: true}); err == nil {
		t.Fatal("open with missing sidecar succeeded")
	}
}

// TestFsckFlagsUndecodablePage: a page that passes its checksum and still
// does not decode — here a packed page whose header claims fewer payload
// bytes than its blocks need, checksummed as it stands — was written wrong,
// and Fsck reports it as an inconsistency of the relation that owns it
// rather than reading the format byte and moving on.
func TestFsckFlagsUndecodablePage(t *testing.T) {
	path, _ := buildDB(t)
	cat, err := readCatalog(path)
	if err != nil {
		t.Fatal(err)
	}
	var page int64
	for _, e := range cat.Relations {
		if e.Name == "D" {
			page = int64(e.Pages[0])
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	used := make([]byte, 2)
	off := page*int64(cat.PageSize) + 4 // the header's used-bytes field
	if _, err := f.ReadAt(used, off); err != nil {
		t.Fatal(err)
	}
	used[0] -= 40
	if _, err := f.WriteAt(used, off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := AddChecksums(path); err != nil { // checksum the file as it now is
		t.Fatal(err)
	}
	rep, err := Fsck(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Bad) != 0 || len(rep.Undecodable) != 1 {
		t.Fatalf("fsck: OK %v, %d bad checksums, undecodable %+v; want exactly one undecodable page", rep.OK(), len(rep.Bad), rep.Undecodable)
	}
	if u := rep.Undecodable[0]; u.Page != page || len(u.Relations) != 1 || u.Relations[0] != "D" || u.Error == "" {
		t.Fatalf("undecodable page reported as %+v, want page %d of relation D with a reason", u, page)
	}
}

// TestFsckChecksCatalogEntries: Fsck compares what a catalog says of each
// relation — record count, region span, height mask — with the relation's
// decoded pages. An epoch catalog whose entry for A claims another max_end
// is not OK, and the report names A; a zero mask stays "unknown".
func TestFsckChecksCatalogEntries(t *testing.T) {
	_, eps := buildDiffChain(t, 2)
	ep := eps[len(eps)-1]
	if rep, err := Fsck(ep); err != nil || !rep.OK() || len(rep.Entries) != 0 {
		t.Fatalf("intact chain: OK %v, entries %+v (%v)", rep.OK(), rep.Entries, err)
	}
	edit := func(field string, f func(float64) float64) {
		t.Helper()
		data, err := os.ReadFile(catalogPath(ep))
		if err != nil {
			t.Fatal(err)
		}
		var cat map[string]any
		if err := json.Unmarshal(data, &cat); err != nil {
			t.Fatal(err)
		}
		for _, r := range cat["relations"].([]any) {
			if ent := r.(map[string]any); ent["name"] == "A" {
				v, _ := ent[field].(float64)
				ent[field] = f(v)
			}
		}
		if data, err = json.Marshal(cat); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(catalogPath(ep), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	edit("heights", func(float64) float64 { return 0 })
	if rep, err := Fsck(ep); err != nil || !rep.OK() {
		t.Fatalf("zero height mask: OK %v, entries %+v (%v); want it read as unknown", rep.OK(), rep.Entries, err)
	}
	edit("max_end", func(v float64) float64 { return v + 1 })
	rep, err := Fsck(ep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Entries) != 1 || rep.Entries[0].Relation != "A" || rep.Entries[0].Error == "" {
		t.Fatalf("wrong max_end: OK %v, entries %+v; want A named", rep.OK(), rep.Entries)
	}
}
