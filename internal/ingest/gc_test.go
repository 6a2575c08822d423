package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// epochFiles lists the files of the epochs directory whose names start
// with prefix.
func epochFiles(t *testing.T, dir, prefix string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), prefix) {
			out = append(out, ent.Name())
		}
	}
	return out
}

func insertDocs(t *testing.T, s *Store, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		xml := fmt.Sprintf(`<d%d><e%d/></d%d>`, i, i, i)
		if _, err := s.Apply([]Op{{Op: "insert_doc", Doc: fmt.Sprintf("doc%d", i), XML: xml}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashOrphansRemovedOnReopen: what a crash leaves in the epochs
// directory — a delta whose catalog was never written, an epoch whose
// manifest swap never happened, a compaction's fold scraps — is removed
// when the store reopens, and nothing a manifest entry references is.
func TestCrashOrphansRemovedOnReopen(t *testing.T) {
	s, base := openStore(t, Config{GapAware: true})
	insertDocs(t, s, 0, 3)
	s.Close() //nolint:errcheck
	orphans := []string{
		"epoch-000004.pbidb.delta",                               // crashed between delta and catalog
		"epoch-000005.pbidb.delta", "epoch-000005.pbidb.catalog", // crashed before the manifest swap
		".tmp-compact-000006.pbidb", ".tmp-compact-000006.pbidb.catalog",
	}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(s.dir, name), []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(Config{DBPath: base, GapAware: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close() //nolint:errcheck
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(s2.dir, name)); !os.IsNotExist(err) {
			t.Errorf("orphan %s survived the reopen: %v", name, err)
		}
	}
	if got := epochFiles(t, s2.dir, "epoch-"); len(got) != 6 {
		t.Fatalf("epoch files after the reopen: %v, want the three epochs' catalogs and deltas", got)
	}
	assertStoreMatchesEpoch(t, s2)
}

// TestCompactionRetiresFoldedChain: once a compaction and Keep further
// commits have retired every epoch of the folded chain, its deltas and
// diff catalogs are gone; the compacted base goes the same way once the
// epochs chained over it have aged out; the original database stays.
func TestCompactionRetiresFoldedChain(t *testing.T) {
	s, base := openStore(t, Config{GapAware: true, Keep: 2})
	insertDocs(t, s, 0, 5)
	if err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	insertDocs(t, s, 5, 5+s.cfg.Keep)
	for i := 1; i <= 5; i++ {
		if got := epochFiles(t, s.dir, fmt.Sprintf("epoch-%06d.", i)); len(got) > 0 {
			t.Fatalf("the folded chain's epoch %d left %v behind", i, got)
		}
	}
	if got := epochFiles(t, s.dir, "compact-000006."); len(got) != 3 {
		t.Fatalf("the compacted base's files: %v", got)
	}
	assertStoreMatchesEpoch(t, s)

	if err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	insertDocs(t, s, 7, 7+s.cfg.Keep)
	if got := epochFiles(t, s.dir, "compact-000006."); len(got) > 0 {
		t.Fatalf("the retired compacted base left %v behind", got)
	}
	if got := epochFiles(t, s.dir, "epoch-"); len(got) != 2*s.cfg.Keep {
		t.Fatalf("epoch files: %v, want the catalogs and deltas of the %d commits since the last compaction", got, s.cfg.Keep)
	}
	if _, err := os.Stat(base); err != nil {
		t.Fatalf("original database harmed: %v", err)
	}
	assertStoreMatchesEpoch(t, s)
}

// TestCorruptDocumentsFailCompaction: a document catalog that does not
// decode fails compaction — which would otherwise write a base without
// documents — and the reopen that would rename every document, instead of
// answering with no documents.
func TestCorruptDocumentsFailCompaction(t *testing.T) {
	s, base := openStore(t, Config{GapAware: true})
	insertDocs(t, s, 0, 2)
	data, err := os.ReadFile(base + ".catalog")
	if err != nil {
		t.Fatal(err)
	}
	corrupt := strings.Replace(string(data), `"roots":[`, `"roots":[1,`, 1)
	if corrupt == string(data) {
		t.Fatal("base catalog has no document roots to corrupt")
	}
	if err := os.WriteFile(base+".catalog", []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	before, _ := s.CurrentEpoch()
	if err := s.CompactNow(); err == nil || !strings.Contains(err.Error(), "document catalog") {
		t.Fatalf("compaction over a corrupt document catalog: %v", err)
	}
	if after, _ := s.CurrentEpoch(); after != before {
		t.Fatalf("a failed compaction published epoch %d", after)
	}
	s.Close() //nolint:errcheck
	if s2, err := Open(Config{DBPath: base, GapAware: true}); err == nil {
		s2.Close() //nolint:errcheck
		t.Fatal("reopened over a corrupt document catalog")
	}
}
