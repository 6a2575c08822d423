package ingest

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/storage"
	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// libraryDocs returns n documents of books×4+1 elements each over five
// tags; ten of a hundred books make a base of ≈17 packed pages at
// buildBaseDB's 512-byte page (≈130 in the fixed-width layout of 31 records
// a page), ten of seven hundred ≈120.
func libraryDocs(n, books int) map[string]string {
	docs := map[string]string{}
	for i := 0; i < n; i++ {
		docs[fmt.Sprintf("lib%02d", i)] = "<lib>" + strings.Repeat("<book><title/><author/><year/></book>", books) + "</lib>"
	}
	return docs
}

// smallDoc is a 12-element document over six tags, four of them the
// library's own — the shape of one ingest_mix insert.
const smallDoc = `<lib><book><title/><author/><year/></book><book><title/><author/></book><book><title/><note/><note/></book></lib>`

const smallDocTags = 6

// openEpoch opens the epoch database at path on an engine of its own.
func openEpoch(t testing.TB, path string) (*containment.Engine, map[string]*containment.Relation) {
	t.Helper()
	eng, rels, err := containment.Open(containment.Config{Path: path, ReadOnly: true, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	return eng, rels
}

// readTagCodes returns every tag relation's stored codes, sorted like
// forestTagCodes.
func readTagCodes(t testing.TB, rels map[string]*containment.Relation) map[string][]uint64 {
	t.Helper()
	out := map[string][]uint64{}
	for name, r := range rels {
		tag, ok := strings.CutPrefix(name, relPrefix)
		if !ok {
			continue
		}
		codes, err := r.Codes()
		if err != nil {
			t.Fatal(err)
		}
		us := make([]uint64, len(codes))
		for i, c := range codes {
			us[i] = uint64(c)
		}
		slices.Sort(us)
		out[tag] = us
	}
	return out
}

func sameTagCodes(t *testing.T, what string, got, want map[string][]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tags, want %d (%v vs %v)", what, len(got), len(want), keys(got), keys(want))
	}
	for tag, w := range want {
		g := got[tag]
		if len(g) != len(w) {
			t.Fatalf("%s: tag %q has %d codes, want %d", what, tag, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: tag %q code %d is %d, want %d", what, tag, i, g[i], w[i])
			}
		}
	}
}

// oracleJoin counts ancestor/descendant pairs by definition.
func oracleJoin(anc, desc []uint64) int64 {
	var n int64
	for _, a := range anc {
		for _, d := range desc {
			if pbicode.IsAncestor(pbicode.Code(a), pbicode.Code(d)) {
				n++
			}
		}
	}
	return n
}

var isolationJoins = [][2]string{{"lib", "title"}, {"book", "author"}, {"book", "note"}}

// checkEpochAnswers compares an open epoch's stored codes and join counts
// with the forest snapshot taken when that epoch was committed.
func checkEpochAnswers(t *testing.T, what string, eng *containment.Engine, rels map[string]*containment.Relation, want map[string][]uint64) {
	t.Helper()
	if err := eng.DropCache(); err != nil { // answer from storage, not from pages cached earlier
		t.Fatal(err)
	}
	sameTagCodes(t, what, readTagCodes(t, rels), want)
	for _, j := range isolationJoins {
		a, d := rels[relPrefix+j[0]], rels[relPrefix+j[1]]
		if a == nil || d == nil {
			t.Fatalf("%s: relation for //%s//%s missing", what, j[0], j[1])
		}
		res, err := eng.Join(a, d, containment.JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if wantN := oracleJoin(want[j[0]], want[j[1]]); res.Count != wantN {
			t.Fatalf("%s: //%s//%s = %d pairs, oracle %d", what, j[0], j[1], res.Count, wantN)
		}
	}
}

// TestEpochsShareNothingMutable is snapshot isolation across commits that
// share pages: an engine held open on epoch N keeps answering N's codes and
// join counts while N+1 and N+2 extend the very tags it reads — their deltas
// reference N's pages by ID and must never have written one — and each of
// the three epochs, opened fresh, equals the forest as it stood at its
// commit.
func TestEpochsShareNothingMutable(t *testing.T) {
	// compress=false is a base of the fixed-width pages earlier versions
	// wrote, which the commits extend with packed ones; compress=true is
	// packed throughout.
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			base := buildBaseDBFormat(t, t.TempDir(), libraryDocs(10, 100), !compress)
			s, err := Open(Config{DBPath: base, GapAware: true})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close() //nolint:errcheck
			type epoch struct {
				path string
				want map[string][]uint64
			}
			var epochs []epoch
			commit := func(i int) {
				res, err := s.Apply([]Op{{Op: "insert_doc", Doc: fmt.Sprintf("new%d", i), XML: smallDoc}})
				if err != nil {
					t.Fatal(err)
				}
				epochs = append(epochs, epoch{res.Path, forestTagCodes(s)})
			}
			commit(0)
			held, heldRels := openEpoch(t, epochs[0].path)
			defer held.Close()
			checkEpochAnswers(t, "epoch N before later commits", held, heldRels, epochs[0].want)
			commit(1)
			commit(2)
			if st := s.Stats(); st.SharedPages == 0 {
				t.Fatalf("commits shared no pages, so isolation of shared pages was not exercised: %+v", st)
			}
			checkEpochAnswers(t, "epoch N after N+1 and N+2", held, heldRels, epochs[0].want)
			for i, ep := range epochs {
				eng, rels := openEpoch(t, ep.path)
				checkEpochAnswers(t, fmt.Sprintf("epoch N+%d reopened", i), eng, rels, ep.want)
				eng.Close()
			}
		})
	}
}

// TestCommitWritesChangeNotRelation is the size guard: a 12-element
// document inserted into a base of more than a hundred pages re-stores six
// tag relations, and its delta holds the rewritten tail page and at most
// one new page of each — not the relations.
func TestCommitWritesChangeNotRelation(t *testing.T) {
	base := buildBaseDB(t, t.TempDir(), libraryDocs(10, 700))
	eng, rels, err := containment.Open(containment.Config{Path: base, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	var basePages int64
	for _, r := range rels {
		basePages += r.Pages()
	}
	eng.Close()
	if basePages < 100 {
		t.Fatalf("base has %d pages; the guard needs at least 100", basePages)
	}

	s, err := Open(Config{DBPath: base, GapAware: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	res, err := s.Apply([]Op{{Op: "insert_doc", Doc: "small", XML: smallDoc}})
	if err != nil {
		t.Fatal(err)
	}
	pages, _, err := storage.VerifyDelta(res.Path + ".delta")
	if err != nil {
		t.Fatal(err)
	}
	if limit := 2*smallDocTags + 2; pages > limit {
		t.Fatalf("a 12-element insert into a %d-page base wrote a %d-page delta, want at most %d", basePages, pages, limit)
	}
	t.Logf("%d-page base, %d re-stored tags: %d-page delta", basePages, smallDocTags, pages)
	assertStoreMatchesEpoch(t, s)

	// The counters tell the same story as the file.
	st := s.Stats()
	if st.DeltaPages != uint64(pages) {
		t.Fatalf("Stats.DeltaPages %d, the delta file holds %d", st.DeltaPages, pages)
	}
	if st.SharedPages == 0 || int64(st.SharedPages) > basePages {
		t.Fatalf("Stats.SharedPages %d of a %d-page base", st.SharedPages, basePages)
	}
	eps := s.Epochs()
	if last := eps[len(eps)-1]; last.DeltaPages != int64(pages) {
		t.Fatalf("manifest records %d delta pages, the file holds %d", last.DeltaPages, pages)
	}
}

// TestGrowCommitWritesTail: a commit whose document insert grows the
// collection root writes what the same insert writes into a root grown
// beforehand — the tail pages of the relations it appends to, and no page
// more: the grow moves no stored code, so no relation is re-stored for it.
func TestGrowCommitWritesTail(t *testing.T) {
	commit := func(pregrow bool) (*CommitResult, Stats, map[string][]uint64) {
		// Eight documents fill their packed root's eight slots.
		s, err := Open(Config{DBPath: buildBaseDB(t, t.TempDir(), libraryDocs(8, 700)), GapAware: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close() //nolint:errcheck
		if si := rootSlots(t, s); si.Used.Next() != si.Capacity {
			t.Fatalf("the base's root has %d of %d slots before its last free", si.Used.Next(), si.Capacity)
		}
		if pregrow {
			s.mu.Lock()
			err := s.forest.GrowRoot()
			s.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Apply([]Op{{Op: "insert_doc", Doc: "small", XML: smallDoc}})
		if err != nil {
			t.Fatal(err)
		}
		assertStoreMatchesEpoch(t, s)
		return res, s.Stats(), storedTagCodes(t, s)
	}
	grew, st, codes := commit(false)
	pre, preSt, preCodes := commit(true)
	if st.RootGrows != 1 || preSt.RootGrows != 0 || grew.RenumbersGlobal+grew.RenumbersScoped != 0 || st.TreeHeight != preSt.TreeHeight {
		t.Fatalf("growing in the commit: %+v; grown before it: %+v", st, preSt)
	}
	sameTagCodes(t, "the grown commit against the pre-grown one", codes, preCodes)
	pages, _, err := storage.VerifyDelta(grew.Path + ".delta")
	if err != nil {
		t.Fatal(err)
	}
	prePages, _, err := storage.VerifyDelta(pre.Path + ".delta")
	if err != nil {
		t.Fatal(err)
	}
	if pages != prePages || st.DeltaPages != preSt.DeltaPages || st.SharedPages != preSt.SharedPages || pages > 2*smallDocTags+2 {
		t.Fatalf("growing in the commit: %d-page delta, %d shared pages; grown before it: %d, %d; want equal and at most %d",
			pages, st.SharedPages, prePages, preSt.SharedPages, 2*smallDocTags+2)
	}
}

// TestEpochChainFsckClean: every epoch of a 20-commit chain of mixed
// batches, folded by a compaction half way, passes Fsck and stores exactly
// the forest — the sharing of pages across deltas, and across the fold,
// leaves nothing dangling.
func TestEpochChainFsckClean(t *testing.T) {
	// Four documents of 200 books: every tag relation but the roots' spans
	// several pages, so commits and the fold have closed pages to share.
	base := buildBaseDB(t, t.TempDir(), libraryDocs(4, 200))
	s, err := Open(Config{DBPath: base, GapAware: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	check := func(what string) {
		t.Helper()
		for _, e := range s.Epochs() {
			rep, err := containment.Fsck(resolve(s.dir, &e))
			if err != nil {
				t.Fatalf("%s: fsck epoch %d: %v", what, e.Epoch, err)
			}
			if !rep.OK() {
				t.Fatalf("%s: fsck epoch %d not clean: %+v", what, e.Epoch, rep)
			}
		}
		assertStoreMatchesEpoch(t, s)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 20; i++ {
		var ops []Op
		switch i % 4 {
		case 0, 1:
			ops = []Op{{Op: "insert_doc", Doc: fmt.Sprintf("d%02d", i), XML: smallDoc}}
		case 2:
			s.mu.Lock()
			books := s.forest.Codes("book")
			parent := uint64(books[rng.Intn(len(books))])
			s.mu.Unlock()
			ops = []Op{{Op: "insert_element", Parent: parent, Tag: "note"}}
		case 3:
			ops = []Op{
				{Op: "delete_doc", Doc: fmt.Sprintf("d%02d", i-3)},
				{Op: "insert_doc", Doc: fmt.Sprintf("d%02d", i), XML: smallDoc},
			}
		}
		if _, err := s.Apply(ops); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		check(fmt.Sprintf("after commit %d", i))
		if i == 9 {
			if err := s.CompactNow(); err != nil {
				t.Fatal(err)
			}
			check("after compaction")
		}
	}
	if st := s.Stats(); st.Compactions != 1 || st.Commits != 20 || st.SharedPages == 0 {
		t.Fatalf("chain was not what the test set out to build: %+v", st)
	}
}

// TestCatalogElementsTracked: the per-document element counts a commit
// writes are kept by the ops, not recounted; after random mixed batches —
// inserts and deletes of elements and documents, batches that fail and roll
// back, scoped and global re-encodes — every count, in memory and in the
// published catalog, equals a fresh walk of the document.
func TestCatalogElementsTracked(t *testing.T) {
	dir := t.TempDir()
	docs := map[string]string{"seed": `<root><hot><a/></hot><cold/></root>`}
	for name, xml := range baseDocs {
		docs[name] = xml
	}
	// Naive coding (no headroom), so that hot-parent inserts force re-encodes.
	s, err := Open(Config{DBPath: buildBaseDB(t, dir, docs)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck

	check := func(what string) {
		t.Helper()
		s.mu.Lock()
		want := map[string]int64{}
		for _, d := range s.docs {
			want[d.name] = subtreeSize(d.root)
			if d.elems != want[d.name] {
				s.mu.Unlock()
				t.Fatalf("%s: document %q tracks %d elements, a walk finds %d", what, d.name, d.elems, want[d.name])
			}
		}
		cur := s.cur
		s.mu.Unlock()
		eng, _, err := containment.Open(containment.Config{Path: cur, ReadOnly: true, BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		got, err := eng.Documents()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: catalog lists %d documents, store has %d", what, len(got), len(want))
		}
		for _, d := range got {
			if d.Elements != want[d.Name] {
				t.Fatalf("%s: catalog says document %q has %d elements, a walk finds %d", what, d.Name, d.Elements, want[d.Name])
			}
		}
	}
	// pick returns a random live element with the tag, or nil.
	pick := func(rng *rand.Rand, tag string) *xmltree.Element {
		s.mu.Lock()
		defer s.mu.Unlock()
		cands := s.forest.Elements(tag)
		if len(cands) == 0 {
			return nil
		}
		return cands[rng.Intn(len(cands))]
	}

	rng := rand.New(rand.NewSource(3))
	rollbacks, extra := 0, 0
	for i := 0; i < 120; i++ {
		var ops []Op
		for j := rng.Intn(3) + 1; j > 0; j-- {
			switch r := rng.Intn(10); {
			case r < 6: // grow the hot parent until it runs out of slots
				ops = append(ops, Op{Op: "insert_element", Parent: uint64(pick(rng, "hot").Code), Tag: fmt.Sprintf("t%d", rng.Intn(3))})
			case r < 7: // delete a subtree hung under hot earlier
				if e := pick(rng, fmt.Sprintf("t%d", rng.Intn(3))); e != nil {
					ops = append(ops, Op{Op: "delete_element", Code: uint64(e.Code)})
				}
			case r < 8: // nest: an element under an inserted one
				if p := pick(rng, "t0"); p != nil {
					ops = append(ops, Op{Op: "insert_element", Parent: uint64(p.Code), Tag: "t1"})
				}
			case r < 9:
				ops = append(ops, Op{Op: "insert_doc", Doc: fmt.Sprintf("x%d", extra), XML: smallDoc})
				extra++
			default:
				if extra > 0 {
					ops = append(ops, Op{Op: "delete_doc", Doc: fmt.Sprintf("x%d", rng.Intn(extra))}) // may be gone: rolls back
				}
			}
		}
		if i%10 == 9 { // a batch that mutates, then fails
			ops = append(ops, Op{Op: "delete_doc", Doc: "no-such-document"})
		}
		if len(ops) == 0 {
			continue
		}
		if _, err := s.Apply(ops); err != nil {
			rollbacks++
			check(fmt.Sprintf("after rolled-back batch %d (%v)", i, err))
			continue
		}
		check(fmt.Sprintf("after batch %d", i))
	}
	st := s.Stats()
	if rollbacks == 0 || st.RenumbersGlobal == 0 || st.RenumbersScoped == 0 || st.Deletes == 0 {
		t.Fatalf("the run missed a case it exists for: %d rollbacks, %+v", rollbacks, st)
	}
}

// TestRollupFalseHitsBounded joins ancestor/descendant tag pairs through
// the catalog after commits that insert documents. Gap-aware encoding puts
// a new document's elements far above the base's in the code space, so the
// ancestor sets gain a near-root tail; rolling the base's ancestors up to
// the tail's height would verify a false hit for every pair of a base
// ancestor and a descendant under the same tail-height node. The rollup
// must keep its false hits within its answer, and answer exactly, as must
// AUTO, which takes the sorted row for these ordered relations.
func TestRollupFalseHitsBounded(t *testing.T) {
	base := buildBaseDB(t, t.TempDir(), libraryDocs(10, 20))
	s, err := Open(Config{DBPath: base, GapAware: true, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	for i := 0; i < 6; i++ {
		if _, err := s.Apply([]Op{{Op: "insert_doc", Doc: fmt.Sprintf("new%d", i), XML: smallDoc}}); err != nil {
			t.Fatal(err)
		}
	}
	_, path := s.CurrentEpoch()
	eng, rels := openEpoch(t, path)
	defer eng.Close()
	want := forestTagCodes(s)
	for _, j := range [][2]string{{"book", "author"}, {"book", "title"}, {"book", "year"}} {
		a, d := rels[relPrefix+j[0]], rels[relPrefix+j[1]]
		res, err := eng.Join(a, d, containment.JoinOptions{Algorithm: containment.MHCJRollup})
		if err != nil {
			t.Fatal(err)
		}
		auto, err := eng.Join(a, d, containment.JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantN := oracleJoin(want[j[0]], want[j[1]])
		if res.Count != wantN || auto.Count != wantN {
			t.Fatalf("//%s//%s = %d pairs by the rollup, %d by AUTO (%s), oracle %d", j[0], j[1], res.Count, auto.Count, auto.Algorithm, wantN)
		}
		if res.FalseHits > res.Count {
			t.Errorf("//%s//%s verified %d false hits for %d pairs", j[0], j[1], res.FalseHits, res.Count)
		}
	}
}

// withUntouched adds to docs one document of n tags no commit of these
// tests touches.
func withUntouched(docs map[string]string, n int) map[string]string {
	var b strings.Builder
	b.WriteString("<misc>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<u%02d/>", i)
	}
	b.WriteString("</misc>")
	docs["misc"] = b.String()
	return docs
}

// TestEpochAdvanceAllocs is the in-process budget for an O(change) epoch
// swap: an engine advancing onto the next epoch reads one diff catalog and
// one delta and attaches the relations the commit re-stored, so the
// allocations of one advance may grow neither with the documents nor with
// the relations the commit left alone. They are measured over the same
// commits on a base of 16 documents and 8 untouched tags, on one of twice
// the documents, and on one of 64 untouched tags, and may differ by at
// most 10 %.
func TestEpochAdvanceAllocs(t *testing.T) {
	perAdvance := func(docs, untouched int) float64 {
		base := buildBaseDB(t, t.TempDir(), withUntouched(libraryDocs(docs, 20), untouched))
		s, err := Open(Config{DBPath: base, GapAware: true, BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close() //nolint:errcheck // test teardown
		eng, _ := openEpoch(t, base)
		defer eng.Close()
		const commits = 8
		var total uint64
		var ms runtime.MemStats
		for i := 0; i < commits; i++ {
			if _, err := s.Apply([]Op{{Op: "insert_doc", Doc: fmt.Sprintf("new%d", i), XML: smallDoc}}); err != nil {
				t.Fatal(err)
			}
			_, path := s.CurrentEpoch()
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			if _, err := eng.Advance(path); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			total += ms.Mallocs - before
		}
		return float64(total) / commits
	}
	small, docs, tags := perAdvance(16, 8), perAdvance(32, 8), perAdvance(16, 64)
	t.Logf("allocations per advance: %.1f at 16 documents and 8 untouched tags, %.1f at 32 documents, %.1f at 64 untouched tags", small, docs, tags)
	if docs > small*1.10 {
		t.Errorf("an advance allocates %.1f times at 32 documents, %.1f at 16: more than 10 %% growth", docs, small)
	}
	if tags > small*1.10 {
		t.Errorf("an advance allocates %.1f times with 64 untouched tags, %.1f with 8: more than 10 %% growth", tags, small)
	}
}

// TestCommitCatalogBytes: the catalog a one-document commit writes records
// only what the commit changed, so its size is independent of the
// database: at 256 documents, at 64 tags the commit leaves alone, and at
// both, it stays within 64 bytes of the size at 16 documents and 8 tags
// (the numbers in it grow by a digit or two).
func TestCommitCatalogBytes(t *testing.T) {
	catalogBytes := func(docs, untouched int) int64 {
		base := buildBaseDB(t, t.TempDir(), withUntouched(libraryDocs(docs, 20), untouched))
		s, err := Open(Config{DBPath: base, GapAware: true, BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close() //nolint:errcheck // test teardown
		res, err := s.Apply([]Op{{Op: "insert_doc", Doc: "new", XML: smallDoc}})
		if err != nil {
			t.Fatal(err)
		}
		if res.RenumbersGlobal != 0 {
			t.Fatalf("the insert re-encoded the collection at %d documents", docs)
		}
		st, err := os.Stat(res.Path + ".catalog")
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	small := catalogBytes(16, 8)
	for _, c := range [][2]int{{256, 8}, {16, 64}, {256, 64}} {
		got := catalogBytes(c[0], c[1])
		t.Logf("catalog of a one-document commit: %d bytes at %d documents and %d untouched tags, %d at 16 and 8", got, c[0], c[1], small)
		if got > small+64 {
			t.Errorf("catalog of a one-document commit: %d bytes at %d documents and %d untouched tags, %d at 16 and 8", got, c[0], c[1], small)
		}
	}
}
