package ingest

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// buildBaseDB saves a self-contained v1 database from named XML documents,
// the way `pbidb build` does: one relation per tag plus the document
// catalog.
func buildBaseDB(t testing.TB, dir string, docs map[string]string) string {
	t.Helper()
	return buildBaseDBFormat(t, dir, docs, false)
}

// buildBaseDBFormat is buildBaseDB with the page format chosen: the
// fixed-width pages earlier versions wrote when paper is set — commits on
// top of such a base then extend its relations with packed pages — packed
// ones otherwise.
func buildBaseDBFormat(t testing.TB, dir string, docs map[string]string, paper bool) string {
	t.Helper()
	coll := xmltree.NewCollection()
	names := make([]string, 0, len(docs))
	for name := range docs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := coll.AddDocument(name, strings.NewReader(docs[name]), xmltree.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "base.pbidb")
	eng, err := containment.NewEngine(containment.Config{
		Path: path, PageSize: 512, BufferPages: 64, TreeHeight: coll.Height(), PaperLayout: paper,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rels []*containment.Relation
	var tags []string
	for tag := range coll.Document().Tags() {
		if strings.HasPrefix(tag, "#") {
			continue
		}
		r, err := eng.Load(relPrefix+tag, coll.Codes(tag))
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, r)
		tags = append(tags, tag)
	}
	var infos []containment.DocInfo
	for _, name := range coll.Names() {
		root, err := coll.RootCode(name)
		if err != nil {
			t.Fatal(err)
		}
		var elems int64
		for _, tag := range tags {
			codes, err := coll.CodesIn(name, tag)
			if err != nil {
				t.Fatal(err)
			}
			elems += int64(len(codes))
		}
		infos = append(infos, containment.DocInfo{Name: name, Root: root, Elements: elems})
	}
	if err := eng.SaveDocs(infos, rels...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// storedTagCodes reopens the store's current epoch read-only and returns
// every stored (tag, code) pair, for comparison against the live forest.
func storedTagCodes(t testing.TB, s *Store) map[string][]uint64 {
	t.Helper()
	_, path := s.CurrentEpoch()
	eng, rels := openEpoch(t, path)
	defer eng.Close()
	return readTagCodes(t, rels)
}

// forestTagCodes snapshots the live forest's (tag, code) pairs.
func forestTagCodes(s *Store) map[string][]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string][]uint64{}
	for tag := range s.forest.Tags() {
		if tag == s.forest.Root.Tag {
			continue
		}
		var us []uint64
		for _, c := range s.forest.Codes(tag) {
			us = append(us, uint64(c))
		}
		if len(us) == 0 {
			continue // retag/delete can leave an empty tag bucket behind
		}
		sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
		out[tag] = us
	}
	return out
}

func assertStoreMatchesEpoch(t *testing.T, s *Store) {
	t.Helper()
	sameTagCodes(t, "stored epoch against the forest", storedTagCodes(t, s), forestTagCodes(s))
}

func keys(m map[string][]uint64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

var baseDocs = map[string]string{
	"books": `<lib><book><title/><author/></book><book><title/></book></lib>`,
	"news":  `<feed><item><title/></item><item><title/><body/></item></feed>`,
}

func openStore(t *testing.T, cfg Config) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	base := buildBaseDB(t, dir, baseDocs)
	cfg.DBPath = base
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() }) //nolint:errcheck
	return s, base
}

func TestApplyLifecycle(t *testing.T) {
	s, _ := openStore(t, Config{GapAware: true})
	if ep, _ := s.CurrentEpoch(); ep != 0 {
		t.Fatalf("fresh store at epoch %d", ep)
	}

	// Insert a document: epoch 1, forest and stored codes agree.
	res, err := s.Apply([]Op{{Op: "insert_doc", Doc: "mail", XML: `<mbox><msg><subj/></msg></mbox>`}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || res.Applied != 1 {
		t.Fatalf("commit result %+v", res)
	}
	assertStoreMatchesEpoch(t, s)
	st := s.Stats()
	if st.Documents != 3 || st.Epoch != 1 {
		t.Fatalf("stats after insert_doc: %+v", st)
	}

	// The new document is queryable from the published epoch: mbox contains
	// msg contains subj.
	_, path := s.CurrentEpoch()
	eng, rels, err := containment.Open(containment.Config{Path: path, ReadOnly: true, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	resJoin, err := eng.Join(rels["tag:mbox"], rels["tag:subj"], containment.JoinOptions{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resJoin.Pairs) != 1 {
		t.Fatalf("mbox⊐subj join: %d pairs, want 1", len(resJoin.Pairs))
	}
	eng.Close()

	// Insert an element under an existing one, retag it, then delete it.
	s.mu.Lock()
	var msg *xmltree.Element
	for _, e := range s.forest.Elements("msg") {
		msg = e
	}
	s.mu.Unlock()
	res, err = s.Apply([]Op{{Op: "insert_element", Parent: uint64(msg.Code), Tag: "cc"}})
	if err != nil {
		t.Fatal(err)
	}
	assertStoreMatchesEpoch(t, s)
	s.mu.Lock()
	cc := s.forest.Elements("cc")[0]
	ccCode := uint64(cc.Code)
	s.mu.Unlock()
	if got := s.DocFor(ccCode); got != "mail" {
		t.Fatalf("DocFor(cc) = %q, want mail", got)
	}
	if _, err = s.Apply([]Op{{Op: "update_element", Code: ccCode, Tag: "bcc"}}); err != nil {
		t.Fatal(err)
	}
	assertStoreMatchesEpoch(t, s)
	if _, err = s.Apply([]Op{{Op: "delete_element", Code: ccCode}}); err != nil {
		t.Fatal(err)
	}
	assertStoreMatchesEpoch(t, s)

	// Delete the document; its tags vanish from the catalog.
	if _, err = s.Apply([]Op{{Op: "delete_doc", Doc: "mail"}}); err != nil {
		t.Fatal(err)
	}
	assertStoreMatchesEpoch(t, s)
	if got := storedTagCodes(t, s); got["mbox"] != nil {
		t.Fatalf("deleted document's tag still stored: %v", got["mbox"])
	}
	st = s.Stats()
	if st.Documents != 2 {
		t.Fatalf("documents after delete_doc: %d", st.Documents)
	}

	// Epoch history is published in the manifest.
	eps := s.Epochs()
	if len(eps) == 0 || eps[len(eps)-1].Epoch != 5 {
		t.Fatalf("epochs: %+v", eps)
	}
}

func TestApplyRollback(t *testing.T) {
	s, _ := openStore(t, Config{GapAware: true})
	before := forestTagCodes(s)
	ep0, _ := s.CurrentEpoch()

	_, err := s.Apply([]Op{
		{Op: "insert_doc", Doc: "x", XML: `<x><y/></x>`}, // fine
		{Op: "delete_doc", Doc: "no-such-doc"},           // fails
	})
	if err == nil {
		t.Fatal("bad batch committed")
	}
	if ep, _ := s.CurrentEpoch(); ep != ep0 {
		t.Fatalf("failed batch advanced the epoch: %d -> %d", ep0, ep)
	}
	after := forestTagCodes(s)
	if len(after) != len(before) {
		t.Fatalf("rollback left forest changed: %v vs %v", keys(after), keys(before))
	}
	for tag, w := range before {
		g := after[tag]
		if len(g) != len(w) {
			t.Fatalf("rollback: tag %q has %d codes, want %d", tag, len(g), len(w))
		}
	}
	// The store still works after a rollback.
	if _, err := s.Apply([]Op{{Op: "insert_doc", Doc: "x", XML: `<x><y/></x>`}}); err != nil {
		t.Fatal(err)
	}
	assertStoreMatchesEpoch(t, s)
}

func TestApplyValidation(t *testing.T) {
	s, _ := openStore(t, Config{})
	s.mu.Lock()
	collectionRoot := uint64(s.forest.Root.Code)
	docRoot := uint64(s.docs[0].root.Code)
	s.mu.Unlock()
	cases := [][]Op{
		{},
		{{Op: "no_such_op"}},
		{{Op: "insert_doc", Doc: "books", XML: `<a/>`}},            // duplicate name
		{{Op: "insert_doc", Doc: "z"}},                             // no payload
		{{Op: "insert_element", Parent: 12345, Tag: "t"}},          // unknown parent
		{{Op: "insert_element", Parent: collectionRoot, Tag: "t"}}, // collection root
		{{Op: "delete_element", Code: docRoot}},                    // doc root
		{{Op: "update_element", Code: docRoot + 999999}},           // missing tag + unknown
	}
	for i, ops := range cases {
		if _, err := s.Apply(ops); err == nil {
			t.Fatalf("case %d: invalid batch %v accepted", i, ops)
		}
	}
	if ep, _ := s.CurrentEpoch(); ep != 0 {
		t.Fatalf("invalid batches advanced the epoch to %d", ep)
	}
}

func TestCompactionFoldsChain(t *testing.T) {
	s, base := openStore(t, Config{GapAware: true, Keep: 1})
	for i := 0; i < 4; i++ {
		xml := fmt.Sprintf(`<d%d><e%d/></d%d>`, i, i, i)
		if _, err := s.Apply([]Op{{Op: "insert_doc", Doc: fmt.Sprintf("doc%d", i), XML: xml}}); err != nil {
			t.Fatal(err)
		}
	}
	before := forestTagCodes(s)
	st := s.Stats()
	if st.ChainLen == 0 {
		t.Fatalf("no delta chain before compaction: %+v", st)
	}

	if err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Compactions != 1 || st.ChainLen != 0 || st.Epoch != 5 {
		t.Fatalf("after compaction: %+v", st)
	}
	_, cur := s.CurrentEpoch()
	if !strings.Contains(filepath.Base(cur), "compact-") {
		t.Fatalf("current epoch is not the compacted base: %s", cur)
	}
	// The compacted base is self-contained (v1): opens with no delta chain,
	// same content.
	eng, _, err := containment.Open(containment.Config{Path: cur, ReadOnly: true, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.DeltaChain()) != 0 {
		t.Fatalf("compacted base has a delta chain: %v", eng.DeltaChain())
	}
	eng.Close()
	got := storedTagCodes(t, s)
	for tag, w := range before {
		g := got[tag]
		if len(g) != len(w) {
			t.Fatalf("compaction changed tag %q: %d codes, want %d", tag, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("compaction changed tag %q code %d", tag, i)
			}
		}
	}
	// CompactNow on a fresh base has nothing to fold.
	if err := s.CompactNow(); err == nil {
		t.Fatal("compacted an empty chain")
	}

	// More commits retire old epochs past Keep; their delta files are
	// garbage-collected, the original database never is.
	for i := 4; i < 8; i++ {
		xml := fmt.Sprintf(`<d%d><e%d/></d%d>`, i, i, i)
		if _, err := s.Apply([]Op{{Op: "insert_doc", Doc: fmt.Sprintf("doc%d", i), XML: xml}}); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.Epochs()) != 2 { // Keep=1 retired + current
		t.Fatalf("epochs retained: %+v", s.Epochs())
	}
	if _, err := os.Stat(filepath.Join(s.dir, "epoch-000001.pbidb.delta")); !os.IsNotExist(err) {
		t.Fatalf("retired epoch delta not collected: %v", err)
	}
	if _, err := os.Stat(base); err != nil {
		t.Fatalf("original database harmed: %v", err)
	}
	// Everything still opens and matches.
	assertStoreMatchesEpoch(t, s)
}

func TestCompactionDaemonAndAbort(t *testing.T) {
	s, _ := openStore(t, Config{
		GapAware: true, CompactAfter: 2, CompactInterval: 20 * time.Millisecond,
	})
	for i := 0; i < 3; i++ {
		xml := fmt.Sprintf(`<d%d><e%d/></d%d>`, i, i, i)
		if _, err := s.Apply([]Op{{Op: "insert_doc", Doc: fmt.Sprintf("doc%d", i), XML: xml}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.Stats(); st.Compactions >= 1 && st.ChainLen == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never compacted: %+v", s.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	assertStoreMatchesEpoch(t, s)

	// A commit racing past the fold aborts the stale compaction: simulate by
	// folding from a snapshot, then publishing a commit before re-locking.
	if _, err := s.Apply([]Op{{Op: "insert_doc", Doc: "race-a", XML: `<ra><rb/></ra>`}}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	srcEpoch, srcPath := s.man.Current, s.cur
	s.mu.Unlock()
	dst := filepath.Join(s.dir, fmt.Sprintf("compact-%06d.pbidb", srcEpoch+1))
	if _, err := s.fold(srcPath, dst); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]Op{{Op: "insert_doc", Doc: "race-b", XML: `<rc><rd/></rc>`}}); err != nil {
		t.Fatal(err)
	}
	// Re-run the publish arm the way CompactNow would: it must detect the
	// newer epoch. (CompactNow refolds from scratch; calling it now sees the
	// new current and succeeds, so check the guard directly.)
	s.mu.Lock()
	stale := s.man.Current != srcEpoch
	s.mu.Unlock()
	if !stale {
		t.Fatal("racing commit did not advance the epoch")
	}
	removeDBFiles(dst)
}

func TestGapAwareReducesRenumbering(t *testing.T) {
	renumbers := func(gap bool) uint64 {
		dir := t.TempDir()
		base := buildBaseDB(t, dir, map[string]string{
			"seed": `<root><hot><a/></hot><cold/></root>`,
		})
		s, err := Open(Config{DBPath: base, GapAware: gap, Headroom: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close() //nolint:errcheck
		// Sustained inserts under one hot parent: the naive packing has no
		// slack, so every few inserts force a renumber; gap-aware headroom
		// plus the overflow region amortizes them.
		rng := rand.New(rand.NewSource(7))
		var hot uint64
		s.mu.Lock()
		hot = uint64(s.forest.Elements("hot")[0].Code)
		s.mu.Unlock()
		for i := 0; i < 60; i++ {
			ops := []Op{{Op: "insert_element", Parent: hot, Tag: fmt.Sprintf("t%d", rng.Intn(8))}}
			if _, err := s.Apply(ops); err != nil {
				t.Fatal(err)
			}
			// Renumbering may have moved the hot parent; chase it.
			s.mu.Lock()
			hot = uint64(s.forest.Elements("hot")[0].Code)
			s.mu.Unlock()
		}
		st := s.Stats()
		return st.RenumbersScoped + st.RenumbersGlobal
	}
	naive := renumbers(false)
	gap := renumbers(true)
	t.Logf("renumbers over 60 hot-parent inserts: naive=%d gap-aware=%d", naive, gap)
	if gap >= naive {
		t.Fatalf("gap-aware coding did not reduce renumbering: naive=%d gap=%d", naive, gap)
	}
}

func TestReopenResumesEpochFamily(t *testing.T) {
	dir := t.TempDir()
	base := buildBaseDB(t, dir, baseDocs)
	s, err := Open(Config{DBPath: base, GapAware: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply([]Op{{Op: "insert_doc", Doc: "extra", XML: `<ex><ey/></ex>`}}); err != nil {
		t.Fatal(err)
	}
	want := forestTagCodes(s)
	ep, _ := s.CurrentEpoch()
	s.Close() //nolint:errcheck

	// A second Open resumes from the manifest, not from epoch 0.
	s2, err := Open(Config{DBPath: base, GapAware: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close() //nolint:errcheck
	if ep2, _ := s2.CurrentEpoch(); ep2 != ep {
		t.Fatalf("reopen at epoch %d, want %d", ep2, ep)
	}
	got := forestTagCodes(s2)
	for tag, w := range want {
		g := got[tag]
		if len(g) != len(w) {
			t.Fatalf("reopen: tag %q has %d codes, want %d", tag, len(g), len(w))
		}
	}
	st := s2.Stats()
	if st.Documents != 3 {
		t.Fatalf("reopen lost documents: %+v", st)
	}
	// Document names survive via the catalog.
	if got := s2.DocFor(uint64(docRootCode(t, s2, "extra"))); got != "extra" {
		t.Fatalf("DocFor(extra root) = %q", got)
	}
}

func docRootCode(t *testing.T, s *Store, name string) pbicode.Code {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.docs {
		if d.name == name {
			return d.root.Code
		}
	}
	t.Fatalf("no document %q", name)
	return 0
}

// TestPublishHooksInOrder races commits against compactions and holds the
// publish hook to publication order: the epochs it is called with strictly
// increase, every publication reaches it exactly once, and a commit
// returns only after its own epoch's hook has run. The hook dawdles a
// little so that a delivery out of order would have time to overtake it.
func TestPublishHooksInOrder(t *testing.T) {
	s, _ := openStore(t, Config{GapAware: true})
	var mu sync.Mutex
	var seen []int64
	s.SetOnPublish(func(epoch int64, _ string) {
		time.Sleep(50 * time.Microsecond)
		mu.Lock()
		seen = append(seen, epoch)
		mu.Unlock()
	})
	const writers, commits = 4, 15
	var wg sync.WaitGroup
	errs := make(chan error, writers*commits)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				doc := fmt.Sprintf("w%d-%d", w, i)
				res, err := s.Apply([]Op{{Op: "insert_doc", Doc: doc, XML: `<lib><book><title/></book></lib>`}})
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				last := seen[len(seen)-1]
				mu.Unlock()
				if last < res.Epoch {
					errs <- fmt.Errorf("commit of epoch %d returned before its hook ran (last hook: epoch %d)", res.Epoch, last)
				}
			}
		}()
	}
	stop := make(chan struct{})
	compacted := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				compacted <- n
				return
			default:
			}
			if s.CompactNow() == nil {
				n++
			}
		}
	}()
	wg.Wait()
	close(stop)
	compactions := <-compacted
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	cur, _ := s.CurrentEpoch()
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("hook %d saw epoch %d after epoch %d", i, seen[i], seen[i-1])
		}
	}
	if want := writers*commits + compactions; len(seen) != want || seen[len(seen)-1] != cur {
		t.Fatalf("%d hook calls ending at epoch %d; want %d (%d commits + %d compactions) ending at %d",
			len(seen), seen[len(seen)-1], want, writers*commits, compactions, cur)
	}
}
