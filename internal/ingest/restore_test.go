package ingest

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/xmltree"
)

// TestStoredOrderAfterSlotReuse pins the order tag relations are stored
// in: the order of insertion, not document order, once an insert takes a
// free slot before a later document's region. Document inserts never do —
// the collection root only appends — but an element insert inside an
// earlier document does. Documents a and b of three books are inserted,
// then a fourth book under a's lib, which takes the free slot of its
// four-slot range, in a's region, before b's. The stored
// book relation lists the base's books, a's, b's and then the new one, so
// its last book comes after b's while it starts before them — and the
// relation claims neither to be sorted nor to be in document order.
func TestStoredOrderAfterSlotReuse(t *testing.T) {
	base := buildBaseDB(t, t.TempDir(), libraryDocs(1, 4))
	s, err := Open(Config{DBPath: base, GapAware: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	books := "<lib>" + strings.Repeat("<book><title/></book>", 3) + "</lib>"
	apply := func(batch ...Op) {
		t.Helper()
		if _, err := s.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	apply(Op{Op: "insert_doc", Doc: "a", XML: books})
	apply(Op{Op: "insert_doc", Doc: "b", XML: books})
	apply(Op{Op: "insert_element", Parent: uint64(docRootCode(t, s, "a")), Tag: "book"})
	s.mu.Lock()
	added := s.forest.Elements("book")[10].Code
	s.mu.Unlock()
	if b := docRootCode(t, s, "b"); added.Start() >= b.Start() {
		t.Fatalf("the new book starts at %d, b's root at %d: it did not land before b", added.Start(), b.Start())
	}
	_, path := s.CurrentEpoch()
	eng, rels := openEpoch(t, path)
	defer eng.Close()
	r := rels[relPrefix+"book"]
	codes, err := r.Codes()
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	want := s.forest.Codes("book")
	s.mu.Unlock()
	if !slices.Equal(codes, want) {
		t.Fatalf("stored book codes %v, want the forest's insertion order %v", codes, want)
	}
	descents := 0
	for i := 1; i < len(codes); i++ {
		if codes[i].Start() < codes[i-1].Start() {
			descents++
		}
	}
	if st := s.Stats(); len(codes) != 11 || descents != 1 || r.Ordered() || st.RenumbersScoped+st.RenumbersGlobal != 0 {
		t.Fatalf("book: %d codes, %d out of start order, Ordered() %v, %+v; want 11, 1, false, no renumber",
			len(codes), descents, r.Ordered(), st)
	}
}

// TestCommitDifferential holds every commit of a seeded random batch
// sequence to the compare-based reference: inserted and replaced
// documents, element inserts, deletes and retags, scoped renumbers and
// global re-encodes (the naive coder runs out of slots quickly), and
// between commits compactions, a store reopen and rolled-back batches.
// After each commit every relation the commit re-stored holds the
// forest's whole tag list, record for record, on as many pages as a plain
// Load of it; it shares exactly the pages Relation.SharedPrefix — which
// compares every record — finds in the relation it replaced; and Fsck,
// which checks each catalog entry against its pages, finds the epoch
// clean.
func TestCommitDifferential(t *testing.T) {
	dir := t.TempDir()
	base := buildBaseDB(t, dir, libraryDocs(4, 250))
	cfg := Config{DBPath: base, BufferPages: 256}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }() //nolint:errcheck // test teardown
	rng := rand.New(rand.NewSource(36))
	tags := []string{"lib", "book", "title", "author", "note", "year"}
	randDoc := func() string {
		var b strings.Builder
		var emit func(depth int)
		emit = func(depth int) {
			tag := tags[rng.Intn(len(tags))]
			b.WriteString("<" + tag + ">")
			for n := rng.Intn(4 - depth); depth < 3 && n > 0; n-- {
				emit(depth + 1)
			}
			b.WriteString("</" + tag + ">")
		}
		emit(0)
		return b.String()
	}
	// live picks a random element below the document roots.
	live := func() *xmltree.Element {
		s.mu.Lock()
		defer s.mu.Unlock()
		var inner []*xmltree.Element
		s.forest.Walk(func(e *xmltree.Element) bool {
			if e.Parent != nil && e.Parent != s.forest.Root {
				inner = append(inner, e)
			}
			return true
		})
		if len(inner) == 0 {
			return nil
		}
		return inner[rng.Intn(len(inner))]
	}
	var docs []string
	var scoped, global, rolledBack uint64
	nextDoc := 0
	for step := 0; step < 60; step++ {
		var batch []Op
		switch {
		case step == 20:
			// A batch that fails after mutating the forest rolls back.
			batch = []Op{{Op: "insert_doc", Doc: "dup", XML: randDoc()}, {Op: "insert_doc", Doc: "dup", XML: randDoc()}}
		case step%7 == 3 && len(docs) > 0:
			// Replace a document.
			i := rng.Intn(len(docs))
			batch = []Op{{Op: "delete_doc", Doc: docs[i]}, {Op: "insert_doc", Doc: docs[i], XML: randDoc()}}
		case step%5 == 4:
			// A burst under one parent forces the naive coder to renumber.
			if p := live(); p != nil {
				for range 6 {
					batch = append(batch, Op{Op: "insert_element", Parent: uint64(p.Code), Tag: tags[rng.Intn(len(tags))]})
				}
			}
		default:
			for range 1 + rng.Intn(3) {
				switch r := rng.Intn(5); {
				case r < 2:
					name := fmt.Sprintf("d%d", nextDoc)
					nextDoc++
					docs = append(docs, name)
					batch = append(batch, Op{Op: "insert_doc", Doc: name, XML: randDoc()})
				case r == 2:
					if e := live(); e != nil {
						batch = append(batch, Op{Op: "insert_element", Parent: uint64(e.Code), Tag: tags[rng.Intn(len(tags))]})
					}
				case r == 3:
					if e := live(); e != nil && len(e.Children) == 0 {
						batch = append(batch, Op{Op: "delete_element", Code: uint64(e.Code)})
					}
				default:
					if e := live(); e != nil {
						batch = append(batch, Op{Op: "update_element", Code: uint64(e.Code), Tag: tags[rng.Intn(len(tags))]})
					}
				}
			}
		}
		if len(batch) == 0 {
			continue
		}
		// The relations the commit will re-store over, on the commit engine
		// as it stands once any compaction has been picked up.
		s.mu.Lock()
		if _, _, err := s.engine(); err != nil {
			t.Fatal(err)
		}
		before := maps.Clone(s.rels)
		s.mu.Unlock()
		res, err := s.Apply(batch)
		if err != nil {
			if step != 20 {
				t.Fatalf("step %d: %v", step, err)
			}
			rolledBack++
			continue
		}
		scoped += res.RenumbersScoped
		global += res.RenumbersGlobal
		checkRestored(t, fmt.Sprintf("step %d", step), s, before)

		switch {
		case step%9 == 8:
			if err := s.CompactNow(); err != nil {
				t.Fatalf("step %d: compact: %v", step, err)
			}
		case step == 30:
			s.Close() //nolint:errcheck // reopened at once
			if s, err = Open(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if scoped == 0 || global == 0 || rolledBack == 0 {
		t.Fatalf("%d scoped renumbers, %d global re-encodes, %d rolled-back batches: the sequence did not exercise them all", scoped, global, rolledBack)
	}
}

// checkRestored compares the relations the last commit re-stored over
// before with the reference (see TestCommitDifferential), and Fscks the
// epoch.
func checkRestored(t *testing.T, what string, s *Store, before map[string]*containment.Relation) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, err := containment.NewEngine(containment.Config{PageSize: s.eng.PageSize(), BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	restored := 0
	for name, r := range s.rels {
		old := before[name]
		if old == r {
			continue
		}
		restored++
		tag, _ := strings.CutPrefix(name, relPrefix)
		want := s.forest.Codes(tag)
		got, err := r.Codes()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %s holds %d codes, the forest %d, or in another order", what, name, len(got), len(want))
		}
		plain, err := ref.Load(name, want)
		if err != nil {
			t.Fatal(err)
		}
		if r.Pages() != plain.Pages() {
			t.Fatalf("%s: %s on %d pages, a plain Load on %d", what, name, r.Pages(), plain.Pages())
		}
		var oracle int64
		if old != nil {
			if oracle, err = old.SharedPrefix(want); err != nil {
				t.Fatal(err)
			}
		}
		if r.SharedPages() != oracle {
			t.Fatalf("%s: %s shares %d pages, SharedPrefix finds %d", what, name, r.SharedPages(), oracle)
		}
		// A plain Load finds the codes' order exactly; the commit must never
		// claim an order they are not in, and keeps the claim of an ordered
		// relation it only appended to.
		if r.Ordered() && !plain.Ordered() {
			t.Fatalf("%s: %s claims document order, which its codes are not in", what, name)
		}
		if old != nil && old.Ordered() && plain.Ordered() && !r.Ordered() {
			prev, err := old.Codes()
			if err != nil {
				t.Fatal(err)
			}
			if len(prev) <= len(want) && slices.Equal(prev, want[:len(prev)]) {
				t.Fatalf("%s: %s lost its order claim to a pure append", what, name)
			}
		}
	}
	if restored == 0 {
		t.Fatalf("%s: the commit re-stored nothing", what)
	}
	rep, err := containment.Fsck(s.cur)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("%s: fsck: %+v", what, rep)
	}
}

// TestCommitCostIndependentOfBase: a commit that inserts a document costs
// what the document does, whatever the size of the relations it appends
// to. Over bases whose relations are 8 times apart, each of 16 one-document
// commits makes as many page requests of the commit engine, within 10 %
// plus two per tag the commit re-stores, and the commits allocate as many
// bytes, on average within 10 % plus two pages per tag: averaged, because
// the forest's maps grow by doubling, on other commits over each base.
// Both bases hold one deep document, so that the collection's PBiTree has
// the same height over both and a new document finds its slot alike.
func TestCommitCostIndependentOfBase(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no collection inside a measurement
	type cost struct{ fetches, bytes []float64 }
	measure := func(books int) cost {
		// 40 documents leave the collection root room for 17 more.
		docs := libraryDocs(40, books)
		docs["deep"] = strings.Repeat("<x>", 24) + strings.Repeat("</x>", 24)
		base := buildBaseDB(t, t.TempDir(), docs)
		s, err := Open(Config{DBPath: base, GapAware: true, BufferPages: 1024})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close() //nolint:errcheck // test teardown
		var c cost
		var ms runtime.MemStats
		for i := 0; i < 17; i++ {
			s.mu.Lock()
			eng, _, err := s.engine()
			s.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			io := eng.IOStats()
			runtime.ReadMemStats(&ms)
			alloc := ms.TotalAlloc
			res, err := s.Apply([]Op{{Op: "insert_doc", Doc: fmt.Sprintf("small%d", i), XML: smallDoc}})
			if err != nil {
				t.Fatal(err)
			}
			if res.RenumbersScoped+res.RenumbersGlobal != 0 {
				t.Fatalf("commit %d renumbered", i)
			}
			runtime.ReadMemStats(&ms)
			after := eng.IOStats()
			if i == 0 {
				continue // the first commit opens the commit engine
			}
			c.fetches = append(c.fetches, float64(after.PoolHits+after.PoolMisses-io.PoolHits-io.PoolMisses))
			c.bytes = append(c.bytes, float64(ms.TotalAlloc-alloc))
		}
		return c
	}
	small, large := measure(25), measure(200)
	t.Logf("per commit, small base then 8x: page requests %v / %v, bytes %v / %v", small.fetches, large.fetches, small.bytes, large.bytes)
	for i := range small.fetches {
		if f, g := small.fetches[i], large.fetches[i]; math.Abs(g-f) > f*0.10+2*smallDocTags {
			t.Errorf("commit %d: %.0f page requests over the 8x base, %.0f over the small one", i+1, g, f)
		}
	}
	const page = 512 // buildBaseDB's page size
	mean := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	if b, g := mean(small.bytes), mean(large.bytes); math.Abs(g-b) > b*0.10+2*page*smallDocTags {
		t.Errorf("a commit allocates %.0f bytes over the 8x base, %.0f over the small one", g, b)
	}
}
