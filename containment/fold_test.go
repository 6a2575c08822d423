package containment

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/pbitree/pbitree/pbicode"
)

// foldModel is a collection as the fold test commits it: per tag the codes
// a relation stores, in stored order, each owned by a document.
type foldModel struct {
	docs []DocInfo
	tags map[string][]foldCode
	next uint64 // codes are drawn above it
	rng  *rand.Rand
}

type foldCode struct {
	doc  string
	code pbicode.Code
}

// fresh returns a code above every one drawn before, a random gap above
// the last, so that a relation spans several pages.
func (m *foldModel) fresh() pbicode.Code {
	m.next += 1 + uint64(m.rng.Intn(1<<16))
	return pbicode.Code(m.next)
}

// insert adds a document with a few codes on some tags, appended after
// every stored one, as an insert into a gap does.
func (m *foldModel) insert(name string, tags []string, dirty map[string]bool) {
	doc := DocInfo{Name: name, Root: m.fresh()}
	for _, tag := range tags {
		if m.rng.Intn(2) == 0 {
			continue
		}
		for k := m.rng.Intn(60) + 20; k > 0; k-- {
			m.tags[tag] = append(m.tags[tag], foldCode{name, m.fresh()})
			doc.Elements++
		}
		dirty[tag] = true
	}
	m.docs = append(m.docs, doc)
}

// remove deletes a document and every code it owns.
func (m *foldModel) remove(i int, dirty map[string]bool) {
	name := m.docs[i].Name
	m.docs = slices.Delete(m.docs, i, i+1)
	for tag, codes := range m.tags {
		kept := slices.DeleteFunc(slices.Clone(codes), func(c foldCode) bool { return c.doc == name })
		if len(kept) != len(codes) {
			m.tags[tag], dirty[tag] = kept, true
		}
	}
}

// TestFoldEqualsFull is the differential check of diff catalogs: over a
// random sequence of commits — inserts, replacements, deletes, element
// updates (a code moved to another tag), an in-place Sort, one scoped
// renumber and one global re-encode — every epoch's chain of diffs folds to
// exactly what a full catalog of the same relations records (names, page
// lists, counts, spans, height masks, sorted), and to the same documents in
// the same order; an engine that advances over the chain, sometimes
// several epochs at once, holds the same relations and documents as a fresh
// Open.
func TestFoldEqualsFull(t *testing.T) {
	path, _, _ := buildEpochBase(t)
	dir := filepath.Dir(path)
	rng := rand.New(rand.NewSource(34))
	tags := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	m := &foldModel{tags: map[string][]foldCode{}, next: 1 << 20, rng: rng}

	ce, rels, err := Open(Config{Path: path, BufferPages: 64, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ce.Close()
	follower, _, err := Open(Config{Path: path, BufferPages: 64, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	for i := 0; i < 4; i++ {
		m.insert(fmt.Sprintf("seed%d", i), tags, map[string]bool{})
	}

	const commits = 40
	scoped, global, sorted := 10+rng.Intn(10), 25+rng.Intn(10), 5
	docN, kept := 0, 0
	for epoch := int64(1); epoch <= commits; epoch++ {
		dirty := map[string]bool{}
		var what string
		switch {
		case epoch == 1: // the seed documents: every tag's relation is new
			for tag := range m.tags {
				dirty[tag] = true
			}
			what = "seed"
		case epoch == int64(scoped): // one document's codes rewritten where they stand
			d := m.docs[rng.Intn(len(m.docs))]
			for tag, codes := range m.tags {
				for k := range codes {
					if codes[k].doc == d.Name {
						codes[k].code, dirty[tag] = m.fresh(), true
					}
				}
			}
			what = "scoped renumber of " + d.Name
		case epoch == int64(global): // every code and root moves
			for _, codes := range m.tags {
				for k := range codes {
					codes[k].code = m.fresh()
				}
			}
			for i := range m.docs {
				m.docs[i].Root = m.fresh()
			}
			for tag := range m.tags {
				dirty[tag] = true
			}
			what = "global re-encode"
		case epoch == int64(sorted):
			what = "sort t0 in place"
		default:
			switch r := rng.Intn(10); {
			case r < 4 || len(m.docs) < 2:
				m.insert(fmt.Sprintf("d%d", docN), tags, dirty)
				docN++
				what = "insert"
			case r < 6:
				m.remove(rng.Intn(len(m.docs)), dirty)
				m.insert(fmt.Sprintf("d%d", docN), tags, dirty)
				docN++
				what = "replace"
			case r < 8:
				m.remove(rng.Intn(len(m.docs)), dirty)
				what = "delete"
			default: // move one element to another tag, as a retag does
				from := tags[rng.Intn(len(tags))]
				to := tags[rng.Intn(len(tags))]
				if codes := m.tags[from]; len(codes) > 0 && from != to {
					k := rng.Intn(len(codes))
					c := codes[k]
					m.tags[from] = slices.Delete(slices.Clone(codes), k, k+1)
					m.tags[to] = append(m.tags[to], c)
					dirty[from], dirty[to] = true, true
				}
				what = "retag"
			}
		}

		var saved []*Relation
		next := map[string]*Relation{}
		for name, r := range rels {
			if !dirty[name] {
				saved = append(saved, r)
				next[name] = r
			}
		}
		if what == "sort t0 in place" && rels["t0"] != nil {
			if err := ce.Sort(rels["t0"]); err != nil {
				t.Fatal(err)
			}
		}
		for tag := range dirty {
			codes := m.tags[tag]
			if len(codes) == 0 {
				continue // dropped
			}
			cs := make([]pbicode.Code, len(codes))
			for k, c := range codes {
				cs[k] = c.code
			}
			r, err := loadOverList(t, ce, rels[tag], tag, cs)
			if err != nil {
				t.Fatal(err)
			}
			saved = append(saved, r)
			next[tag] = r
		}
		ep := filepath.Join(dir, fmt.Sprintf("epoch-%06d.pbidb", epoch))
		if err := ce.SaveEpoch(ep, epoch, slices.Clone(m.docs), saved...); err != nil { // SaveEpoch keeps the slice
			t.Fatalf("epoch %d (%s): %v", epoch, what, err)
		}
		rels = next
		step := fmt.Sprintf("epoch %d (%s)", epoch, what)
		diff, err := readCatalog(ep)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range diff.Relations {
			kept += ent.Keep
		}

		// What a full catalog of the same relations records.
		full := map[string]catalogEntry{}
		for name, r := range rels {
			full[name] = r.entry()
		}
		at, err := readEpoch(ep)
		if err != nil {
			t.Fatalf("%s: fold: %v", step, err)
		}
		sameEntries(t, step+": fold", at.rels, full)
		fresh, freshRels, err := Open(Config{Path: ep, BufferPages: 64, ReadOnly: true})
		if err != nil {
			t.Fatalf("%s: open: %v", step, err)
		}
		sameDocs(t, step+": fresh open", fresh, m.docs)
		if epoch%3 != 1 { // the follower sometimes lags, and folds several diffs at once
			if _, err := follower.Advance(ep); err != nil {
				t.Fatalf("%s: advance: %v", step, err)
			}
			sameEntries(t, step+": advanced", follower.at.rels, full)
			sameDocs(t, step+": advanced", follower, m.docs)
			for name, r := range freshRels {
				want, err := r.Codes()
				if err != nil {
					t.Fatal(err)
				}
				got, err := follower.at.rels[name].r.Codes()
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: advanced relation %s reads %d codes, a fresh open %d", step, name, len(got), len(want))
				}
			}
		}
		fresh.Close()
	}
	if kept == 0 {
		t.Fatal("no diff kept a page of the relation it replaced: sharing was not exercised")
	}
}

// sameEntries compares folded relation entries with full ones.
func sameEntries(t *testing.T, what string, got map[string]*storedRel, want map[string]catalogEntry) {
	t.Helper()
	var names []string
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(got) != len(want) {
		t.Fatalf("%s: relations %v, want %d", what, names, len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("%s: relation %s missing from %v", what, name, names)
		}
		if !reflect.DeepEqual(g.entry, w) {
			t.Fatalf("%s: relation %s folds to\n%+v\nwant\n%+v", what, name, g.entry, w)
		}
	}
}

// sameDocs compares an engine's folded documents with the model's.
func sameDocs(t *testing.T, what string, e *Engine, want []DocInfo) {
	t.Helper()
	got, err := e.Documents()
	if err != nil {
		t.Fatalf("%s: documents: %v", what, err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: %d documents %v, want %d %v", what, len(got), got, len(want), want)
	}
}
