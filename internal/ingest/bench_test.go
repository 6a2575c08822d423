package ingest

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// BenchmarkSustainedIngest drives a sustained mixed update stream (80%
// element inserts under random live parents, 10% deletes, 10% retags, in
// batches of 8 ops per commit) against one store and reports the renumber
// frequency — the quantity the gap-aware coding scheme exists to suppress.
// Run both arms and compare renumbers/kop:
//
//	go test -run '^$' -bench BenchmarkSustainedIngest -benchtime 200x ./internal/ingest/
func BenchmarkSustainedIngest(b *testing.B) {
	for _, gap := range []bool{false, true} {
		name := "naive"
		if gap {
			name = "gap-aware"
		}
		b.Run(name, func(b *testing.B) {
			benchSustainedIngest(b, gap)
		})
	}
}

const benchBatch = 8

func benchSustainedIngest(b *testing.B, gap bool) {
	dir := b.TempDir()
	base := buildBaseDB(b, dir, map[string]string{
		"d0": `<r0><a><b/><c/></a><a><b/></a></r0>`,
		"d1": `<r1><x><y/></x><x><y/><z/></x></r1>`,
	})
	s, err := Open(Config{DBPath: base, GapAware: gap, Headroom: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	rng := rand.New(rand.NewSource(99))

	// randomCode picks a live non-root element code, refreshed under the
	// store lock (renumbering moves codes between batches). Half the picks
	// land on the hot tag — ingest streams are skewed (one feed, one hot
	// container), and parent skew is what saturates slot ranges.
	randomCode := func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if rng.Intn(2) == 0 {
			if hot := s.forest.Codes("a"); len(hot) > 0 {
				return uint64(hot[rng.Intn(len(hot))])
			}
		}
		var all []uint64
		for tag := range s.forest.Tags() {
			if tag == s.forest.Root.Tag {
				continue
			}
			for _, c := range s.forest.Codes(tag) {
				if e := s.forest.ByCode(c); e != nil && e.Parent != nil && e.Parent != s.forest.Root {
					all = append(all, uint64(c))
				}
			}
		}
		if len(all) == 0 {
			return 0
		}
		return all[rng.Intn(len(all))]
	}

	applied, rolledBack := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ops []Op
		for j := 0; j < benchBatch; j++ {
			switch r := rng.Intn(10); {
			case r < 8:
				if c := randomCode(); c != 0 {
					ops = append(ops, Op{Op: "insert_element", Parent: c, Tag: fmt.Sprintf("t%d", rng.Intn(6))})
				}
			case r < 9:
				if c := randomCode(); c != 0 {
					if e := elementAt(s, c); e != nil && len(e.Children) == 0 {
						ops = append(ops, Op{Op: "delete_element", Code: c})
						continue
					}
				}
				ops = append(ops, Op{Op: "insert_element", Parent: randomCode(), Tag: "t0"})
			default:
				if c := randomCode(); c != 0 {
					ops = append(ops, Op{Op: "update_element", Code: c, Tag: fmt.Sprintf("u%d", rng.Intn(4))})
				}
			}
		}
		if len(ops) == 0 {
			continue
		}
		// A batch can legitimately conflict with itself (delete an element,
		// then address its descendant); the store rolls it back atomically
		// and the stream moves on, like a real writer would.
		if _, err := s.Apply(ops); err != nil {
			rolledBack++
			continue
		}
		applied += len(ops)
	}
	b.StopTimer()
	st := s.Stats()
	if applied > 0 {
		kops := float64(applied) / 1000
		b.ReportMetric(float64(st.RenumbersScoped)/kops, "renumScoped/kop")
		b.ReportMetric(float64(st.RenumbersGlobal)/kops, "renumGlobal/kop")
		b.ReportMetric(float64(st.OverflowInserts)/kops, "overflow/kop")
		b.ReportMetric(float64(rolledBack), "rollbacks")
	}
}

func elementAt(s *Store, code uint64) *xmltree.Element {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.forest.ByCode(pbicode.Code(code))
}

// BenchmarkCommitSmallDoc commits one 12-element document per iteration
// into a base of ten library documents of 100 or 800 books each (≈17 and
// ≈130 packed pages at the 512-byte page, 8 times that in the fixed-width
// layout) and reports what a commit costs and writes: ns/op and B/op are
// per commit, pages/commit is the delta's page count, B/commit the size of
// the delta and catalog files it published. All should follow the
// document, not the base — TestCommitCostIndependentOfBase and
// TestCommitWritesChangeNotRelation hold them to it — except in the
// commits that re-encode the whole collection when its root runs out of
// slots, which renumbers/commit counts. The chain is folded every 16
// commits, outside the timer, as a serving store's daemon would.
//
//	go test -run '^$' -bench BenchmarkCommitSmallDoc -benchtime 64x ./internal/ingest/
func BenchmarkCommitSmallDoc(b *testing.B) {
	for _, paper := range []bool{true, false} {
		for _, books := range []int{100, 800} {
			name := "packed"
			if paper {
				name = "fixed"
			}
			b.Run(fmt.Sprintf("%s/books=%d", name, books), func(b *testing.B) {
				base := buildBaseDBFormat(b, b.TempDir(), libraryDocs(10, books), paper)
				s, err := Open(Config{DBPath: base, GapAware: true})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close() //nolint:errcheck
				var bytes int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := s.Apply([]Op{{Op: "insert_doc", Doc: fmt.Sprintf("small%d", i), XML: smallDoc}})
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					for _, ext := range []string{".delta", ".catalog"} {
						fi, err := os.Stat(res.Path + ext)
						if err != nil {
							b.Fatal(err)
						}
						bytes += fi.Size()
					}
					if i%16 == 15 {
						if err := s.CompactNow(); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
				}
				b.StopTimer()
				st := s.Stats()
				b.ReportMetric(float64(st.DeltaPages)/float64(b.N), "pages/commit")
				b.ReportMetric(float64(bytes)/float64(b.N), "B/commit")
				b.ReportMetric(float64(st.RenumbersScoped+st.RenumbersGlobal)/float64(b.N), "renumbers/commit")
			})
		}
	}
}
