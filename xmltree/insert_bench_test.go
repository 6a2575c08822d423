package xmltree

import (
	"fmt"
	"runtime"
	"testing"
)

// collectionOf returns a collection forest of n two-element documents,
// re-encoded with headroom 2 so that the root's slot range has room for
// three times as many again.
func collectionOf(tb testing.TB, n int) *Document {
	tb.Helper()
	roots := make([]*Element, n)
	super := &Element{Tag: collectionRootTag, Children: roots}
	for i := range roots {
		r := &Element{Tag: "a", Parent: super}
		r.Children = []*Element{{Tag: "b", Parent: r}}
		roots[i] = r
	}
	d, err := Encode(super)
	if err != nil {
		tb.Fatal(err)
	}
	if err := d.Reencode(2); err != nil {
		tb.Fatal(err)
	}
	return d
}

// insertDoc grafts a document under d's root at the slot after the highest
// taken one, and returns it: a root tagged tag with a leaf child for each
// of children.
func insertDoc(tb testing.TB, d *Document, tag string, children ...string) *Element {
	w := &Element{Tag: tag}
	for _, c := range children {
		w.Children = append(w.Children, &Element{Tag: c, Parent: w})
	}
	si, err := d.Slots(d.Root)
	if err != nil {
		tb.Fatal(err)
	}
	if err := d.InsertSubtreeSlot(d.Root, w, 0, si.Used.Next()); err != nil {
		tb.Fatal(err)
	}
	return w
}

// BenchmarkInsertDoc grafts documents under a collection root of 1k and
// 10k documents — the ingest write path's insert_doc, slot choice
// included. Every 256 inserts the new documents are deleted again, off the
// clock, so the root keeps its size. ns/insert and allocs/insert do not
// grow with the number of documents: the root's slot occupancy is kept by
// the Document, not rebuilt from its children per insert.
func BenchmarkInsertDoc(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("docs=%dk", n/1000), func(b *testing.B) {
			d := collectionOf(b, n)
			insertDoc(b, d, "w", "x", "x") // the root's occupancy is built once, here
			var ms runtime.MemStats
			var mallocs uint64
			added := make([]*Element, 0, 256)
			b.ResetTimer()
			b.StopTimer()
			for done := 0; done < b.N; {
				k := min(cap(added), b.N-done)
				runtime.ReadMemStats(&ms)
				m0 := ms.Mallocs
				b.StartTimer()
				for i := 0; i < k; i++ {
					added = append(added, insertDoc(b, d, "w", "x", "x"))
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - m0
				for _, e := range added {
					if err := d.Delete(e); err != nil {
						b.Fatal(err)
					}
				}
				added = added[:0]
				done += k
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/insert")
			b.ReportMetric(float64(mallocs)/float64(b.N), "allocs/insert")
		})
	}
}

// BenchmarkDeleteDoc deletes documents from a collection root of 1k and
// 10k documents — the ingest write path's delete_doc. Each is a
// two-element document of the tags every base document has, grafted off
// the clock 256 at a time, so its elements leave tag indexes of 1k and 10k
// entries. ns/delete does not grow with the number of documents: the tag
// indexes and the root's children are in document order, and a delete
// finds its elements in them by binary search.
func BenchmarkDeleteDoc(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("docs=%dk", n/1000), func(b *testing.B) {
			d := collectionOf(b, n)
			added := make([]*Element, 0, 256)
			b.ResetTimer()
			for done := 0; done < b.N; {
				b.StopTimer()
				k := min(cap(added), b.N-done)
				for i := 0; i < k; i++ {
					added = append(added, insertDoc(b, d, "a", "b"))
				}
				b.StartTimer()
				for _, e := range added {
					if err := d.Delete(e); err != nil {
						b.Fatal(err)
					}
				}
				added = added[:0]
				done += k
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/delete")
		})
	}
}

// TestInsertDocAllocsFlat: grafting a document under the collection root
// and deleting it again allocates as much under 10k documents as under 1k
// — no per-insert walk or map of the root's children.
func TestInsertDocAllocsFlat(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{1_000, 10_000} {
		d := collectionOf(t, n)
		allocs[n] = testing.AllocsPerRun(100, func() {
			if err := d.Delete(insertDoc(t, d, "w", "x", "x")); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[1_000] != allocs[10_000] {
		t.Fatalf("allocs per insert and delete: %v under 1k documents, %v under 10k", allocs[1_000], allocs[10_000])
	}
}
