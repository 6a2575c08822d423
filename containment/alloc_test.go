package containment

import (
	"path/filepath"
	"runtime"
	"testing"

	"github.com/pbitree/pbitree/internal/workload"
)

// TestWarmJoinAllocations is the fixed-working-memory guard: on a read-only
// engine (the serving configuration: temporary pages live in the overlay,
// released after every join), the first join of an algorithm grows the
// engine's working memory and every later one must run inside it. A warm
// join may allocate the bookkeeping of its temporary relations — a few
// small objects per partition or sort run — but nothing sized by a page or
// by its inputs: no overlay page, no hash table, no decode or run buffer.
// The inputs spill (16-page pool against some 80 pages of data), so a join that
// re-allocated any of those would overshoot both limits many times over.
func TestWarmJoinAllocations(t *testing.T) {
	doc, err := workload.GenerateDBLP(workload.DBLPParams{Articles: 4000, Inproceedings: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "warm.db")
	w, err := NewEngine(Config{Path: path, TreeHeight: doc.Height})
	if err != nil {
		t.Fatal(err)
	}
	var stored []*Relation
	for _, tag := range []string{"article", "inproceedings", "author"} {
		r, err := w.Load(tag, doc.Codes(tag))
		if err != nil {
			t.Fatal(err)
		}
		stored = append(stored, r)
	}
	if err := w.Save(stored...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	eng, rels, err := Open(Config{Path: path, ReadOnly: true, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const (
		maxObjects = 200       // AllocsPerRun of one warm join
		maxBytes   = 64 * 1024 // TotalAlloc of one warm join
	)
	algorithms := []Algorithm{Auto, NestedLoop, SHCJ, MHCJ, MHCJRollup, VPJ, INLJN, StackTree, StackTreeAnc, MPMGJN, ADBPlus}
	for _, alg := range algorithms {
		a, d := rels["article"], rels["author"]
		if alg == SHCJ {
			a = rels["inproceedings"] // SHCJ wants its ancestors at one height
		}
		var want int64 = -1
		join := func() {
			res, err := eng.Join(a, d, JoinOptions{Algorithm: alg})
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			if want < 0 {
				want = res.Count
			} else if res.Count != want {
				t.Fatalf("%v: count %d, first join counted %d", alg, res.Count, want)
			}
			if err := eng.ReleaseTemp(); err != nil {
				t.Fatalf("%v: release temp: %v", alg, err)
			}
		}
		join() // cold: grows the working memory this algorithm needs
		objects := testing.AllocsPerRun(3, join)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		join()
		runtime.ReadMemStats(&after)
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("%-14v warm join: %4.0f objects, %6d bytes, %d pairs", alg, objects, bytes, want)
		if objects > maxObjects {
			t.Errorf("%v: warm join allocates %.0f objects, limit %d", alg, objects, maxObjects)
		}
		if bytes > maxBytes {
			t.Errorf("%v: warm join allocates %d bytes, limit %d", alg, bytes, maxBytes)
		}
	}
}
