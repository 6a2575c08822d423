package containment

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/pbitree/pbitree/pbicode"
)

// mapDiffDocs is diffDocs as it looked documents up before docFinder: a
// map of prev's names, made on the first document prev does not continue
// with. The reference its encoding is held to.
func mapDiffDocs(prev, next []DocInfo) *catalogDocDiff {
	if slices.Equal(prev, next) {
		return nil
	}
	dd := &catalogDocDiff{Runs: []int64{}}
	from, n := int64(-2), int64(0)
	flush := func() {
		if n > 0 {
			dd.Runs = append(dd.Runs, from, n)
		}
	}
	var byName map[string]int
	want := 0
	for _, doc := range next {
		j := -1
		if want < len(prev) && prev[want] == doc {
			j = want
		} else {
			if byName == nil {
				byName = make(map[string]int, len(prev))
				for i := len(prev) - 1; i >= 0; i-- {
					byName[prev[i].Name] = i
				}
			}
			if i, ok := byName[doc.Name]; ok && prev[i] == doc {
				j = i
			}
		}
		switch {
		case j >= 0 && from >= 0 && from+n == int64(j):
			n++
		case j >= 0:
			flush()
			from, n = int64(j), 1
		default:
			if from != -1 {
				flush()
				from, n = -1, 0
			}
			n++
			dd.Names = append(dd.Names, doc.Name)
			dd.Roots = append(dd.Roots, uint64(doc.Root))
			dd.Elements = append(dd.Elements, doc.Elements)
		}
		if j >= 0 {
			want = j + 1
		}
	}
	flush()
	return dd
}

// TestDiffDocsMatchesMapLookup: with unique names, diffDocs encodes every
// change exactly as the map-based lookup did — for the shape a store's
// documents change in (removals, elements counted anew, a root moved,
// documents appended, one removed and re-added under its name with the
// same root), and for shuffles, where its lookups fall back to a map — and
// every encoding applies back to next.
func TestDiffDocsMatchesMapLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	docs := func(n int) []DocInfo {
		out := make([]DocInfo, n)
		for i := range out {
			out[i] = DocInfo{Name: fmt.Sprintf("doc%d", rng.Int()), Root: pbicode.Code(rng.Uint64() >> 2), Elements: int64(rng.Intn(50))}
		}
		return out
	}
	for trial := 0; trial < 400; trial++ {
		prev := docs(rng.Intn(40))
		next := slices.Clone(prev)
		shape := "store"
		if trial%10 == 9 {
			shape = "shuffle"
			rng.Shuffle(len(next), func(i, j int) { next[i], next[j] = next[j], next[i] })
		}
		for k := rng.Intn(4); k > 0 && len(next) > 0; k-- {
			i := rng.Intn(len(next))
			switch rng.Intn(4) {
			case 0:
				next[i].Elements++
			case 1:
				next[i].Root++
			default:
				gone := next[i]
				next = slices.Delete(next, i, i+1)
				if rng.Intn(2) == 0 {
					next = append(next, gone) // replaced by the same document
				}
			}
		}
		next = append(next, docs(rng.Intn(3))...)
		got, want := diffDocs(prev, next), mapDiffDocs(prev, next)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%s): diffDocs %+v, the map lookup %+v", trial, shape, got, want)
		}
		if got == nil {
			continue
		}
		raw, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		back, err := applyDocDiff(prev, raw)
		if err != nil || !slices.Equal(back, next) && len(back)+len(next) > 0 {
			t.Fatalf("trial %d (%s): applied back to %v (%v), want %v", trial, shape, back, err, next)
		}
	}
}

// TestDiffDocsStoreShapeMakesNoMap: a store's commit — one document
// removed in the middle, one appended — is diffed without a map of the
// documents: what it allocates does not grow with them.
func TestDiffDocsStoreShapeMakesNoMap(t *testing.T) {
	allocs := func(n int) float64 {
		prev := make([]DocInfo, n)
		for i := range prev {
			prev[i] = DocInfo{Name: fmt.Sprintf("doc%d", i), Root: pbicode.Code(2*i + 1), Elements: 12}
		}
		next := append(slices.Delete(slices.Clone(prev), n/2, n/2+1), DocInfo{Name: "new", Root: 4 * pbicode.Code(n), Elements: 12})
		return testing.AllocsPerRun(20, func() { diffDocs(prev, next) })
	}
	if small, large := allocs(100), allocs(10000); large > small {
		t.Fatalf("diffing a one-document commit allocates %.0f times over 10 000 documents, %.0f over 100", large, small)
	}
}
