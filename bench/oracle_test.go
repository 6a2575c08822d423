package bench

import "testing"

// tree builds an element from a tag and its children.
func tree(tag string, children ...*Element) *Element {
	e := &Element{Tag: tag}
	for _, c := range children {
		c.Parent = e
		e.Children = append(e.Children, c)
	}
	return e
}

func TestOracleCountsProperAncestorsOnly(t *testing.T) {
	// a            a1 contains b1, b2, c1, c2, a2; a2 contains b2, c2
	// ├─ b ── c    b1 contains c1
	// └─ a
	//    └─ b ── c   b2 contains c2
	// x ── c       no a above this c
	roots := []*Element{
		tree("a", tree("b", tree("c")), tree("a", tree("b", tree("c")))),
		tree("x", tree("c")),
	}
	keys := []Key{
		{ID: "a/c", Tags: []string{"a", "c"}},          // (a1,c1) (a1,c2) (a2,c2)
		{ID: "a/a", Tags: []string{"a", "a"}},          // (a1,a2): never itself
		{ID: "b/c", Tags: []string{"b", "c"}},          // 2
		{ID: "c/a", Tags: []string{"c", "a"}},          // 0
		{ID: "a/b/c", Tags: []string{"a", "b", "c"}},   // c1, c2: distinct elements
		{ID: "a/a/c", Tags: []string{"a", "a", "c"}},   // only c2 has an a under an a
		{ID: "x/b/c", Tags: []string{"x", "b", "c"}},   // 0
		{ID: "a/a/a", Tags: []string{"a", "a", "a"}},   // 0: only two levels of a
		{ID: "none/c", Tags: []string{"missing", "c"}}, // 0
	}
	want := []int64{3, 1, 2, 0, 2, 1, 0, 0, 0}
	got := Oracle(roots, keys)
	for i := range keys {
		if got[i] != want[i] {
			t.Errorf("%s: oracle says %d, want %d", keys[i].ID, got[i], want[i])
		}
	}
	counts, total := TagCounts(roots)
	if total != 8 || counts["c"] != 3 || counts["a"] != 2 {
		t.Errorf("TagCounts = %v, %d", counts, total)
	}
}
