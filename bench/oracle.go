package bench

// The oracle computes every expected answer by walking the generated
// element trees. It shares no code with the join pipeline: it never sees a
// PBiTree code, a relation or an engine, only tags and child pointers.

// Oracle returns, for each key, the count the serving stack must answer
// over the forest: for a join a ◁ d the number of (a, d) pairs with a a
// proper ancestor of d; for a path //a//b//c the number of c elements with
// a b ancestor that itself has an a ancestor.
func Oracle(roots []*Element, keys []Key) []int64 {
	tagID := map[string]int{}
	id := func(tag string) int {
		if i, ok := tagID[tag]; ok {
			return i
		}
		tagID[tag] = len(tagID)
		return len(tagID) - 1
	}
	type role struct{ key, anc int } // key index, tag id one step up the query
	var (
		last = map[int][]role{} // by tag id of the key's final step
		mid  = map[int][]role{} // by tag id of a path's middle step
	)
	for k, key := range keys {
		n := len(key.Tags)
		last[id(key.Tags[n-1])] = append(last[id(key.Tags[n-1])], role{k, id(key.Tags[n-2])})
		if n == 3 {
			mid[id(key.Tags[1])] = append(mid[id(key.Tags[1])], role{k, id(key.Tags[0])})
		}
	}
	var (
		counts  = make([]int64, len(keys))
		onPath  = make([]int64, len(tagID)) // proper ancestors per tag
		matched = make([]int64, len(keys))  // path keys: middle-step ancestors that have a first-step ancestor
	)
	// Every check reads the state proper ancestors left, so an element never
	// counts as its own ancestor; the exit half undoes the entry half under
	// the same conditions, which hold again once the children have unwound.
	var walk func(e *Element)
	walk = func(e *Element) {
		t, known := tagID[e.Tag]
		if known {
			for _, r := range last[t] {
				if keys[r.key].IsJoin() {
					counts[r.key] += onPath[r.anc]
				} else if matched[r.key] > 0 {
					counts[r.key]++
				}
			}
			for _, r := range mid[t] {
				if onPath[r.anc] > 0 {
					matched[r.key]++
				}
			}
			onPath[t]++
		}
		for _, c := range e.Children {
			walk(c)
		}
		if known {
			onPath[t]--
			for _, r := range mid[t] {
				if onPath[r.anc] > 0 {
					matched[r.key]--
				}
			}
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return counts
}

// TagCounts returns the element count of every tag in the forest and the
// total.
func TagCounts(roots []*Element) (map[string]int64, int64) {
	counts := map[string]int64{}
	var total int64
	var walk func(e *Element)
	walk = func(e *Element) {
		counts[e.Tag]++
		total++
		for _, c := range e.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return counts, total
}
