package bench

import (
	"net/url"
	"strings"
)

// Key is one query the serving stack answers: a two-tag containment join
// or a three-step descendant path. Algo pins the join algorithm on the ops
// of the cold list that exist to time one algorithm; it is "" elsewhere.
type Key struct {
	ID   string
	Tags []string
	Algo string
}

// IsJoin reports whether the key is a two-tag join (a /join request).
func (k Key) IsJoin() bool { return len(k.Tags) == 2 }

// URL is the request path and query of the key.
func (k Key) URL() string {
	if !k.IsJoin() {
		return "/query?path=" + url.QueryEscape("//"+strings.Join(k.Tags, "//"))
	}
	u := "/join?anc=" + url.QueryEscape(k.Tags[0]) + "&desc=" + url.QueryEscape(k.Tags[1])
	if k.Algo != "" {
		u += "&algo=" + k.Algo
	}
	return u
}

// pathKeys are the twenty three-step path queries: ten over the DBLP-shaped
// documents, ten over the XMark-shaped ones. The list is fixed; the
// workloads index into it. No path starts //dblp//article//... or
// //dblp//inproceedings//author: on the routed fleet those three cost 5-10x
// the next key, and a run's throughput was mostly a count of how often it
// drew them.
var pathKeys = []Key{
	{ID: "PD1", Tags: []string{"article", "cite", "author"}},
	{ID: "PD2", Tags: []string{"article", "cite", "title"}},
	{ID: "PD3", Tags: []string{"article", "cite", "article"}},
	{ID: "PD4", Tags: []string{"cite", "article", "author"}},
	{ID: "PD5", Tags: []string{"cite", "article", "title"}},
	{ID: "PD6", Tags: []string{"article", "article", "author"}},
	{ID: "PD7", Tags: []string{"dblp", "article", "cite"}},
	{ID: "PD8", Tags: []string{"dblp", "cite", "author"}},
	{ID: "PD9", Tags: []string{"dblp", "inproceedings", "url"}},
	{ID: "PD10", Tags: []string{"dblp", "article", "ee"}},
	{ID: "PX1", Tags: []string{"item", "parlist", "text"}},
	{ID: "PX2", Tags: []string{"item", "listitem", "text"}},
	{ID: "PX3", Tags: []string{"item", "description", "listitem"}},
	{ID: "PX4", Tags: []string{"item", "mailbox", "mail"}},
	{ID: "PX5", Tags: []string{"item", "mail", "from"}},
	{ID: "PX6", Tags: []string{"category", "parlist", "text"}},
	{ID: "PX7", Tags: []string{"open_auction", "bidder", "increase"}},
	{ID: "PX8", Tags: []string{"open_auction", "annotation", "text"}},
	{ID: "PX9", Tags: []string{"closed_auction", "annotation", "listitem"}},
	{ID: "PX10", Tags: []string{"person", "address", "city"}},
}

// Keys returns the forty query keys: D1..D10, B1..B10 under AUTO, then the
// twenty path queries.
func Keys() []Key { return append(PaperJoins(), pathKeys...) }

// pinned maps each algorithm to the paper join it is timed on in the cold
// list. The pairs keep every op under 100 ms on a 2-core host: the merge
// and index joins run on the large flat D7, SHCJ on D5 whose ancestors sit
// at one height, the nested loop on the rare-descendant D2, and MPMGJN on
// the mid-sized B9 (on B2 it was the slowest op of the pass and its time
// wandered between 50 and 69 ms from run to run, taking lat_p99_ms along).
var pinned = []struct{ algo, join string }{
	{"stacktree", "D7"}, {"stackanc", "D7"}, {"mpmgjn", "B9"}, {"inljn", "D7"},
	{"adb", "D7"}, {"mhcj", "D7"}, {"rollup", "D7"}, {"vpj", "D7"},
	{"shcj", "D5"}, {"nlj", "D2"},
}

// ColdOps is join_cold's fixed 30-op pass: the twenty joins under AUTO,
// then one op per algorithm.
func ColdOps() []Key {
	joins := PaperJoins()
	byID := map[string]Key{}
	for _, k := range joins {
		byID[k.ID] = k
	}
	ops := append([]Key(nil), joins...)
	for _, p := range pinned {
		k := byID[p.join]
		ops = append(ops, Key{ID: p.algo + "@" + p.join, Tags: k.Tags, Algo: p.algo})
	}
	return ops
}

// wantFor returns the oracle's count for op k, given the counts of keys: a
// pinned cold op shares the answer of the AUTO key over the same tags.
func wantFor(keys []Key, want []int64, k Key) int64 {
	for i, key := range keys {
		if key.ID == k.ID || (k.Algo != "" && key.IsJoin() && key.Tags[0] == k.Tags[0] && key.Tags[1] == k.Tags[1]) {
			return want[i]
		}
	}
	return -1
}
