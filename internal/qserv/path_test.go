package qserv

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/shard"
	"github.com/pbitree/pbitree/pbicode"
	"github.com/pbitree/pbitree/xmltree"
)

// This file checks the one path evaluator (containment.Engine.Chain) as
// every serving tier reaches it: the steps block and traces agree between
// solo and sharded serving, failures keep their partial traces, unknown
// tags cost no join, and every evaluator agrees with an oracle that shares
// no code with containment.

// TestPathStepsAgreeAcrossTiers: a chain whose intermediate set empties
// before its last join still reports one step per join, on a solo node
// and on a sharded one alike.
func TestPathStepsAgreeAcrossTiers(t *testing.T) {
	db := buildShardedServerDB(t, 2)
	var bodies [2]QueryResponse
	for i, shards := range []int{0, 2} {
		s, err := New(Config{DBPath: db, Shards: shards, Workers: 1, CacheEntries: -1, BufferPages: 32})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		// figure is a leaf: //figure//para is empty, so para//section never runs.
		code, body, _ := get(t, ts.Client(), ts.URL+"/query?path=//figure//para//section")
		ts.Close()
		s.Close()
		if code != http.StatusOK {
			t.Fatalf("shards=%d: status %d: %s", shards, code, body)
		}
		mustDecode(t, body, &bodies[i])
	}
	for i, r := range bodies {
		if len(r.Steps) != 2 || r.Count != 0 {
			t.Fatalf("tier %d: count %d, steps %+v; want 0 matches over 2 steps", i, r.Count, r.Steps)
		}
		if r.Steps[1] != (PathStep{Anc: "para", Desc: "section"}) {
			t.Errorf("tier %d: unreached step reported as %+v", i, r.Steps[1])
		}
	}
	for k := range bodies[0].Steps {
		solo, sharded := bodies[0].Steps[k], bodies[1].Steps[k]
		if solo.Anc != sharded.Anc || solo.Desc != sharded.Desc || solo.Matches != sharded.Matches {
			t.Errorf("step %d: solo %+v, sharded %+v", k, solo, sharded)
		}
	}
}

// TestShardedPathTraceLabels: every join of a sharded path trace names
// the step it ran.
func TestShardedPathTraceLabels(t *testing.T) {
	db := buildShardedServerDB(t, 2)
	s, err := New(Config{DBPath: db, Shards: 2, Workers: 1, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body, _ := get(t, ts.Client(), ts.URL+"/debug/trace?query=//section//para//figure")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp traceResponse
	mustDecode(t, body, &resp)
	if len(resp.Joins) == 0 {
		t.Fatalf("no joins traced: %s", body)
	}
	for i, j := range resp.Joins {
		if j.Anc == "" || j.Desc == "" {
			t.Errorf("joins[%d] unlabeled: anc=%q desc=%q", i, j.Anc, j.Desc)
		}
	}
}

// TestPathTimeoutKeepsPartialTrace: a solo path query whose deadline
// expires mid-chain answers 504 and leaves its partial trace, the failed
// join's root annotated, in the trace ring. The test hook holds the query
// after admission until its deadline has passed, so the chain runs on an
// expired context and its first join fails, however loaded the machine.
func TestPathTimeoutKeepsPartialTrace(t *testing.T) {
	db, _ := buildServerDB(t)
	s, err := New(Config{DBPath: db, Workers: 1, CacheEntries: -1, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const timeout = 100 * time.Millisecond
	s.testHook = func() { time.Sleep(2 * timeout) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	const id = "partial"
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/query?path=//section//para//figure&timeout=%s", ts.URL, timeout), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Trace-Id", id)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	code, body, _ := get(t, client, ts.URL+"/debug/trace/"+id)
	if code != http.StatusOK {
		t.Fatalf("trace of the timed-out query: status %d: %s", code, body)
	}
	var rec struct {
		Spans []struct {
			Detail string `json:"detail"`
		} `json:"spans"`
	}
	mustDecode(t, body, &rec)
	if len(rec.Spans) == 0 {
		t.Fatalf("timed-out query left a trace with no spans: %s", body)
	}
	last := rec.Spans[len(rec.Spans)-1].Detail
	if last != "canceled" && last != "canceled (deadline)" {
		t.Fatalf("failed join's root detail %q, want canceled: %s", last, body)
	}
}

// TestUnknownPathTagRunsNoJoin: a path naming an unknown tag anywhere is
// a 404 before any join touches the worker's engine.
func TestUnknownPathTagRunsNoJoin(t *testing.T) {
	db, _ := buildServerDB(t)
	s, err := New(Config{DBPath: db, Workers: 1, CacheEntries: -1, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wk := <-s.workers
	s.workers <- wk
	eng := wk.(*soloWorker).eng
	before := eng.IOStats()
	code, body, _ := get(t, ts.Client(), ts.URL+"/query?path=//section//para//nosuch")
	if code != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", code, body)
	}
	if after := eng.IOStats(); after != before {
		t.Fatalf("engine I/O moved on a 404: before %+v, after %+v", before, after)
	}
}

// pathOracle answers //tags[0]//tags[1]//... over the element tree under
// root without the join engine: an element of tag tags[j] is a step-j
// match when tags[0..j-1] occur, in order, among its proper ancestors —
// a subsequence question, which greedy matching down the root path
// answers exactly. It returns each step's match count and the last step's
// matches in pre-order, which is document order.
func pathOracle(root *xmltree.Element, tags []string) ([]int64, []pbicode.Code) {
	matches := make([]int64, len(tags)-1)
	var final []pbicode.Code
	var walk func(e *xmltree.Element, prefix int)
	walk = func(e *xmltree.Element, prefix int) {
		for j := 1; j <= prefix && j < len(tags); j++ {
			if e.Tag == tags[j] {
				matches[j-1]++
				if j == len(tags)-1 {
					final = append(final, e.Code)
				}
			}
		}
		if prefix < len(tags) && e.Tag == tags[prefix] {
			prefix++
		}
		for _, c := range e.Children {
			walk(c, prefix)
		}
	}
	walk(root, 0)
	return matches, final
}

// randomForest builds a collection of 1-4 random documents over the tags
// a-d, with "l" only ever a leaf.
func randomForest(t *testing.T, rng *rand.Rand) *xmltree.Collection {
	t.Helper()
	coll := xmltree.NewCollection()
	var grow func(depth int) *xmltree.Element
	grow = func(depth int) *xmltree.Element {
		e := &xmltree.Element{Tag: string(rune('a' + rng.Intn(4)))}
		for k := rng.Intn(5); k > 0 && depth < 7; k-- {
			c := &xmltree.Element{Tag: "l"}
			if rng.Intn(4) > 0 {
				c = grow(depth + 1)
			}
			c.Parent = e
			e.Children = append(e.Children, c)
		}
		return e
	}
	for d := rng.Intn(4); d >= 0; d-- {
		if err := coll.AddTree(fmt.Sprintf("doc-%d", d), grow(0)); err != nil {
			t.Fatal(err)
		}
	}
	return coll
}

// joinOracle answers //anc//desc over the element tree under root without
// the join engine: every desc element paired with each of its proper
// ancestors tagged anc, sorted by ancestor, then descendant.
func joinOracle(root *xmltree.Element, anc, desc string) []containment.Pair {
	var out []containment.Pair
	var walk func(e *xmltree.Element, above []pbicode.Code)
	walk = func(e *xmltree.Element, above []pbicode.Code) {
		if e.Tag == desc {
			for _, a := range above {
				out = append(out, containment.Pair{A: a, D: e.Code})
			}
		}
		if e.Tag == anc {
			above = append(above, e.Code)
		}
		for _, c := range e.Children {
			walk(c, above)
		}
	}
	walk(root, nil)
	sortPairs(out)
	return out
}

func sortPairs(ps []containment.Pair) {
	slices.SortFunc(ps, func(x, y containment.Pair) int {
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.D, y.D)
	})
}

// TestPathOracleDifferential runs random 2-4-tag paths and random joins
// over random forests through every evaluator — pbiquery's QueryContext
// (paths only), solo serving, and sharded serving at 1, 2 and 3 shards —
// and requires the oracles' answers from each: codes and per-step matches
// for a path, pairs for a join under each algorithm. "z" is stored but
// never occurs, and the fixed paths end the chain at every position.
func TestPathOracleDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	alphabet := []string{"a", "b", "c", "d", "l", "z"}
	algorithms := []containment.Algorithm{containment.Auto, containment.MHCJ, containment.MHCJRollup, containment.VPJ, containment.StackTree}
	cfg := containment.Config{PageSize: 512, BufferPages: 32}
	// Paths and joins with a non-empty answer: the forests are not trivial.
	var found, joined int
	for f := 0; f < 40; f++ {
		coll := randomForest(t, rng)
		cfg.TreeHeight = coll.Height()
		names := coll.Names()

		queryEng, err := containment.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		newSolo := func() worker {
			eng, err := containment.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			solo := &soloWorker{eng: eng, rels: map[string]*containment.Relation{}}
			for _, tag := range alphabet {
				if solo.rels["tag:"+tag], err = eng.Load("tag:"+tag, coll.Codes(tag)); err != nil {
					t.Fatal(err)
				}
			}
			return solo
		}
		newSharded := func(n int) worker {
			se, err := shard.New(shard.Config{PageSize: cfg.PageSize, BufferPages: cfg.BufferPages, TreeHeight: cfg.TreeHeight}, n)
			if err != nil {
				t.Fatal(err)
			}
			for _, tag := range alphabet {
				stored := false
				for i := 0; i < n; i++ {
					var codes []pbicode.Code
					for d := i; d < len(names); d += n {
						c, err := coll.CodesIn(names[d], tag)
						if err != nil {
							t.Fatal(err)
						}
						codes = append(codes, c...)
					}
					// An absent tag is stored once, empty, so it resolves.
					if len(codes) > 0 || (i == n-1 && !stored) {
						if err := se.LoadShard(i, "tag:"+tag, codes); err != nil {
							t.Fatal(err)
						}
						stored = true
					}
				}
			}
			return &shardWorker{se: se}
		}
		workers := []worker{newSolo(), newSharded(1), newSharded(2), newSharded(3)}

		for j := 0; j < 3; j++ {
			anc, desc := alphabet[rng.Intn(len(alphabet))], alphabet[rng.Intn(len(alphabet))]
			want := joinOracle(coll.Document().Root, anc, desc)
			if len(want) > 0 {
				joined++
			}
			for w, wk := range workers {
				for _, alg := range algorithms {
					an, err := wk.analyze(context.Background(), anc, desc, containment.JoinOptions{Algorithm: alg, Collect: true})
					if err != nil {
						t.Fatalf("forest %d //%s//%s: evaluator %d %v: %v", f, anc, desc, w, alg, err)
					}
					got := an.Result.Pairs
					sortPairs(got)
					if !slices.Equal(got, want) || an.Result.Count != int64(len(want)) {
						t.Fatalf("forest %d //%s//%s: evaluator %d %v: %d pairs (count %d), oracle %d",
							f, anc, desc, w, alg, len(got), an.Result.Count, len(want))
					}
					if err := wk.releaseTemp(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}

		paths := [][]string{{"l", "a", "b"}, {"a", "l", "b"}, {"a", "b", "l", "c"}, {"z", "a"}, {"a", "z", "b"}}
		for p := 0; p < 10; p++ {
			path := make([]string, 2+rng.Intn(3))
			for i := range path {
				path[i] = alphabet[rng.Intn(len(alphabet))]
			}
			paths = append(paths, path)
		}
		for _, tags := range paths {
			expr := "//" + strings.Join(tags, "//")
			wantSteps, wantCodes := pathOracle(coll.Document().Root, tags)
			if len(wantCodes) > 0 {
				found++
			}

			got, err := queryEng.QueryContext(context.Background(), coll.Document(), expr)
			if err != nil {
				t.Fatalf("forest %d %s: QueryContext: %v", f, expr, err)
			}
			if !slices.Equal(got, wantCodes) {
				t.Fatalf("forest %d %s: QueryContext %v, oracle %v", f, expr, got, wantCodes)
			}
			for w, wk := range workers {
				codes, steps, _, err := wk.evalPath(context.Background(), tags)
				if err != nil {
					t.Fatalf("forest %d %s: evaluator %d: %v", f, expr, w, err)
				}
				if !slices.Equal(codes, wantCodes) {
					t.Fatalf("forest %d %s: evaluator %d codes %v, oracle %v", f, expr, w, codes, wantCodes)
				}
				if len(steps) != len(wantSteps) {
					t.Fatalf("forest %d %s: evaluator %d: %d steps, want %d", f, expr, w, len(steps), len(wantSteps))
				}
				for k, st := range steps {
					if st.Anc != tags[k] || st.Desc != tags[k+1] || st.Matches != wantSteps[k] {
						t.Fatalf("forest %d %s: evaluator %d step %d = %+v, oracle matches %d", f, expr, w, k, st, wantSteps[k])
					}
				}
				if err := wk.releaseTemp(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for w, wk := range workers {
			var unknown *unknownRelationError
			if _, _, _, err := wk.evalPath(context.Background(), []string{"a", "nosuch"}); !errors.As(err, &unknown) {
				t.Fatalf("evaluator %d: unknown tag error %v", w, err)
			}
			if err := wk.close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := queryEng.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if found < 100 || joined < 40 {
		t.Fatalf("only %d paths and %d joins had matches", found, joined)
	}
}

// FuzzParsePath: ParsePath and CanonicalPath never panic, and a canonical
// form is its own canonical form.
func FuzzParsePath(f *testing.F) {
	for _, s := range []string{
		"//a//b//c", "/a/b", `//Section[Title="Intro"]//Figure`, "//a[", "a", "//", " //x ", "//a]b//c",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		containment.ParsePath(expr) //nolint:errcheck // must only not panic
		canon, tags, err := CanonicalPath(expr)
		if err != nil {
			return
		}
		again, tags2, err := CanonicalPath(canon)
		if err != nil || again != canon || !slices.Equal(tags, tags2) {
			t.Fatalf("CanonicalPath(%q) = %q %v; of that: %q %v %v", expr, canon, tags, again, tags2, err)
		}
	})
}
