package qserv

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/ingest"
	"github.com/pbitree/pbitree/xmltree"
)

// buildIngestDB saves a database the way `pbidb build` does — one relation
// per tag (the full tag set, which ingest.Open needs to reconstruct the
// forest) plus the document catalog.
func buildIngestDB(t *testing.T, dir string, docs map[string]string) string {
	t.Helper()
	coll := xmltree.NewCollection()
	names := make([]string, 0, len(docs))
	for name := range docs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := coll.AddDocument(name, strings.NewReader(docs[name]), xmltree.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "live.pbidb")
	eng, err := containment.NewEngine(containment.Config{
		Path: path, PageSize: 512, BufferPages: 64, TreeHeight: coll.Height(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var rels []*containment.Relation
	var tags []string
	for tag := range coll.Document().Tags() {
		if strings.HasPrefix(tag, "#") {
			continue
		}
		r, err := eng.Load("tag:"+tag, coll.Codes(tag))
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, r)
		tags = append(tags, tag)
	}
	var infos []containment.DocInfo
	for _, name := range coll.Names() {
		root, err := coll.RootCode(name)
		if err != nil {
			t.Fatal(err)
		}
		var elems int64
		for _, tag := range tags {
			codes, err := coll.CodesIn(name, tag)
			if err != nil {
				t.Fatal(err)
			}
			elems += int64(len(codes))
		}
		infos = append(infos, containment.DocInfo{Name: name, Root: root, Elements: elems})
	}
	if err := eng.SaveDocs(infos, rels...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// ingestBaseDocs hold 3 book⊐title pairs; every test commit inserts a doc
// with exactly one more, so the ground truth for epoch E is 3+E pairs —
// an answer/epoch consistency oracle that needs no synchronization.
func ingestBaseDocs() map[string]string {
	return map[string]string{
		"d0": `<lib><book><title>a</title></book><book><title>b</title></book></lib>`,
		"d1": `<shelf><book><title>c</title></book></shelf>`,
	}
}

// TestIngestEpochSwapUnderLoad is the subsystem's acceptance test (run
// under -race by the CI race step): queriers hammer /join while a writer
// publishes epochs through POST /ingest. Every response must be exactly
// right for the epoch it is labeled with — a query served before a swap
// observes exactly the previous epoch's data, never a blend — and closing
// everything leaks no goroutines.
func TestIngestEpochSwapUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()

	db := buildIngestDB(t, t.TempDir(), ingestBaseDocs())
	st, err := ingest.Open(ingest.Config{DBPath: db, GapAware: true, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DBPath: db, Ingest: st, Workers: 3, QueueDepth: 16, CacheEntries: 64, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()

	const commits = 8
	const queriers = 4
	stop := make(chan struct{})
	errs := make(chan error, 1024)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(ts.URL + "/join?anc=book&desc=title")
				if err != nil {
					report(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					report(fmt.Errorf("join: status %d: %s", resp.StatusCode, body))
					continue
				}
				epoch, err := strconv.ParseInt(resp.Header.Get("X-Epoch"), 10, 64)
				if err != nil {
					report(fmt.Errorf("join: bad X-Epoch %q", resp.Header.Get("X-Epoch")))
					continue
				}
				var parsed struct {
					Count int64 `json:"count"`
				}
				if err := json.Unmarshal(body, &parsed); err != nil {
					report(fmt.Errorf("join: bad body: %v", err))
					continue
				}
				// The oracle: the count must match the labeled epoch
				// exactly. A stale worker answering mid-swap is fine —
				// its label and its data are both epoch N.
				if parsed.Count != 3+epoch {
					report(fmt.Errorf("epoch %d answered count %d, want %d", epoch, parsed.Count, 3+epoch))
				}
			}
		}()
	}

	for i := 0; i < commits; i++ {
		body := fmt.Sprintf(`{"ops":[{"op":"insert_doc","doc":"w%d","xml":"<lib><book><title>x</title></book></lib>"}]}`, i)
		resp, err := client.Post(ts.URL+"/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		rbody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %s", i, resp.StatusCode, rbody)
		}
		var res ingest.CommitResult
		if err := json.Unmarshal(rbody, &res); err != nil {
			t.Fatal(err)
		}
		if res.Epoch != int64(i+1) || res.Applied != 1 {
			t.Fatalf("ingest %d: got %+v, want epoch %d applied 1", i, res, i+1)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// With the writer quiet, the next acquire freshens, so a query must
	// observe the final epoch immediately.
	resp, err := client.Get(ts.URL + "/join?anc=book&desc=title")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Epoch"); got != strconv.Itoa(commits) {
		t.Fatalf("post-ingest query: X-Epoch %q, want %d (%s)", got, commits, body)
	}
	var parsed struct {
		Count int64 `json:"count"`
	}
	if err := json.Unmarshal(body, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Count != 3+commits {
		t.Fatalf("post-ingest query: count %d, want %d", parsed.Count, 3+commits)
	}

	// /epochs agrees with the committed history.
	resp, err = client.Get(ts.URL + "/epochs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var eps EpochsResponse
	if err := json.Unmarshal(body, &eps); err != nil {
		t.Fatal(err)
	}
	if eps.Current != commits || eps.Stats.Commits != commits {
		t.Fatalf("/epochs: current %d commits %d, want %d (%s)", eps.Current, eps.Stats.Commits, commits, body)
	}
	if eps.WorkerSwaps == 0 {
		t.Fatal("/epochs: no worker swaps recorded across epoch publications")
	}

	// Tear everything down, then require every goroutine gone: the race
	// test doubles as the leak check for the swap/compaction machinery.
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutine leak: %d before, %d after teardown", before, g)
	}
}

// TestIngestEndpoints covers the write path's HTTP contract: epoch-keyed
// cache invalidation, validation failures, admission control, drain
// awareness, and the observability surfaces.
func TestIngestEndpoints(t *testing.T) {
	db := buildIngestDB(t, t.TempDir(), ingestBaseDocs())
	st, err := ingest.Open(ingest.Config{DBPath: db, GapAware: true, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close() //nolint:errcheck
	s, err := New(Config{DBPath: db, Ingest: st, Workers: 1, CacheEntries: 64, BufferPages: 32, IngestBacklog: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	getJoin := func() (int64, string, string) {
		t.Helper()
		resp, err := client.Get(ts.URL + "/join?anc=book&desc=title")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("join: status %d: %s", resp.StatusCode, body)
		}
		var parsed struct {
			Count int64 `json:"count"`
		}
		if err := json.Unmarshal(body, &parsed); err != nil {
			t.Fatal(err)
		}
		return parsed.Count, resp.Header.Get("X-Epoch"), resp.Header.Get("X-Cache")
	}
	post := func(body string) (int, []byte, http.Header) {
		t.Helper()
		resp, err := client.Post(ts.URL+"/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, b, resp.Header
	}

	// Epoch 0 baseline, then a cache hit labeled with the same epoch.
	if count, epoch, cache := getJoin(); count != 3 || epoch != "0" || cache != "miss" {
		t.Fatalf("baseline: count %d epoch %s cache %s", count, epoch, cache)
	}
	if count, epoch, cache := getJoin(); count != 3 || epoch != "0" || cache != "hit" {
		t.Fatalf("baseline repeat: count %d epoch %s cache %s", count, epoch, cache)
	}

	// A commit moves the epoch; the same query misses the (epoch-keyed)
	// cache and answers with the new epoch's data. No explicit flush.
	status, body, hdr := post(`{"ops":[{"op":"insert_doc","doc":"n0","xml":"<lib><book><title>t</title></book></lib>"}]}`)
	if status != http.StatusOK || hdr.Get("X-Epoch") != "1" {
		t.Fatalf("ingest: status %d epoch %s: %s", status, hdr.Get("X-Epoch"), body)
	}
	if count, epoch, cache := getJoin(); count != 4 || epoch != "1" || cache != "miss" {
		t.Fatalf("post-commit: count %d epoch %s cache %s", count, epoch, cache)
	}

	// Contract violations: wrong method, malformed body, empty batch,
	// invalid batch (rolled back, 400 — not 500).
	resp, err := client.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: status %d", resp.StatusCode)
	}
	for _, bad := range []string{
		`{`,
		`{"ops":[]}`,
		`{"ops":[{"op":"insert_element","parent":999999,"tag":"x"}]}`,
		`{"ops":[{"op":"insert_doc","doc":"n0","xml":"<a/>"}]}`, // duplicate doc name
	} {
		if status, body, _ := post(bad); status != http.StatusBadRequest {
			t.Errorf("ingest %q: status %d (%s), want 400", bad, status, body)
		}
	}

	// Backlog full: occupy the (capacity-1) gate directly and expect load
	// shedding with a retry hint, not queueing.
	s.ing.gate <- struct{}{}
	status, _, hdr = post(`{"ops":[{"op":"delete_doc","doc":"n0"}]}`)
	if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("backlog full: status %d Retry-After %q, want 503", status, hdr.Get("Retry-After"))
	}
	<-s.ing.gate

	// /epochs and /stats expose the epoch family and the counters.
	resp, err = client.Get(ts.URL + "/epochs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var eps EpochsResponse
	if err := json.Unmarshal(body, &eps); err != nil {
		t.Fatal(err)
	}
	if eps.Current != 1 || len(eps.Epochs) == 0 || eps.Stats.Commits != 1 {
		t.Fatalf("/epochs: %s", body)
	}
	resp, err = client.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats statsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Ingest == nil {
		t.Fatalf("/stats: no ingest block: %s", body)
	}
	if stats.Ingest.Epoch != 1 || stats.Ingest.Requests != 1 || stats.Ingest.Failed < 3 || stats.Ingest.Rejected != 1 {
		t.Fatalf("/stats ingest: %+v", stats.Ingest)
	}
	if stats.Ingest.DeltaPages == 0 {
		t.Fatalf("/stats ingest: one commit, no delta pages counted: %+v", stats.Ingest)
	}
	if stats.Ingest.TreeHeight == 0 || !strings.Contains(string(body), `"root_grows":`) {
		t.Fatalf("/stats ingest: no tree height or root grows: %s", body)
	}
	resp, err = client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"pbiserve_epoch 1",
		"pbiserve_ingest_requests_total 1",
		"pbiserve_ingest_rejected_total 1",
		"pbiserve_worker_swaps_total",
		"pbiserve_ingest_renumbers_total{scope=\"scoped\"}",
		"pbiserve_ingest_delta_pages_total",
		"pbiserve_ingest_shared_pages_total",
		"pbiserve_ingest_root_grows_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics: missing %q", want)
		}
	}

	// Draining servers refuse new writes so shutdown quiesces the family.
	s.Drain()
	if status, body, _ := post(`{"ops":[{"op":"delete_doc","doc":"n0"}]}`); status != http.StatusServiceUnavailable {
		t.Fatalf("draining ingest: status %d (%s), want 503", status, body)
	}
}

// TestIngestConfigRejectsShards pins the mode exclusion: the write path
// serves one database's epoch family, not a split.
func TestIngestConfigRejectsShards(t *testing.T) {
	db := buildIngestDB(t, t.TempDir(), ingestBaseDocs())
	st, err := ingest.Open(ingest.Config{DBPath: db, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close() //nolint:errcheck
	if _, err := New(Config{DBPath: db, Ingest: st, Shards: 2}); err == nil {
		t.Fatal("New accepted Ingest together with Shards")
	}
}

// TestEpochAdvanceMatchesOpen is the differential check of epoch adoption
// (run under -race by the CI race step): one worker follows commits of
// every kind and compactions the way acquire moves it, and after every
// step it must answer every key — each ordered pair of stored tags —
// exactly as an engine freshly opened on the same epoch does. Across
// commits the worker's engine advances, keeping its pool, so its joins hit
// pages cached before the advance; some steps publish two commits, which
// it folds in one advance. A compaction brings a new base, across which it
// is reopened instead, also when commits land on both sides of it before
// the worker moves.
func TestEpochAdvanceMatchesOpen(t *testing.T) {
	db := buildIngestDB(t, t.TempDir(), ingestBaseDocs())
	st, err := ingest.Open(ingest.Config{DBPath: db, GapAware: true, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close() //nolint:errcheck // test teardown
	s, err := New(Config{DBPath: db, Workers: 1, Ingest: st, CacheEntries: -1, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	wk := (<-s.workers).(*soloWorker)
	// code returns the i-th stored code of a tag at the worker's epoch.
	code := func(tag string, i int) uint64 {
		codes, err := wk.rels["tag:"+tag].Codes()
		if err != nil || len(codes) <= i {
			t.Fatalf("code %d of %s: %v (%d codes)", i, tag, err, len(codes))
		}
		return uint64(codes[i])
	}
	insert := func(name, xml string) func() []ingest.Op {
		return func() []ingest.Op { return []ingest.Op{{Op: "insert_doc", Doc: name, XML: xml}} }
	}
	compact := func() []ingest.Op { return nil }
	steps := [][]func() []ingest.Op{
		{insert("n0", `<lib><book><title>n</title></book></lib>`)},
		{insert("n1", `<mbox><msg><subj/></msg><msg/></mbox>`)},
		{insert("n2", `<shelf><book><title/><title/></book><mbox><msg/></mbox></shelf>`),
			func() []ingest.Op { return []ingest.Op{{Op: "delete_doc", Doc: "n0"}} }},
		{func() []ingest.Op {
			return []ingest.Op{
				{Op: "insert_element", Parent: code("book", 0), Tag: "note"},
				{Op: "update_element", Code: code("title", 1), Tag: "subj"},
			}
		}},
		{compact},
		{insert("n3", `<lib><book/><book><title/></book></lib>`)},
		{func() []ingest.Op {
			return []ingest.Op{{Op: "delete_doc", Doc: "n1"}, {Op: "insert_doc", Doc: "n4", XML: `<mbox><msg><subj/><subj/></msg></mbox>`}}
		}},
		{func() []ingest.Op { return []ingest.Op{{Op: "delete_element", Code: code("note", 0)}} }},
		{insert("n5", `<lib><book><note/></book></lib>`), compact, insert("n6", `<shelf><book/></shelf>`)},
		{insert("n7", `<mbox><msg/></mbox>`)},
	}
	// answers runs every key on eng and returns the pairs per key and the
	// pool hits of the whole sweep.
	answers := func(eng *containment.Engine, rels map[string]*containment.Relation) (map[string][]containment.Pair, int64) {
		out := map[string][]containment.Pair{}
		var hits int64
		for an, a := range rels {
			for dn, d := range rels {
				if an == dn {
					continue
				}
				res, err := eng.Join(a, d, containment.JoinOptions{Collect: true})
				if err != nil {
					t.Fatal(err)
				}
				sort.Slice(res.Pairs, func(i, j int) bool {
					p, q := res.Pairs[i], res.Pairs[j]
					return p.A < q.A || p.A == q.A && p.D < q.D
				})
				out[an+"//"+dn] = res.Pairs
				hits += res.IO.PoolHits
			}
		}
		return out, hits
	}
	answers(wk.eng, wk.rels) // warm the pool
	for i, step := range steps {
		before := wk.eng
		compacted := false
		for _, action := range step {
			ops := action()
			if ops == nil {
				if err := st.CompactNow(); err != nil {
					t.Fatal(err)
				}
				compacted = true
			} else if _, err := st.Apply(ops); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		epoch, path := st.CurrentEpoch()
		wk = s.freshen(wk).(*soloWorker)
		if wk.epoch() != epoch {
			t.Fatalf("step %d: worker at epoch %d, store at %d", i, wk.epoch(), epoch)
		}
		if advanced := wk.eng == before; advanced == compacted {
			t.Fatalf("step %d: engine kept = %v across a compaction = %v", i, advanced, compacted)
		}
		got, hits := answers(wk.eng, wk.rels)
		if !compacted && hits == 0 {
			t.Errorf("step %d: no pool hit after the advance", i)
		}
		fresh, rels, err := containment.Open(containment.Config{Path: path, ReadOnly: true, BufferPages: 32})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := answers(fresh, rels)
		fresh.Close()
		if len(got) != len(want) {
			t.Fatalf("step %d: %d keys answered, a fresh open answers %d", i, len(got), len(want))
		}
		for key, w := range want {
			if g := got[key]; !slices.Equal(g, w) {
				t.Fatalf("step %d: %s = %d pairs, a fresh open of epoch %d answers %d", i, key, len(g), epoch, len(w))
			}
		}
	}
	s.workers <- wk
}

// TestIngestEpochNeverBelowAck posts concurrent ingest batches, as many
// as the ingest backlog admits, and after each acknowledged commit reads
// through the same server: the X-Epoch a read is answered at must never
// be older than an epoch a client was already told is committed.
func TestIngestEpochNeverBelowAck(t *testing.T) {
	db := buildIngestDB(t, t.TempDir(), ingestBaseDocs())
	st, err := ingest.Open(ingest.Config{DBPath: db, GapAware: true, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close() //nolint:errcheck // test teardown
	s, err := New(Config{DBPath: db, Ingest: st, Workers: 2, QueueDepth: 16, CacheEntries: 64, BufferPages: 32, IngestBacklog: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck // test teardown
	// The server's own hook, dawdling a varying while before it adopts, so
	// that a delivery out of publication order would have time to land
	// after a newer one.
	var slow atomic.Int64
	st.SetOnPublish(func(epoch int64, path string) {
		time.Sleep(time.Duration(slow.Add(37)%200) * time.Microsecond)
		s.ing.adopt(epoch, path)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	const writers, commits = 4, 10
	var wg sync.WaitGroup
	errs := make(chan error, writers*commits)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				body := fmt.Sprintf(`{"ops":[{"op":"insert_doc","doc":"w%d-%d","xml":"<lib><book><title>x</title></book></lib>"}]}`, w, i)
				resp, err := client.Post(ts.URL+"/ingest", "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				rbody, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusServiceUnavailable {
					continue // shed by the backlog: nothing was committed
				}
				var res ingest.CommitResult
				if resp.StatusCode != http.StatusOK || json.Unmarshal(rbody, &res) != nil {
					errs <- fmt.Errorf("ingest: status %d: %s", resp.StatusCode, rbody)
					return
				}
				resp, err = client.Get(ts.URL + "/join?anc=book&desc=title")
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the header matters
				resp.Body.Close()
				if got, err := strconv.ParseInt(resp.Header.Get("X-Epoch"), 10, 64); err != nil || got < res.Epoch {
					errs <- fmt.Errorf("read after the commit of epoch %d answered at X-Epoch %q", res.Epoch, resp.Header.Get("X-Epoch"))
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
