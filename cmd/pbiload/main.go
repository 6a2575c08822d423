// Command pbiload drives a pbiserve instance with a containment-query
// workload and reports throughput plus latency percentiles — the serving
// benchmark counterpart of cmd/pbibench's single-engine experiments
// (shaped after ReqBench-style load generators).
//
// Two loop disciplines:
//
//   - closed (default): -c workers each keep exactly one request in
//     flight — throughput emerges from latency.
//   - open: requests fire at a fixed -qps regardless of completions —
//     latency emerges from load (tail latencies under overload).
//
// The query mix comes from -queries/-paths, or -mix dblp|xmark, which
// replays the paper's D1–D10 / B1–B10 join workloads (tags absent from
// the served database are skipped after consulting /relations).
//
// Against a pbiserve running with a live write path (-ingest, see
// doc/INGEST.md), -ingest FRAC turns that fraction of requests into POST
// /ingest batches of synthetic single-item documents; -ingest-updates
// splits them between fresh inserts and replacements of documents the run
// already landed. Ingest batches report their own latency percentiles,
// the epoch the run reached, and the renumber counts the server's
// gap-aware coder charged — the serving-tier counterpart of
// internal/ingest's sustained-ingest benchmark.
//
// Usage:
//
//	pbiload -url http://localhost:8080 -mix xmark -c 8 -n 2000
//	pbiload -url http://localhost:8080 -mode open -qps 200 -duration 30s \
//	        -queries section/figure,section/para/rollup -paths //a//b//c
//	pbiload -targets http://n1:8080,http://n2:8080 -mix xmark -n 2000
//	pbiload -url http://localhost:8080 -mix xmark -ingest 0.1 -ingest-updates 0.5 -n 500
//
// -targets spreads the workload round-robin across several serving
// endpoints (replica nodes, or pbiserve vs pbirouter side by side) and
// reports a per-target breakdown: request count, non-200 statuses by
// failure class, and the X-Cache hit rate each target achieved.
//
// Degraded answers (HTTP 206 from a router serving with shards missing)
// are counted as their own outcome class — "partial" — separate from both
// successes and failures: they carry a real (lower-bound) answer, so their
// latencies count, but a run that produced any is visibly not a clean one.
//
// Exit status is nonzero if any request failed or returned a status other
// than 200 or 206, so CI smoke jobs can gate on it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pbitree/pbitree/internal/serve"
	"github.com/pbitree/pbitree/internal/workload"
)

func main() {
	var (
		base     = flag.String("url", "http://localhost:8080", "pbiserve base URL")
		targets  = flag.String("targets", "", "comma-separated base URLs to spread load across (overrides -url)")
		mode     = flag.String("mode", "closed", "loop discipline: closed|open")
		conc     = flag.Int("c", 8, "closed loop: concurrent workers")
		qps      = flag.Float64("qps", 100, "open loop: target request rate")
		n        = flag.Int64("n", 0, "total requests (0 = run for -duration)")
		duration = flag.Duration("duration", 10*time.Second, "run length when -n is 0")
		queries  = flag.String("queries", "", "comma-separated joins anc/desc[/algo]")
		paths    = flag.String("paths", "", "comma-separated path expressions //a//b")
		mix      = flag.String("mix", "", "replay a benchmark mix: dblp|xmark")
		stats    = flag.Bool("stats", true, "print server /stats after the run")
		ingFrac  = flag.Float64("ingest", 0, "fraction of requests issued as POST /ingest batches (server needs -ingest)")
		ingUpd   = flag.Float64("ingest-updates", 0, "fraction of ingest batches that replace an already-inserted document")
	)
	flag.Parse()
	if *ingFrac < 0 || *ingFrac > 1 || *ingUpd < 0 || *ingUpd > 1 {
		fail(fmt.Errorf("-ingest and -ingest-updates must be in [0,1]"))
	}

	bases := splitList(*targets)
	if len(bases) == 0 {
		bases = []string{*base}
	}
	for i := range bases {
		bases[i] = strings.TrimRight(bases[i], "/")
	}

	// The mix filters against the first target's catalog; every target of
	// one deployment serves the same relations (replicas, or a router over
	// the same split), so one consultation covers the fleet.
	urls, err := buildMix(bases[0], *queries, *paths, *mix)
	if err != nil {
		fail(err)
	}
	if len(urls) == 0 {
		fail(fmt.Errorf("empty query mix: pass -queries, -paths or -mix"))
	}
	ing.init(*ingFrac, *ingUpd, len(bases))
	fmt.Printf("pbiload: %d distinct queries, %d targets, mode=%s\n", len(urls), len(bases), *mode)

	var results []result
	var elapsed time.Duration
	switch *mode {
	case "closed":
		results, elapsed = closedLoop(bases, urls, *conc, *n, *duration)
	case "open":
		results, elapsed = openLoop(bases, urls, *qps, *n, *duration)
	default:
		fail(fmt.Errorf("unknown -mode %q (closed|open)", *mode))
	}

	// Ingest batches report separately: write latency under a read load is
	// a different quantity than read latency under a write load.
	readRes, writeRes := splitIngest(results)
	bad := report(readRes, elapsed)
	bad += reportIngest(writeRes)
	if len(bases) > 1 {
		reportTargets(bases, results)
	}
	if *stats {
		for _, b := range bases {
			printServerStats(b)
		}
	}
	if *ingFrac > 0 {
		for _, b := range bases {
			printEpochStats(b)
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
}

// result is one request's outcome.
type result struct {
	latency time.Duration
	status  int    // 0 on transport error
	cache   string // X-Cache response header: "hit", "miss" or ""
	target  int    // index into the target base-URL list
	ingest  bool   // POST /ingest batch, not a query
}

// ing drives the optional mixed write workload (-ingest): a deterministic
// fraction of the request sequence becomes POST /ingest batches of
// synthetic single-item documents, split between fresh inserts and
// replacements (delete_doc + insert_doc in one atomic batch) of documents
// this run already landed. Renumber counts accumulate from the commit
// results the server returns, so the report needs no post-run scraping.
type ingestLoad struct {
	frac    float64
	updFrac float64
	prefix  string
	mu      sync.Mutex
	docs    [][]string   // confirmed inserted doc names, per target
	scoped  atomic.Int64 // renumbers charged to this run's batches
	global  atomic.Int64
	epoch   atomic.Int64 // highest epoch a commit reported
}

var ing ingestLoad

func (st *ingestLoad) init(frac, upd float64, targets int) {
	st.frac, st.updFrac = frac, upd
	// Unique per run so repeated runs against one server never collide on
	// insert_doc names.
	st.prefix = fmt.Sprintf("pbiload-%d", time.Now().UnixNano()%1_000_000_000)
	st.docs = make([][]string, targets)
}

// isIngestSeq picks which sequence numbers become ingest batches. The
// multiplier spreads the chosen residues across each window of 100 so
// writes interleave with reads instead of clustering.
func isIngestSeq(seq int64) bool {
	return ing.frac > 0 && float64((seq*61)%100) < ing.frac*100
}

// doOp issues request seq of the run: an ingest batch on the sequence
// numbers isIngestSeq selects, a query from the mix otherwise.
func doOp(client *http.Client, bases, urls []string, seq int64) result {
	if isIngestSeq(seq) {
		return doIngest(client, bases, seq)
	}
	return doRequest(client, bases, urls[int(seq)%len(urls)], seq)
}

// doIngest posts one synthetic update batch: a fresh single-item document,
// or — on the -ingest-updates fraction, once the target has confirmed
// inserts to draw from — an atomic replacement of one of them.
func doIngest(client *http.Client, bases []string, seq int64) result {
	ti := int(seq) % len(bases)
	name := fmt.Sprintf("%s-%d", ing.prefix, seq)
	xml := fmt.Sprintf("<doc><item><text>r%d</text></item></doc>", seq)
	replace := ""
	if float64((seq*37)%100) < ing.updFrac*100 {
		ing.mu.Lock()
		if n := len(ing.docs[ti]); n > 0 {
			replace = ing.docs[ti][int(seq)%n]
		}
		ing.mu.Unlock()
	}
	var ops []map[string]any
	if replace != "" {
		ops = []map[string]any{
			{"op": "delete_doc", "doc": replace},
			{"op": "insert_doc", "doc": replace, "xml": xml},
		}
	} else {
		ops = []map[string]any{{"op": "insert_doc", "doc": name, "xml": xml}}
	}
	body, _ := json.Marshal(map[string]any{"ops": ops})
	start := time.Now()
	resp, err := client.Post(bases[ti]+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return result{latency: time.Since(start), target: ti, ingest: true}
	}
	var cr struct {
		Epoch           int64  `json:"epoch"`
		RenumbersScoped uint64 `json:"renumbers_scoped"`
		RenumbersGlobal uint64 `json:"renumbers_global"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&cr)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
	resp.Body.Close()
	lat := time.Since(start)
	if resp.StatusCode == http.StatusOK && decErr == nil {
		ing.scoped.Add(int64(cr.RenumbersScoped))
		ing.global.Add(int64(cr.RenumbersGlobal))
		for {
			cur := ing.epoch.Load()
			if cr.Epoch <= cur || ing.epoch.CompareAndSwap(cur, cr.Epoch) {
				break
			}
		}
		if replace == "" {
			ing.mu.Lock()
			ing.docs[ti] = append(ing.docs[ti], name)
			ing.mu.Unlock()
		}
	}
	return result{latency: lat, status: resp.StatusCode, target: ti, ingest: true}
}

// splitIngest partitions a run's results into queries and ingest batches.
func splitIngest(results []result) (queries, ingests []result) {
	for _, r := range results {
		if r.ingest {
			ingests = append(ingests, r)
		} else {
			queries = append(queries, r)
		}
	}
	return queries, ingests
}

// reportIngest prints the write-side summary and returns the number of
// failed batches. Shed batches (503, the server's ingest backlog was
// full) are their own class — retryable backpressure, but still a
// nonzero exit so CI notices an overloaded configuration.
func reportIngest(results []result) int {
	if len(results) == 0 {
		return 0
	}
	var ok, shed, failed int
	lats := make([]time.Duration, 0, len(results))
	for _, r := range results {
		switch {
		case r.status == http.StatusOK:
			ok++
			lats = append(lats, r.latency)
		case r.status == http.StatusServiceUnavailable:
			shed++
		default:
			failed++
		}
	}
	fmt.Printf("pbiload: ingest: %d batches  ok=%d shed=%d failed=%d\n", len(results), ok, shed, failed)
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		fmt.Printf("pbiload: ingest latency %s max=%v\n", quantiles(lats), lats[len(lats)-1].Round(time.Microsecond))
	}
	if ok > 0 {
		fmt.Printf("pbiload: ingest reached epoch %d  renumbers scoped=%d global=%d\n",
			ing.epoch.Load(), ing.scoped.Load(), ing.global.Load())
	}
	return shed + failed
}

// printEpochStats surfaces the server's own write-path view after a mixed
// run: chain length, op counts, overflow inserts and compactions — the
// counters /epochs exposes (see doc/INGEST.md).
func printEpochStats(base string) {
	resp, err := http.Get(strings.TrimRight(base, "/") + "/epochs")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbiload: fetch /epochs: %v\n", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "pbiload: /epochs: status %d (server not running -ingest?)\n", resp.StatusCode)
		return
	}
	var e struct {
		Current int64 `json:"current"`
		Stats   struct {
			ChainLen        int    `json:"chain_len"`
			Documents       int    `json:"documents"`
			Commits         uint64 `json:"commits"`
			Inserts         uint64 `json:"inserts"`
			Updates         uint64 `json:"updates"`
			Deletes         uint64 `json:"deletes"`
			RenumbersScoped uint64 `json:"renumbers_scoped"`
			RenumbersGlobal uint64 `json:"renumbers_global"`
			OverflowInserts uint64 `json:"overflow_inserts"`
			RootGrows       uint64 `json:"root_grows"`
			TreeHeight      int    `json:"tree_height"`
			Compactions     uint64 `json:"compactions"`
		} `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		fmt.Fprintf(os.Stderr, "pbiload: parse /epochs: %v\n", err)
		return
	}
	s := e.Stats
	fmt.Printf("server: epoch %d (chain %d, %d documents), %d commits: %d inserts %d updates %d deletes\n",
		e.Current, s.ChainLen, s.Documents, s.Commits, s.Inserts, s.Updates, s.Deletes)
	fmt.Printf("server: renumbers scoped=%d global=%d, overflow inserts=%d, root grows=%d (tree height %d), compactions=%d\n",
		s.RenumbersScoped, s.RenumbersGlobal, s.OverflowInserts, s.RootGrows, s.TreeHeight, s.Compactions)
}

// buildMix assembles the request list as target-relative URLs; the load
// loops prepend a base per request. statsBase is only consulted for -mix
// relation filtering.
func buildMix(statsBase, queries, paths, mix string) ([]string, error) {
	var urls []string
	for _, spec := range splitList(queries) {
		parts := strings.Split(spec, "/")
		if len(parts) != 2 && len(parts) != 3 {
			return nil, fmt.Errorf("bad -queries entry %q (want anc/desc[/algo])", spec)
		}
		u := fmt.Sprintf("/join?anc=%s&desc=%s",
			url.QueryEscape(parts[0]), url.QueryEscape(parts[1]))
		if len(parts) == 3 {
			u += "&algo=" + url.QueryEscape(parts[2])
		}
		urls = append(urls, u)
	}
	for _, expr := range splitList(paths) {
		urls = append(urls, "/query?path="+url.QueryEscape(expr))
	}
	if mix != "" {
		var qs []workload.Query
		switch mix {
		case "dblp":
			qs = workload.DBLPQueries()
		case "xmark":
			qs = workload.XMarkQueries()
		default:
			return nil, fmt.Errorf("unknown -mix %q (dblp|xmark)", mix)
		}
		available, err := servedTags(statsBase)
		if err != nil {
			return nil, fmt.Errorf("fetch /relations for -mix filtering: %w", err)
		}
		skipped := 0
		for _, q := range qs {
			if !available[q.AncTag] || !available[q.DescTag] {
				skipped++
				continue
			}
			urls = append(urls, fmt.Sprintf("/join?anc=%s&desc=%s",
				url.QueryEscape(q.AncTag), url.QueryEscape(q.DescTag)))
		}
		if skipped > 0 {
			fmt.Printf("pbiload: mix %s: skipped %d/%d queries whose tags are not in the served database\n",
				mix, skipped, len(qs))
		}
	}
	return urls, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// servedTags asks the server which tag relations it stores.
func servedTags(base string) (map[string]bool, error) {
	resp, err := http.Get(base + "/relations")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/relations: status %d", resp.StatusCode)
	}
	var rels []struct {
		Tag string `json:"tag"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rels); err != nil {
		return nil, err
	}
	tags := make(map[string]bool, len(rels))
	for _, r := range rels {
		tags[r.Tag] = true
	}
	return tags, nil
}

// doRequest issues one GET and classifies the outcome. The target is
// picked round-robin from the request sequence number, so with several
// targets the same mix spreads evenly across all of them.
func doRequest(client *http.Client, bases []string, u string, seq int64) result {
	ti := int(seq) % len(bases)
	start := time.Now()
	resp, err := client.Get(bases[ti] + u)
	if err != nil {
		return result{latency: time.Since(start), target: ti}
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
	resp.Body.Close()
	return result{
		latency: time.Since(start),
		status:  resp.StatusCode,
		cache:   resp.Header.Get("X-Cache"),
		target:  ti,
	}
}

// closedLoop runs conc workers, each holding one request in flight, until
// total requests are issued (or the duration elapses when total is 0).
func closedLoop(bases, urls []string, conc int, total int64, duration time.Duration) ([]result, time.Duration) {
	if conc < 1 {
		conc = 1
	}
	deadline := time.Now().Add(duration)
	var issued atomic.Int64
	resc := make(chan result, 1024)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			for {
				i := issued.Add(1)
				if total > 0 && i > total {
					return
				}
				if total == 0 && time.Now().After(deadline) {
					return
				}
				resc <- doOp(client, bases, urls, i-1)
			}
		}()
	}
	results := collect(resc, &wg)
	return results, time.Since(start)
}

// openLoop fires requests on a fixed schedule regardless of completions.
// Outstanding requests are capped (far above any sane completion rate) so
// a dead server cannot exhaust file descriptors.
func openLoop(bases, urls []string, qps float64, total int64, duration time.Duration) ([]result, time.Duration) {
	if qps <= 0 {
		qps = 1
	}
	interval := time.Duration(float64(time.Second) / qps)
	deadline := time.Now().Add(duration)
	sem := make(chan struct{}, 1024)
	resc := make(chan result, 1024)
	var wg sync.WaitGroup
	client := &http.Client{}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	start := time.Now()
	// Issue from a goroutine so collect drains results concurrently:
	// otherwise a full resc blocks completions, which pins sem slots and
	// deadlocks the issuing loop once in-flight results exceed resc's cap.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var issued int64
		for range ticker.C {
			if total > 0 && issued >= total {
				return
			}
			if total == 0 && time.Now().After(deadline) {
				return
			}
			issued++
			seq := issued - 1
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				resc <- doOp(client, bases, urls, seq)
				<-sem
			}()
		}
	}()
	results := collect(resc, &wg)
	return results, time.Since(start)
}

// collect drains the result channel until all senders finish.
func collect(resc chan result, wg *sync.WaitGroup) []result {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var results []result
	for {
		select {
		case r := <-resc:
			results = append(results, r)
		case <-done:
			for {
				select {
				case r := <-resc:
					results = append(results, r)
				default:
					return results
				}
			}
		}
	}
}

// report prints the summary and returns the number of failed requests.
func report(results []result, elapsed time.Duration) int {
	var transportErrs, non200, partial, hits, misses int
	lats := make([]time.Duration, 0, len(results))
	byStatus := map[int]int{}
	for _, r := range results {
		switch {
		case r.status == 0:
			transportErrs++
		case r.status == http.StatusPartialContent:
			// Degraded router answer: a real lower bound, its own class —
			// neither a clean success nor a failure.
			partial++
			lats = append(lats, r.latency)
		case r.status != http.StatusOK:
			non200++
			byStatus[r.status]++
		default:
			lats = append(lats, r.latency)
			switch r.cache {
			case "hit":
				hits++
			case "miss":
				misses++
			}
		}
	}
	fmt.Printf("pbiload: %d requests in %v (%.1f req/s)  ok=%d partial=%d cached=%d non200=%d errors=%d\n",
		len(results), elapsed.Round(time.Millisecond),
		float64(len(results))/elapsed.Seconds(),
		len(lats)-partial, partial, hits, non200, transportErrs)
	statuses := make([]int, 0, len(byStatus))
	for status := range byStatus {
		statuses = append(statuses, status)
	}
	sort.Ints(statuses)
	for _, status := range statuses {
		fmt.Printf("pbiload:   status %d (%s): %d\n", status, statusClass(status), byStatus[status])
	}
	// Server-side cache disposition, counted from the X-Cache header every
	// /join and /query response carries.
	if hits+misses > 0 {
		fmt.Printf("pbiload: server cache: %d hits / %d misses (%.1f%% hit rate)\n",
			hits, misses, 100*float64(hits)/float64(hits+misses))
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		fmt.Printf("pbiload: latency %s max=%v\n", quantiles(lats), lats[len(lats)-1])
	}
	return transportErrs + non200
}

// reportTargets prints the per-target breakdown: how each endpoint
// handled its slice of the load, which failure classes it produced, and
// what X-Cache hit rate it achieved.
func reportTargets(bases []string, results []result) {
	type tstat struct {
		requests, ok, partial, transportErrs int
		hits, misses                         int
		byStatus                             map[int]int
		lats                                 []time.Duration
	}
	stats := make([]*tstat, len(bases))
	for i := range stats {
		stats[i] = &tstat{byStatus: map[int]int{}}
	}
	for _, r := range results {
		t := stats[r.target]
		t.requests++
		switch {
		case r.status == 0:
			t.transportErrs++
		case r.status == http.StatusPartialContent:
			t.partial++
			t.lats = append(t.lats, r.latency)
		case r.status != http.StatusOK:
			t.byStatus[r.status]++
		default:
			t.ok++
			t.lats = append(t.lats, r.latency)
			switch r.cache {
			case "hit":
				t.hits++
			case "miss":
				t.misses++
			}
		}
	}
	for i, b := range bases {
		t := stats[i]
		fmt.Printf("pbiload: target %-32s %6d requests  ok=%d partial=%d errors=%d", b, t.requests, t.ok, t.partial, t.transportErrs)
		if t.hits+t.misses > 0 {
			fmt.Printf("  cache-hit=%.1f%%", 100*float64(t.hits)/float64(t.hits+t.misses))
		}
		fmt.Println()
		// Per-target percentiles over successful requests: side-by-side
		// targets (node vs router, replica vs replica) compare directly.
		if len(t.lats) > 0 {
			sort.Slice(t.lats, func(a, b int) bool { return t.lats[a] < t.lats[b] })
			fmt.Printf("pbiload:   %-32s latency %s max=%v\n",
				b, quantiles(t.lats), t.lats[len(t.lats)-1].Round(time.Microsecond))
		}
		statuses := make([]int, 0, len(t.byStatus))
		for status := range t.byStatus {
			statuses = append(statuses, status)
		}
		sort.Ints(statuses)
		for _, status := range statuses {
			fmt.Printf("pbiload:   %-32s status %d (%s): %d\n", b, status, statusClass(status), t.byStatus[status])
		}
	}
}

// statusClass names the server's failure vocabulary so the breakdown
// separates shed load (backpressure, retryable) from deadline expiry
// (queries too slow for their budget) and internal failures (bugs).
func statusClass(status int) string {
	switch status {
	case http.StatusPartialContent:
		return "partial (degraded: shards missing)"
	case 499:
		return "client canceled"
	case http.StatusServiceUnavailable:
		return "shed: queue full / unavailable"
	case http.StatusBadGateway:
		return "upstream failure"
	case http.StatusGatewayTimeout:
		return "deadline exceeded"
	case http.StatusInternalServerError:
		return "internal error"
	case http.StatusNotFound:
		return "unknown relation"
	default:
		return http.StatusText(status)
	}
}

// quantiles formats a sorted latency sample's p50/p95/p99 (nearest rank,
// the servers' own /stats method), rounded to the microsecond.
func quantiles(sorted []time.Duration) string {
	q := func(p float64) time.Duration { return serve.Percentile(sorted, p).Round(time.Microsecond) }
	return fmt.Sprintf("p50=%v p95=%v p99=%v", q(0.50), q(0.95), q(0.99))
}

// printServerStats surfaces the server-side view: cache hit rate, queue
// pressure, per-algorithm page I/O.
func printServerStats(base string) {
	resp, err := http.Get(strings.TrimRight(base, "/") + "/stats")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pbiload: fetch /stats: %v\n", err)
		return
	}
	defer resp.Body.Close()
	var s struct {
		Requests   int64              `json:"requests"`
		Rejected   int64              `json:"rejected"`
		Cache      *serve.CacheStats  `json:"cache"`
		Latency    serve.LatencyStats `json:"latency"`
		Algorithms map[string]struct {
			Requests int64 `json:"requests"`
			PageIO   int64 `json:"page_io"`
		} `json:"algorithms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		fmt.Fprintf(os.Stderr, "pbiload: parse /stats: %v\n", err)
		return
	}
	fmt.Printf("server: %d requests, %d rejected", s.Requests, s.Rejected)
	if s.Cache != nil {
		fmt.Printf(", cache %d/%d hits (%.0f%%)", s.Cache.Hits, s.Cache.Hits+s.Cache.Misses, 100*s.Cache.HitRate)
	}
	fmt.Printf(", server-side p50=%dµs p95=%dµs p99=%dµs\n",
		s.Latency.P50US, s.Latency.P95US, s.Latency.P99US)
	if len(s.Algorithms) > 0 {
		names := make([]string, 0, len(s.Algorithms))
		for name := range s.Algorithms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			a := s.Algorithms[name]
			fmt.Printf("server:   %-16s %6d joins %10d page I/O\n", name, a.Requests, a.PageIO)
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "pbiload: %v\n", err)
	os.Exit(1)
}
