package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// rec is one completed op of a timed run.
type rec struct {
	start, end time.Duration // since the load began
	key        int           // -1 for a write
	failed     bool          // transport error or non-200 status
	cached     bool          // X-Cache: hit
	count      int64         // the answer's count
	epoch      int64         // X-Epoch (reads) or the published epoch (writes); 0 without ingest
	write      *write
}

// runTimed is the timed run: set up, compute the oracle, load the stack
// closed-loop through warm-up and the measured window with tracing off,
// check every answer, tear down. A run sets up once; the median of setup_s
// comes from the runs the driver makes.
func runTimed(cfg Config) (*Result, error) {
	setPhase(cfg, "set-up")
	t0 := time.Now()
	st, err := setupStack(cfg, filepath.Join(cfg.Dir, "setup"))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(t0).Seconds()
	defer st.close() //nolint:errcheck // error paths; the success path checks close below

	setPhase(cfg, "oracle over %d elements", st.corpus.elems)
	keys := Keys()
	want := Oracle(st.corpus.coll.Roots(), keys)

	res := &Result{Metrics: map[string]float64{"setup_s": setup}}
	if cfg.Workload == "join_cold" {
		err = loadCold(cfg, st, keys, want, res)
	} else {
		err = loadHTTP(cfg, st, keys, want, res)
	}
	if err != nil {
		return nil, err
	}
	setPhase(cfg, "tear down")
	if err := st.close(); err != nil {
		res.Failed++
		fmt.Fprintf(cfg.Log, "pbiperf: FAILED CHECK tear down: %v\n", err)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// measured is what the measured window saw.
type measured struct {
	seconds float64
	before  usage     // process counters when the window opened
	after   usage     // and when it closed
	ops     int64     // correct ops that began and ended inside it
	lat     []float64 // latencies the percentiles are taken over, ms
}

// report fills the five metrics that come from the measured window.
func (m measured) report(cfg Config, res *Result) {
	sort.Float64s(m.lat)
	res.Metrics["ops_per_s"] = float64(m.ops) / m.seconds
	res.Metrics["lat_p50_ms"] = percentile(m.lat, 0.50)
	res.Metrics["lat_p99_ms"] = percentile(m.lat, 0.99)
	res.Metrics["cpu_ms_per_op"] = perOp(ms(m.after.cpu-m.before.cpu), m.ops)
	res.Metrics["allocs_per_op"] = perOp(float64(m.after.mallocs-m.before.mallocs), m.ops)
	fmt.Fprintf(cfg.Log, "pbiperf: %d ops in %.2fs; percentiles over %d latency samples, %d beyond p99\n",
		m.ops, m.seconds, len(m.lat), len(m.lat)/100)
}

// loadCold drives join_cold: one goroutine cycles the fixed 30-op pass on
// the single-owner engine, dropping the cache before every join and the
// temporary pages after it. Only whole passes count, and the process
// counters are read on pass boundaries.
func loadCold(cfg Config, st *stack, keys []Key, want []int64, res *Result) error {
	ops := st.corpus.coldOps()
	expect := make([]int64, len(ops))
	for i, k := range ops {
		expect[i] = wantFor(keys, want, k)
	}
	var (
		eng             = st.engine
		firstIO         = make([]int64, len(ops))     // page I/O of each op in the first pass
		perOpLat        = make([][]float64, len(ops)) // each op's latency in every measured pass
		m               measured
		passes, pageIO  int64
		began           = time.Now()
		measuring       bool
		mStart          time.Time
		mismatch, drift int64
	)
	setPhase(cfg, "warm-up %.1fs, then %.1fs of whole passes", cfg.Warmup, cfg.Seconds)
	for pass := 0; ; pass++ {
		now := time.Now()
		if !measuring && now.Sub(began).Seconds() >= cfg.Warmup {
			measuring, mStart, m.before = true, now, readUsage()
		}
		if measuring && now.Sub(mStart).Seconds() >= cfg.Seconds && passes > 0 {
			m.after, m.seconds = readUsage(), now.Sub(mStart).Seconds()
			break
		}
		for i, k := range ops {
			if err := eng.DropCache(); err != nil {
				return fmt.Errorf("drop cache: %w", err)
			}
			t0 := time.Now()
			r, err := eng.Join(k.Tags[0], k.Tags[1], k.Algo)
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("join %s: %w", k.ID, err)
			}
			if err := eng.ReleaseTemp(); err != nil {
				return fmt.Errorf("release temp: %w", err)
			}
			if pass == 0 {
				firstIO[i] = r.PageIO()
			}
			if !measuring {
				continue
			}
			res.Attempted++
			pageIO += r.PageIO()
			// The modeled cost of a cold join is a function of the data
			// alone; if it ever differs between passes the counter is not
			// the exact-repeat counter the gate treats it as.
			if r.PageIO() != firstIO[i] {
				drift++
			}
			if r.Count != expect[i] {
				mismatch++
				fmt.Fprintf(cfg.Log, "pbiperf: WRONG ANSWER %s: count %d, oracle %d\n", k.ID, r.Count, expect[i])
				continue
			}
			m.ops++
			perOpLat[i] = append(perOpLat[i], ms(d))
		}
		if measuring {
			passes++
		}
	}
	// The pass is a fixed cycle, so the latency distribution has one atom
	// per op. Each op is represented by its median over the passes, and the
	// percentiles are taken over the ops: p99 is the typical latency of the
	// slowest op, not the worst stall that happened to hit it.
	for i, lat := range perOpLat {
		if len(lat) > 0 {
			m.lat = append(m.lat, median(lat))
			fmt.Fprintf(cfg.Log, "pbiperf: %-14s median %8.3f ms over %d passes, %6d pages\n", ops[i].ID, median(lat), len(lat), firstIO[i])
		}
	}
	res.Failed = mismatch + drift
	m.report(cfg, res)
	res.Metrics["page_io_per_join"] = perOp(float64(pageIO), res.Attempted)
	res.Metrics["db_bytes_per_elem"] = ratio(float64(st.corpus.dbBytes()), float64(st.corpus.elems))
	fmt.Fprintf(cfg.Log, "pbiperf: %d whole passes of %d ops; %d wrong counts, %d ops whose page I/O differed from the first pass\n",
		passes, len(ops), mismatch, drift)
	return nil
}

// httpClient is one closed-loop client: it sends its stream's next op only
// after the previous one completed.
type httpClient struct {
	hc     *http.Client
	base   string
	stream *stream
	keys   []Key
	recs   []rec
}

// do sends one op and records its outcome.
func (c *httpClient) do(o op, began time.Time) {
	r := rec{key: o.key, write: o.write, start: time.Since(began)}
	var (
		resp *http.Response
		err  error
	)
	if o.write == nil {
		resp, err = c.hc.Get(c.base + c.keys[o.key].URL())
	} else {
		r.key = -1
		body, _ := json.Marshal(ingestRequest{Ops: o.write.ops}) // plain strings cannot fail to marshal
		resp, err = c.hc.Post(c.base+"/ingest", "application/json", bytes.NewReader(body))
	}
	if err != nil {
		r.failed = true
	} else {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		r.failed = rerr != nil || resp.StatusCode != http.StatusOK
		r.cached = resp.Header.Get("X-Cache") == "hit"
		r.epoch, _ = strconv.ParseInt(resp.Header.Get("X-Epoch"), 10, 64) // absent without ingest: 0
		if !r.failed && o.write == nil {
			var cr countResponse
			r.failed = json.Unmarshal(body, &cr) != nil
			r.count = cr.Count
		}
		if !r.failed && o.write != nil {
			var cr CommitResult
			r.failed = json.Unmarshal(body, &cr) != nil || cr.Applied != len(o.write.ops)
			r.epoch = cr.Epoch
		}
	}
	r.end = time.Since(began)
	c.recs = append(c.recs, r)
}

// loadHTTP drives the three serving workloads: Clients() closed-loop
// clients over keep-alive connections, warm-up then the measured window.
func loadHTTP(cfg Config, st *stack, keys []Key, want []int64, res *Result) error {
	answerable := st.corpus.answerable(keys)
	clients := make([]*httpClient, Clients())
	for i := range clients {
		clients[i] = &httpClient{
			hc: st.hc, base: st.url, keys: keys,
			stream: newStream(cfg.Workload, cfg.Seed, i, keys, answerable),
			recs:   make([]rec, 0, 1<<16),
		}
	}
	// Warm-up starts with every key once, in key order, from one client:
	// the result caches fill the same way whatever the seed's ranking, so
	// the joins a run executes, and their modeled page I/O, do not depend
	// on which client's miss raced which.
	setPhase(cfg, "priming %d keys", len(answerable))
	began := time.Now()
	primer := &httpClient{hc: st.hc, base: st.url, keys: keys}
	for _, k := range answerable {
		primer.do(op{key: k}, began)
	}
	setPhase(cfg, "warm-up %.1fs, then %.1fs measured, %d clients", cfg.Warmup, cfg.Seconds, len(clients))
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	// ingest_mix compacts from here, not from the store's daemon; see writerTurn.
	var turn writerTurn
	began = time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *httpClient) {
			defer wg.Done()
			for !stop.Load() {
				if o := c.stream.next(); o.write != nil {
					turn.commit(c, o, began, st.store)
				} else {
					c.do(o, began)
				}
			}
		}(c)
	}
	time.Sleep(time.Duration(cfg.Warmup * float64(time.Second)))
	m := measured{before: readUsage()}
	mStart := time.Since(began)
	// The database is sampled through the window because ingest_mix's size
	// is a sawtooth: deltas pile up until a compaction folds them.
	var sizes []float64
	for end := mStart + time.Duration(cfg.Seconds*float64(time.Second)); time.Since(began) < end; {
		if cfg.Workload == "ingest_mix" {
			sizes = append(sizes, float64(st.corpus.dbBytes()))
		}
		time.Sleep(min(100*time.Millisecond, end-time.Since(began)))
	}
	m.after = readUsage()
	mEnd := time.Since(began)
	m.seconds = (mEnd - mStart).Seconds()
	stop.Store(true)
	wg.Wait()

	setPhase(cfg, "checks")
	// f(epoch): the expected count of every key at every epoch, from the
	// acknowledged commits alone. Compaction epochs change no content.
	type commit struct {
		epoch int64
		w     *write
	}
	var commits []commit
	for _, c := range clients {
		for _, r := range c.recs {
			if r.write != nil && !r.failed {
				commits = append(commits, commit{r.epoch, r.write})
			}
		}
	}
	sort.Slice(commits, func(i, j int) bool { return commits[i].epoch < commits[j].epoch })
	expected := func(key int, epoch int64) int64 {
		n := want[key]
		for _, c := range commits {
			if c.epoch > epoch {
				break
			}
			n += c.w.delta[key]
		}
		return n
	}
	for i := 1; i < len(commits); i++ {
		if commits[i].epoch == commits[i-1].epoch {
			res.Failed++
			fmt.Fprintf(cfg.Log, "pbiperf: FAILED CHECK two commits acknowledged as epoch %d\n", commits[i].epoch)
		}
	}

	var (
		wrong, failed, hits, reads, writes int64
		commitLat                          []float64
	)
	for _, c := range append(clients, primer) {
		for _, r := range c.recs {
			bad := r.failed
			if !bad && r.write == nil && r.count != expected(r.key, r.epoch) {
				bad = true
				wrong++
				if wrong <= 5 {
					fmt.Fprintf(cfg.Log, "pbiperf: WRONG ANSWER %s at epoch %d: count %d, oracle %d\n",
						keys[r.key].ID, r.epoch, r.count, expected(r.key, r.epoch))
				}
			}
			// Every op of the run is checked; only those that began and
			// ended inside the window are measured.
			res.Attempted++
			if bad {
				res.Failed++
			}
			if r.start < mStart || r.end > mEnd {
				continue
			}
			if bad {
				failed++
				continue
			}
			m.ops++
			if r.write != nil {
				writes++
				commitLat = append(commitLat, ms(r.end-r.start))
				continue
			}
			reads++
			m.lat = append(m.lat, ms(r.end-r.start))
			if r.cached {
				hits++
			}
		}
	}
	joins, pageIO, nodes, err := st.joinStats()
	if err != nil {
		return fmt.Errorf("node stats: %w", err)
	}
	m.report(cfg, res)
	res.Metrics["page_io_per_join"] = perOp(float64(pageIO), joins)
	fmt.Fprintf(cfg.Log, "pbiperf: %d reads, %d writes, %d failed or wrong in the window, %d wrong over the whole run; %d joins executed for %d pages since boot\n",
		reads, writes, failed, wrong, joins, pageIO)

	check := func(ok bool, format string, args ...any) {
		if !ok {
			res.Failed++
			fmt.Fprintf(cfg.Log, "pbiperf: FAILED CHECK "+format+"\n", args...)
		}
	}
	// Node-side error counts are not checked: a hedge the router cancels is
	// a 499 there, and every answer a client got was checked above.
	var shed int64
	for _, n := range nodes {
		shed += n.Rejected
	}
	check(shed == 0, "nodes shed %d requests", shed)
	elems := st.corpus.elems
	switch cfg.Workload {
	case "serve_hot":
		// Isolation: the working set fits the result cache.
		check(ratio(float64(hits), float64(reads)) >= 0.99, "cache hit ratio %.4f below 0.99", ratio(float64(hits), float64(reads)))
	case "route_miss":
		// Isolation: nothing on this path may be served from a result cache.
		cached := 0
		for _, n := range nodes {
			if n.Cache != nil {
				cached++
			}
		}
		check(hits == 0 && cached == 0, "%d result-cache hits, %d nodes with a cache", hits, cached)
	case "ingest_mix":
		check(turn.err == nil, "compaction: %v", turn.err)
		fmt.Fprintf(cfg.Log, "pbiperf: %d compactions, one per %d commits\n", turn.compactions, compactAfter)
		sort.Float64s(commitLat)
		fmt.Fprintf(cfg.Log, "pbiperf: commit latency p50 %.3f ms over %d commits in the window (reported per layer as ingest.commit_p50_ms)\n",
			percentile(commitLat, 0.5), len(commitLat))
		docs := corpusDocs
		for _, c := range commits {
			docs += c.w.docs
		}
		live, err := checkReopen(cfg, st, keys, answerable, func(key int) int64 { return expected(key, 1<<62) }, len(commits), docs, check)
		if err != nil {
			return err
		}
		elems = live
	}
	bytes := float64(st.corpus.dbBytes())
	if len(sizes) > 0 {
		var sum float64
		for _, s := range sizes {
			sum += s
		}
		bytes = sum / float64(len(sizes))
	}
	res.Metrics["db_bytes_per_elem"] = ratio(bytes, float64(elems))
	return nil
}

// compactAfter is the delta-chain length at which the chain is folded.
const compactAfter = 16

// writerTurn paces ingest_mix's compaction: commits take turns, and the
// client whose commit is the compactAfter-th folds the chain before it gives
// the turn up. The store applies one commit at a time in any case; the turn
// only adds that no commit starts during a fold.
//
// The store's own daemon is not used for the timed run because it abandons
// any fold that a commit overtakes, and under back-to-back commits a fold
// (about 60 ms here) rarely fits between two of them (about 60 ms apart):
// each of its two-second ticks is a coin toss, the chain length a random
// walk, and every metric follows it. Ten seeds with the daemon on gave
// quartile spreads of 15% on ops_per_s, 16% on cpu_ms_per_op, 22% on
// allocs_per_op and 26% on db_bytes_per_elem. A metric that feels those coin
// tosses cannot also repeat, and a bound is shared by all four workloads, so
// the daemon is measured where nothing is bounded: the traced run's
// ingest.compactions, ingest.compact_aborts and ingest.chain_len_max.
type writerTurn struct {
	mu                   sync.Mutex
	commits, compactions int
	err                  error // the first failed fold
}

// commit sends c's write o when its turn comes and folds the chain if due.
func (t *writerTurn) commit(c *httpClient, o op, began time.Time, store *IngestStore) {
	queued := time.Since(began)
	t.mu.Lock()
	defer t.mu.Unlock()
	c.do(o, began)
	r := &c.recs[len(c.recs)-1]
	r.start = queued // the wait for the turn, a fold included, is commit latency
	if r.failed {
		return
	}
	if t.commits++; t.commits%compactAfter == 0 {
		if err := store.CompactNow(); err != nil && t.err == nil {
			t.err = err
		}
		t.compactions++
	}
}

// checkReopen is ingest_mix's durability check: read the epoch family's
// state, close server and store, boot both again over the same files and
// require that the reopened database is at the last acknowledged epoch or a
// later compaction of it, holds every acknowledged document, and answers
// every key with the oracle's count for the final state. It returns the
// live element count.
func checkReopen(cfg Config, st *stack, keys []Key, answerable []int,
	final func(key int) int64, commits, docs int, check func(bool, string, ...any)) (int64, error) {
	var before epochsResponse
	if err := getJSON(st.hc, st.url+"/epochs", &before); err != nil {
		return 0, fmt.Errorf("epochs: %w", err)
	}
	fmt.Fprintf(cfg.Log, "pbiperf: %d commits acknowledged since boot; %d compactions and %d aborted, chain of %d deltas, %d scoped and %d global renumbers, epoch %d, %d worker swaps\n",
		commits, before.Stats.Compactions, before.Stats.CompactAborts, before.Stats.ChainLen,
		before.Stats.RenumbersScoped, before.Stats.RenumbersGlobal, before.Current, before.WorkerSwaps)
	check(int(before.Stats.Commits) == commits, "store counts %d commits, clients were acknowledged %d", before.Stats.Commits, commits)
	wantElems := int(st.corpus.elems) + (docs-corpusDocs)*writeDocElems
	check(before.Stats.Documents == docs && before.Stats.Elements == wantElems,
		"store holds %d documents / %d elements, acknowledged writes leave %d / %d",
		before.Stats.Documents, before.Stats.Elements, docs, wantElems)

	setPhase(cfg, "reopen")
	if err := st.close(); err != nil {
		return 0, fmt.Errorf("close before reopen: %w", err)
	}
	st.nodes = nil
	store, err := OpenIngest(st.corpus.db, false)
	if err != nil {
		return 0, fmt.Errorf("reopen store: %w", err)
	}
	st.store = store
	srv, err := st.node(st.corpus.db, 0, store)
	if err != nil {
		return 0, fmt.Errorf("reopen node: %w", err)
	}
	var after epochsResponse
	if err := getJSON(st.hc, srv.url+"/epochs", &after); err != nil {
		return 0, fmt.Errorf("epochs after reopen: %w", err)
	}
	check(after.Current == before.Current, "reopened at epoch %d, closed at %d", after.Current, before.Current)
	check(after.Stats.Documents == before.Stats.Documents && after.Stats.Elements == before.Stats.Elements,
		"reopened with %d documents / %d elements, closed with %d / %d",
		after.Stats.Documents, after.Stats.Elements, before.Stats.Documents, before.Stats.Elements)
	c := &httpClient{hc: st.hc, base: srv.url, keys: keys}
	for _, k := range answerable {
		c.do(op{key: k}, time.Now())
		r := c.recs[len(c.recs)-1]
		check(!r.failed && r.count == final(k), "after reopen %s answers %d (failed=%v), oracle %d", keys[k].ID, r.count, r.failed, final(k))
	}
	return int64(after.Stats.Elements), nil
}
