package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run. The harness cannot see inside the program, so it records
// a span at every boundary it can call from outside and gets a layer's self
// time by subtraction: the same op is re-issued one rung lower each time,
//
//	client.http ⊃ router.handler ⊃ node.http ⊃ qserv.handler ⊃ shard.join ⊃ containment.join
//
// and a layer's self time is its span minus the span one rung down. Every
// traced run builds the whole ladder (cached node, cache-less node, the 2x2
// routed fleet, both engines, an ingest rig on the small corpus), so every
// per-layer metric is measured on every workload; the workload decides the
// corpus and the op sequence that is replayed. Kernel-level metrics are
// single spans around one call on pinned inputs from the same corpus.

// span is one timed call at a layer boundary.
type span struct {
	Op      int            `json:"op"` // replay op the span belongs to; -1 outside the replay
	Name    string         `json:"name"`
	Parent  string         `json:"parent,omitempty"` // the rung above, same op
	StartNS int64          `json:"start_ns"`
	DurNS   int64          `json:"dur_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	began time.Time
	off   bool
	spans []span
}

// time runs fn and records it as a span; attrs may be filled by fn.
func (t *tracer) time(op int, name, parent string, attrs map[string]any, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if !t.off {
		t.spans = append(t.spans, span{
			Op: op, Name: name, Parent: parent,
			StartNS: t0.Sub(t.began).Nanoseconds(), DurNS: d.Nanoseconds(), Attrs: attrs,
		})
	}
	return d, err
}

// recorder is the ResponseWriter of an in-process handler call.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// call invokes h in-process with a GET for target.
func call(h http.Handler, target string) (*recorder, error) {
	req, err := http.NewRequest(http.MethodGet, "http://in-process"+target, nil)
	if err != nil {
		return nil, err
	}
	rec := &recorder{hdr: http.Header{}, status: http.StatusOK}
	h.ServeHTTP(rec, req)
	if rec.status != http.StatusOK {
		return rec, fmt.Errorf("%s: status %d", target, rec.status)
	}
	return rec, nil
}

// fetch GETs url and returns the body and the X-Cache header.
func fetch(hc *http.Client, url string) (body []byte, cache string, err error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, resp.Header.Get("X-Cache"), err
}

// sink keeps kernel results alive so the compiler cannot drop the calls.
var sink uint64

// minOf returns the shortest of n timings of fn.
func minOf(n int, fn func() error) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ladderBudget bounds the replay: the first 300 ops of the sequence, or as
// many as fit, since every op is executed about ten times over.
const (
	ladderOps    = 300
	ladderBudget = 7 * time.Second
)

// traced is the state of one traced run.
type traced struct {
	cfg    Config
	tr     *tracer
	res    *Result
	keys   []Key
	want   []int64
	st     *stack // cached node, cache-less node, routed fleet, over the workload's corpus
	hot    *server
	miss   *server
	shard0 *server
	shard1 *server
	single *Engine
	shards *ShardEngine
}

// check counts one verified answer.
func (t *traced) check(ok bool, format string, args ...any) {
	t.res.Attempted++
	if !ok {
		t.res.Failed++
		fmt.Fprintf(t.cfg.Log, "pbiperf: FAILED CHECK "+format+"\n", args...)
	}
}

func (t *traced) set(name string, v float64) { t.res.Metrics[name] = v }

// runTraced is the traced run: per-layer metrics and the span file.
func runTraced(cfg Config) (*Result, error) {
	t := &traced{
		cfg: cfg, keys: Keys(),
		tr:  &tracer{began: time.Now()},
		res: &Result{Metrics: map[string]float64{}},
	}
	// process.heap_peak_mb: HeapInuse sampled at 10 Hz for the whole run.
	var (
		peak     uint64
		stopHeap = make(chan struct{})
		heapDone sync.WaitGroup
	)
	heapDone.Add(1)
	go func() {
		defer heapDone.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			if m.HeapInuse > peak {
				peak = m.HeapInuse
			}
			select {
			case <-stopHeap:
				return
			case <-tick.C:
			}
		}
	}()
	before := readUsage()

	err := t.run()
	if t.st != nil {
		if cerr := t.closeAll(); cerr != nil && err == nil {
			err = cerr
		}
	}
	close(stopHeap)
	heapDone.Wait()
	if err != nil {
		return nil, err
	}
	t.set("process.heap_peak_mb", float64(peak)/(1<<20))
	t.set("process.gc_pause_ms", ms(readUsage().gcPause-before.gcPause))
	if cfg.SpanFile != "" {
		if err := t.writeSpans(); err != nil {
			return nil, err
		}
	}
	t.res.Correct = t.res.Failed == 0
	return t.res, nil
}

func (t *traced) closeAll() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if t.single != nil {
		keep(t.single.Close())
	}
	if t.shards != nil {
		keep(t.shards.Close())
	}
	keep(t.st.close())
	return first
}

func (t *traced) run() error {
	cfg := t.cfg
	setPhase(cfg, "set-up of the whole ladder")
	scale := fullScale
	if cfg.Workload == "ingest_mix" {
		scale = smallScale
	}
	var c *corpus
	if _, err := t.tr.time(-1, "setup.corpus", "", nil, func() (err error) {
		c, err = buildCorpus(filepath.Join(cfg.Dir, "ladder"), scale*cfg.Scale, cfg.Seed)
		return err
	}); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	t.st = &stack{corpus: c, hc: newClient(Clients())}
	t.want = Oracle(c.coll.Roots(), t.keys)
	t.set("containment.load_ns_per_elem", ratio(float64(c.load.Nanoseconds()), float64(c.elems)))
	var err error
	if t.hot, err = t.st.node(c.db, 0, nil); err != nil {
		return fmt.Errorf("cached node: %w", err)
	}
	if t.miss, err = t.st.node(c.db, -1, nil); err != nil {
		return fmt.Errorf("cache-less node: %w", err)
	}
	first := len(t.st.servers)
	if err := t.st.routed(); err != nil {
		return fmt.Errorf("routed fleet: %w", err)
	}
	// routed put the router in front; the fleet's nodes follow the two above.
	t.shard0, t.shard1 = t.st.servers[1+first], t.st.servers[1+first+2]
	if t.single, err = OpenEngine(c.db); err != nil {
		return err
	}
	if t.shards, err = OpenShards(t.st.manifest); err != nil {
		return err
	}

	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{"kernels", t.kernels},
		{"cold pass (core)", t.coldPasses},
		{"ladder replay", t.replay},
		{"ingest rig", t.ingestRig},
	} {
		setPhase(cfg, "%s", step.name)
		if err := step.fn(); err != nil {
			return fmt.Errorf("%s: %w", step.name, err)
		}
	}
	return nil
}

// kernels times single calls on pinned inputs: the pbicode kernels over the
// author column, tree encoding, engine open, relation scans, the external
// sort and the B+-tree.
func (t *traced) kernels() error {
	c := t.st.corpus
	authors := c.coll.Codes("author")
	src := make([]uint64, len(authors))
	for i, code := range authors {
		src[i] = uint64(code)
	}
	dst, ends := make([]uint64, len(src)), make([]uint64, len(src))
	n := float64(len(src))
	kernel := func(metric string, per float64, fn func() error) error {
		d, err := minOf(5, fn)
		if err != nil {
			return err
		}
		t.tr.spans = append(t.tr.spans, span{Op: -1, Name: metric, StartNS: time.Since(t.tr.began).Nanoseconds(), DurNS: d.Nanoseconds()})
		t.set(metric, ratio(float64(d.Nanoseconds()), per))
		return nil
	}
	if err := kernel("pbicode.fbatch_ns_per_code", n, func() error {
		FBatch(dst, src, 12)
		sink += dst[len(dst)/2]
		return nil
	}); err != nil {
		return err
	}
	if err := kernel("pbicode.regionbatch_ns_per_code", n, func() error {
		RegionBatch(dst, ends, src)
		sink += dst[len(dst)/2] + ends[len(ends)/2]
		return nil
	}); err != nil {
		return err
	}
	articles := c.coll.Codes("article")
	if err := kernel("pbicode.isancestor_ns", n, func() error {
		hits := uint64(0)
		for i, d := range authors {
			if IsAncestor(articles[i%len(articles)], d) {
				hits++
			}
		}
		sink += hits
		return nil
	}); err != nil {
		return err
	}

	doc, err := GenerateDBLPTree(0.2*fullScale*t.cfg.Scale, t.cfg.Seed)
	if err != nil {
		return err
	}
	_, docElems := TagCounts([]*Element{doc})
	if err := kernel("xmltree.encode_ns_per_elem", float64(docElems), func() error { return EncodeTree(doc) }); err != nil {
		return err
	}

	d, err := minOf(5, func() error {
		e, err := OpenEngine(c.db)
		if err != nil {
			return err
		}
		return e.Close()
	})
	if err != nil {
		return err
	}
	t.set("containment.open_ms", ms(d))

	// relation: a cold scan of the author column, and warm scans of the
	// largest relation that fits half the pool.
	eng := t.single
	elems, pages := eng.Size("author")
	t.set("relation.recs_per_page", ratio(float64(elems), float64(pages)))
	if err := eng.DropCache(); err != nil {
		return err
	}
	if d, err = t.tr.time(-1, "relation.scan_cold", "", nil, func() error { _, err := eng.Scan("author"); return err }); err != nil {
		return err
	}
	t.set("relation.scan_cold_ns_per_rec", ratio(float64(d.Nanoseconds()), float64(elems)))
	warm, warmElems := "", int64(0)
	for _, tag := range eng.Tags() {
		if e, p := eng.Size(tag); p <= bufferPages/2 && e > warmElems {
			warm, warmElems = tag, e
		}
	}
	if _, err := eng.Scan(warm); err != nil {
		return err
	}
	if err := kernel("relation.scan_warm_ns_per_rec", float64(warmElems), func() error { _, err := eng.Scan(warm); return err }); err != nil {
		return err
	}

	// extsort and btree work on private copies in a scratch engine.
	if err := os.MkdirAll(filepath.Join(t.cfg.Dir, "scratch"), 0o755); err != nil {
		return err
	}
	scratch, err := NewScratchEngine(filepath.Join(t.cfg.Dir, "scratch", "kernels.db"), c.coll.Height())
	if err != nil {
		return err
	}
	defer scratch.Close()
	shuffled := append([]Code(nil), authors...)
	rand.New(rand.NewSource(t.cfg.Seed)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	// In a fixed order, so that the pages land in the same place every run.
	for _, rel := range []struct {
		tag   string
		codes []Code
	}{{"shuffled", shuffled}, {"indexed", authors}, {"article", articles}} {
		if err := scratch.Load(rel.tag, rel.codes); err != nil {
			return err
		}
	}
	var sortIO int64
	if d, err = t.tr.time(-1, "extsort.sort", "", nil, func() (err error) { sortIO, err = scratch.Sort("shuffled"); return err }); err != nil {
		return err
	}
	t.set("extsort.sort_ns_per_rec", ratio(float64(d.Nanoseconds()), n))
	t.set("extsort.page_io_per_krec", ratio(float64(sortIO), n/1000))
	if d, err = t.tr.time(-1, "btree.build", "", nil, func() error { return scratch.BuildStartIndex("indexed") }); err != nil {
		return err
	}
	t.set("btree.build_ns_per_key", ratio(float64(d.Nanoseconds()), n))
	// INLJN over the pre-indexed descendant set: wall time per index probe,
	// an upper bound on one B+-tree seek since it includes the scan around it.
	var probe JoinResult
	if d, err = t.tr.time(-1, "btree.probe_join", "", nil, func() (err error) {
		probe, err = scratch.Join("article", "indexed", "inljn")
		return err
	}); err != nil {
		return err
	}
	t.set("btree.probe_us", ratio(us(d), float64(probe.IndexProbes)))
	return nil
}

// engineSample is one join at the containment rung.
type engineSample struct {
	d time.Duration
	r JoinResult
}

// engineMetrics derives the containment, buffer and storage metrics from
// joins at the containment rung.
func (t *traced) engineMetrics(samples []engineSample) {
	var (
		sum       JoinResult
		wall      time.Duration
		logRatio  float64
		predicted int
	)
	for _, s := range samples {
		wall += s.d
		sum.Reads += s.r.Reads
		sum.Writes += s.r.Writes
		sum.SeqReads += s.r.SeqReads
		sum.SeqWrites += s.r.SeqWrites
		sum.PoolHits += s.r.PoolHits
		sum.PoolMisses += s.r.PoolMisses
		sum.PoolEvictions += s.r.PoolEvictions
		sum.Virtual += s.r.Virtual
		if s.r.PredictedIO > 0 && s.r.PageIO() > 0 {
			logRatio += math.Log(float64(s.r.PageIO()) / float64(s.r.PredictedIO))
			predicted++
		}
	}
	n := int64(len(samples))
	t.set("containment.join_ms_per_op", perOp(ms(wall), n))
	t.set("containment.predicted_io_ratio", math.Exp(ratio(logRatio, float64(predicted))))
	t.set("buffer.hit_ratio", ratio(float64(sum.PoolHits), float64(sum.PoolHits+sum.PoolMisses)))
	t.set("buffer.evictions_per_op", perOp(float64(sum.PoolEvictions), n))
	t.set("storage.reads_per_op", perOp(float64(sum.Reads), n))
	t.set("storage.writes_per_op", perOp(float64(sum.Writes), n))
	t.set("storage.seq_io_ratio", ratio(float64(sum.SeqReads+sum.SeqWrites), float64(sum.PageIO())))
	t.set("storage.virtual_ms_per_op", perOp(ms(sum.Virtual), n))
}

// coldPasses runs join_cold's pass three times on the single engine, cache
// dropped before every op: the busy time of each pinned algorithm (best of
// three) and the core counters of the whole pass. On join_cold this is the
// workload's own replay, so the engine metrics come from here too.
func (t *traced) coldPasses() error {
	ops := t.st.corpus.coldOps()
	best := map[string]time.Duration{}
	var samples []engineSample
	var falseHits, pairs, replicated, records, partitions, probes int64
	for pass := 0; pass < 3; pass++ {
		for _, k := range ops {
			if err := t.single.DropCache(); err != nil {
				return err
			}
			var r JoinResult
			d, err := t.tr.time(-1, "core."+k.ID, "", map[string]any{"pass": pass}, func() (err error) {
				r, err = t.single.Join(k.Tags[0], k.Tags[1], k.Algo)
				return err
			})
			if err != nil {
				return err
			}
			if err := t.single.ReleaseTemp(); err != nil {
				return err
			}
			samples = append(samples, engineSample{d, r})
			if k.Algo != "" && (best[k.Algo] == 0 || d < best[k.Algo]) {
				best[k.Algo] = d
			}
			if pass > 0 {
				continue
			}
			t.check(r.Count == t.wantFor(k), "cold %s: count %d, oracle %d", k.ID, r.Count, t.wantFor(k))
			a, _ := t.single.Size(k.Tags[0])
			d2, _ := t.single.Size(k.Tags[1])
			falseHits, pairs = falseHits+r.FalseHits, pairs+r.Count
			replicated, records = replicated+r.Replicated, records+a+d2
			partitions, probes = partitions+r.Partitions, probes+r.IndexProbes
		}
	}
	for _, p := range pinned {
		t.set("core."+p.algo+"_ms_per_op", ms(best[p.algo]))
	}
	t.set("core.false_hits_per_kpair", ratio(float64(falseHits), float64(pairs)/1000))
	t.set("core.replicated_per_krec", ratio(float64(replicated), float64(records)/1000))
	t.set("core.partitions_per_op", perOp(float64(partitions), int64(len(ops))))
	t.set("core.index_probes_per_op", perOp(float64(probes), int64(len(ops))))
	if t.cfg.Workload == "join_cold" {
		t.engineMetrics(samples)
	}
	return nil
}

func (t *traced) wantFor(k Key) int64 { return wantFor(t.keys, t.want, k) }

// replayOps returns the workload's first n reads: client 0's stream, writes
// skipped (the ingest rig replays those).
func (t *traced) replayOps(n int) []Key {
	if t.cfg.Workload == "join_cold" {
		cold := t.st.corpus.coldOps()
		ops := make([]Key, n)
		for i := range ops {
			ops[i] = cold[i%len(cold)]
		}
		return ops
	}
	s := newStream(t.cfg.Workload, t.cfg.Seed, 0, t.keys, t.st.corpus.answerable(t.keys))
	var ops []Key
	for len(ops) < n {
		if o := s.next(); o.write == nil {
			ops = append(ops, t.keys[o.key])
		}
	}
	return ops
}

// replay walks the workload's ops down the ladder.
func (t *traced) replay() error {
	var (
		ops                                       = t.replayOps(ladderOps)
		hc                                        = t.st.hc
		began                                     = time.Now()
		samples                                   []engineSample
		routerSelf, missSelf, hitHandler, hitHTTP time.Duration
		shardWall, singleWall, analyzeWall        time.Duration
		respBytes, hits, joins, done              int64
	)
	count := func(body []byte) int64 {
		var cr countResponse
		if json.Unmarshal(body, &cr) != nil {
			return -1
		}
		return cr.Count
	}
	for i, k := range ops {
		if time.Since(began) > ladderBudget {
			break
		}
		done++
		want, target := t.wantFor(k), k.URL()

		// The miss path, top rung first.
		var body []byte
		attrs := map[string]any{"key": k.ID}
		dRouter, err := t.tr.time(i, "client.http", "", attrs, func() (err error) {
			var cache string
			body, cache, err = fetch(hc, t.st.router+target)
			attrs["x_cache"] = cache
			return err
		})
		if err != nil {
			return err
		}
		t.check(count(body) == want, "router %s: count %d, oracle %d", k.ID, count(body), want)
		if _, err := t.tr.time(i, "router.handler", "client.http", nil, func() error {
			_, err := call(t.st.servers[0].h, target)
			return err
		}); err != nil {
			return err
		}
		var slowest time.Duration
		for shard, node := range []*server{t.shard0, t.shard1} {
			d, err := t.tr.time(i, "node.http", "router.handler", map[string]any{"shard": shard}, func() error {
				_, _, err := fetch(hc, node.url+target)
				return err
			})
			if err != nil {
				return err
			}
			slowest = max(slowest, d)
		}
		routerSelf += dRouter - slowest
		var rec *recorder
		dMiss, err := t.tr.time(i, "qserv.handler", "node.http", nil, func() (err error) {
			rec, err = call(t.miss.h, target)
			return err
		})
		if err != nil {
			return err
		}
		respBytes += int64(rec.body.Len())
		t.check(count(rec.body.Bytes()) == want, "node %s: count %d, oracle %d", k.ID, count(rec.body.Bytes()), want)
		if k.IsJoin() {
			// The engine rungs exist for joins; a path query's steps run
			// inside the node and have no engine call of their own here.
			joins++
			var rs, r1 JoinResult
			d, err := t.tr.time(i, "shard.join", "qserv.handler", nil, func() (err error) {
				rs, err = t.shards.Join(k.Tags[0], k.Tags[1], k.Algo)
				return err
			})
			if err != nil {
				return err
			}
			shardWall += d
			t.check(rs.Count == want, "shard engine %s: count %d, oracle %d", k.ID, rs.Count, want)
			d, err = t.tr.time(i, "containment.join", "shard.join", nil, func() (err error) {
				r1, err = t.single.Join(k.Tags[0], k.Tags[1], k.Algo)
				return err
			})
			if err != nil {
				return err
			}
			if err := t.single.ReleaseTemp(); err != nil {
				return err
			}
			singleWall += d
			missSelf += dMiss - d
			samples = append(samples, engineSample{d, r1})
			t.check(r1.Count == want, "engine %s: count %d, oracle %d", k.ID, r1.Count, want)
			d, err = t.tr.time(i, "containment.analyze", "shard.join", nil, func() error {
				_, err := t.single.Analyze(k.Tags[0], k.Tags[1], k.Algo)
				return err
			})
			if err != nil {
				return err
			}
			if err := t.single.ReleaseTemp(); err != nil {
				return err
			}
			analyzeWall += d
		}

		// The cached node sees the same sequence, for its hit ratio.
		hattrs := map[string]any{"key": k.ID}
		if _, err := t.tr.time(i, "client.http.cached", "", hattrs, func() (err error) {
			var cache string
			_, cache, err = fetch(hc, t.hot.url+target)
			hattrs["x_cache"] = cache
			return err
		}); err != nil {
			return err
		}
		if hattrs["x_cache"] == "hit" {
			hits++
		}
	}
	fmt.Fprintf(t.cfg.Log, "pbiperf: replayed %d of %d ops down the ladder (%d joins) in %.1fs\n",
		done, len(ops), joins, time.Since(began).Seconds())

	if t.cfg.Workload != "join_cold" {
		t.engineMetrics(samples)
	}
	t.set("containment.analyze_overhead_ratio", ratio(float64(analyzeWall), float64(singleWall)))
	t.set("shard.join_ms_per_op", perOp(ms(shardWall), joins))
	t.set("shard.speedup_vs_single", ratio(float64(singleWall), float64(shardWall)))
	t.set("qserv.handler_miss_self_us", perOp(us(missSelf), joins))
	t.set("qserv.response_bytes_per_op", perOp(float64(respBytes), done))
	t.set("qserv.cache_hit_ratio", perOp(float64(hits), done))
	t.set("router.self_ms_per_op", perOp(ms(routerSelf), done))

	// The hit path, timed back to back the way serve_hot drives it (a
	// connection left idle between the ladder's ops costs a wake-up that a
	// loaded server never pays): every replayed key again over the socket
	// and then past it, all hits now, one goroutine.
	const burst = 1500
	var m0, m1 runtime.MemStats
	for i := 0; i < burst; i++ {
		target := ops[i%int(done)].URL()
		d, err := t.tr.time(i, "client.http.hit", "", nil, func() error {
			_, _, err := fetch(hc, t.hot.url+target)
			return err
		})
		if err != nil {
			return err
		}
		hitHTTP += d
	}
	runtime.ReadMemStats(&m0)
	for i := 0; i < burst; i++ {
		target := ops[i%int(done)].URL()
		d, err := t.tr.time(i, "qserv.handler.hit", "client.http.hit", nil, func() error {
			_, err := call(t.hot.h, target)
			return err
		})
		if err != nil {
			return err
		}
		hitHandler += d
	}
	runtime.ReadMemStats(&m1)
	t.set("qserv.handler_hit_us", us(hitHandler)/burst)
	t.set("qserv.handler_allocs_hit", float64(m1.Mallocs-m0.Mallocs)/burst)
	t.set("http.loopback_self_us", us(hitHTTP-hitHandler)/burst)

	// Tracing overhead: the top rung again with span recording on and off.
	m := int(min(done, 60))
	var on, off time.Duration
	for pass := 0; pass < 2; pass++ {
		t.tr.off = pass == 1
		t0 := time.Now()
		for i, k := range ops[:m] {
			if _, err := t.tr.time(i, "client.http.overhead", "", nil, func() error {
				_, _, err := fetch(hc, t.st.router+k.URL())
				return err
			}); err != nil {
				return err
			}
		}
		if pass == 0 {
			on = time.Since(t0)
		} else {
			off = time.Since(t0)
		}
	}
	t.tr.off = false
	t.set("trace.overhead_ratio", ratio(float64(off), float64(on)))

	// Counters read at the same boundaries.
	var rs routerStats
	if err := getJSON(hc, t.st.router+"/stats", &rs); err != nil {
		return err
	}
	var nodeRequests int64
	for _, n := range rs.Nodes {
		nodeRequests += n.Requests
	}
	t.set("router.node_requests_per_op", perOp(float64(nodeRequests), rs.Requests))
	t.set("router.hedges_per_op", perOp(float64(rs.HedgeFires), rs.Requests))
	t.set("router.hedge_win_ratio", ratio(float64(rs.HedgeWins), float64(rs.HedgeFires)))
	t.set("router.failovers_per_op", perOp(float64(rs.Failovers), rs.Requests))
	_, _, nodes, err := t.st.joinStats()
	if err != nil {
		return err
	}
	var requests, shed int64
	for _, n := range nodes {
		requests, shed = requests+n.Requests, shed+n.Rejected
	}
	t.set("qserv.shed_ratio", ratio(float64(shed), float64(requests)))
	return nil
}

// d7 is the key the ingest rig reads back: article ◁ author is D7, and every
// generated document adds to it.
const d7 = 6

// ingestRig measures the write path on its own small corpus: commits over
// HTTP with reads after them, alternating with the same kind of batch
// applied to the store directly, then one forced compaction; and after that
// the store's own compaction daemon under the workload's traffic.
func (t *traced) ingestRig() error {
	const batches = 24
	dir := filepath.Join(t.cfg.Dir, "ingest")
	c, err := buildCorpus(dir, smallScale*t.cfg.Scale, t.cfg.Seed)
	if err != nil {
		return err
	}
	want := Oracle(c.coll.Roots(), t.keys)
	var store *IngestStore
	d, err := t.tr.time(-1, "ingest.open", "", nil, func() (err error) {
		store, err = OpenIngest(c.db, false)
		return err
	})
	if err != nil {
		return err
	}
	t.set("ingest.open_ms", ms(d))
	rig := &stack{corpus: c, hc: t.st.hc, store: store}
	defer rig.close() //nolint:errcheck // error paths; the success path checks close below
	srv, err := rig.node(c.db, 0, store)
	if err != nil {
		return err
	}

	s := newStream("ingest_mix", t.cfg.Seed, 0, t.keys, c.answerable(t.keys))
	client := &httpClient{hc: rig.hc, base: srv.url, keys: t.keys}
	expect := want[d7]
	var (
		commitMS, applyMS, written []float64
		scoped, global, applied    uint64 // over the direct applies, whose results the harness keeps
	)
	// HTTP commits and direct applies alternate, so that both see the same
	// mix of chain lengths and database sizes and their difference is the
	// HTTP path's own time.
	for i := 0; i < 2*batches; i++ {
		w := s.nextWrite()
		expect += w.delta[d7]
		if i%2 == 1 {
			size := c.dbBytes()
			var res CommitResult
			d, err := t.tr.time(i, "ingest.apply", "", nil, func() (err error) {
				res, err = store.Apply(w.ops)
				return err
			})
			if err != nil {
				return err
			}
			applyMS = append(applyMS, ms(d))
			written = append(written, float64(c.dbBytes()-size))
			scoped, global = scoped+res.RenumbersScoped, global+res.RenumbersGlobal
			applied += uint64(len(w.ops))
			continue
		}
		d, _ := t.tr.time(i, "ingest.commit.http", "", nil, func() error {
			client.do(op{write: w}, t.tr.began)
			return nil
		})
		r := client.recs[len(client.recs)-1]
		t.check(!r.failed, "commit %d over HTTP failed", i)
		commitMS = append(commitMS, ms(d))
		// Reads after the commit swap the stale workers and must see it.
		for j := 0; j < 3; j++ {
			client.do(op{key: d7}, t.tr.began)
			r := client.recs[len(client.recs)-1]
			t.check(!r.failed && r.count == expect, "read after commit %d: count %d (failed=%v), oracle %d", i, r.count, r.failed, expect)
		}
	}
	// Reads that swap the workers in follow the last direct apply too, so
	// that the swaps counted belong to all 2*batches commits.
	client.do(op{key: d7}, t.tr.began)
	r := client.recs[len(client.recs)-1]
	t.check(!r.failed && r.count == expect, "read after the last apply: count %d (failed=%v), oracle %d", r.count, r.failed, expect)
	var epochs epochsResponse
	if err := getJSON(rig.hc, srv.url+"/epochs", &epochs); err != nil {
		return err
	}
	t.set("qserv.worker_swaps_per_commit", ratio(float64(epochs.WorkerSwaps), 2*batches))
	sort.Float64s(commitMS)
	t.set("ingest.commit_p50_ms", percentile(commitMS, 0.50))
	t.set("ingest.commit_p95_ms", percentile(commitMS, 0.95))
	t.set("ingest.apply_ms_per_batch", median(applyMS))
	t.set("ingest.http_self_ms", percentile(commitMS, 0.50)-median(applyMS))
	t.set("ingest.bytes_written_per_batch", median(written))
	t.set("ingest.renumber_scoped_per_kop", ratio(float64(scoped), float64(applied)/1000))
	t.set("ingest.renumber_global_per_kop", ratio(float64(global), float64(applied)/1000))

	d, err = t.tr.time(-1, "ingest.compact", "", nil, store.CompactNow)
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	t.set("ingest.compact_ms", ms(d))
	client.do(op{key: d7}, t.tr.began)
	r = client.recs[len(client.recs)-1]
	t.check(!r.failed && r.count == expect, "read after compaction: count %d (failed=%v), oracle %d", r.count, r.failed, expect)
	if err := rig.close(); err != nil {
		return err
	}
	return t.daemon(c, expect)
}

// daemonSeconds is how long the daemon phase loads the store: four of the
// daemon's two-second ticks, or the run's window if that is shorter.
const daemonSeconds = 8.5

// daemon reopens the rig's database with the store's own compaction daemon
// on and loads it the way ingest_mix does, closed loop from Clients()
// clients, with nothing holding commits off. The timed run cannot afford
// this (see writerTurn): the daemon drops every fold that a commit overtakes.
// How many folds it completed, how many it dropped and how long the chain
// grew are reported here, without a bound, so that a change to that policy
// shows.
func (t *traced) daemon(c *corpus, expect int64) error {
	store, err := OpenIngest(c.db, true)
	if err != nil {
		return err
	}
	rig := &stack{corpus: c, hc: t.st.hc, store: store}
	defer rig.close() //nolint:errcheck // error paths; the success path checks close below
	srv, err := rig.node(c.db, 0, store)
	if err != nil {
		return err
	}
	var (
		clients = make([]*httpClient, Clients())
		stop    atomic.Bool
		wg      sync.WaitGroup
		began   = time.Now()
	)
	for i := range clients {
		clients[i] = &httpClient{
			hc: rig.hc, base: srv.url, keys: t.keys,
			// Client numbers the first part of the rig did not use: document
			// names are per client.
			stream: newStream("ingest_mix", t.cfg.Seed, 1+i, t.keys, c.answerable(t.keys)),
		}
		wg.Add(1)
		go func(c *httpClient) {
			defer wg.Done()
			for !stop.Load() {
				c.do(c.stream.next(), began)
			}
		}(clients[i])
	}
	var epochs epochsResponse
	chainMax := 0
	for time.Since(began).Seconds() < math.Min(daemonSeconds, t.cfg.Seconds) {
		time.Sleep(100 * time.Millisecond)
		if err := getJSON(rig.hc, srv.url+"/epochs", &epochs); err != nil {
			break // reported by the read after the loop
		}
		chainMax = max(chainMax, epochs.Stats.ChainLen)
	}
	stop.Store(true)
	wg.Wait()
	if err := getJSON(rig.hc, srv.url+"/epochs", &epochs); err != nil {
		return err
	}
	t.set("ingest.compactions", float64(epochs.Stats.Compactions))
	t.set("ingest.compact_aborts", float64(epochs.Stats.CompactAborts))
	t.set("ingest.chain_len_max", float64(chainMax))

	for _, cl := range clients {
		for _, r := range cl.recs {
			t.check(!r.failed, "daemon phase: an op failed")
			if r.write != nil && !r.failed {
				expect += r.write.delta[d7]
			}
		}
	}
	reader := &httpClient{hc: rig.hc, base: srv.url, keys: t.keys}
	reader.do(op{key: d7}, began)
	r := reader.recs[0]
	t.check(!r.failed && r.count == expect, "read after the daemon phase: count %d (failed=%v), oracle %d", r.count, r.failed, expect)
	return rig.close()
}

// writeSpans writes the run's spans and metrics as one JSON file.
func (t *traced) writeSpans() error {
	out, err := json.Marshal(map[string]any{
		"workload": t.cfg.Workload,
		"header":   Header(t.cfg),
		"metrics":  t.res.Metrics,
		"spans":    t.tr.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(t.cfg.SpanFile, out, 0o644)
}
