package bench

import (
	"fmt"
	"regexp"
	"strings"
)

// Workload names one traffic mix and records why it exists.
type Workload struct {
	Name string
	Why  string
}

// Workloads are the four mixes; later issues refer to them by name.
var Workloads = []Workload{
	{"join_cold", "the paper's setting: data 24x the 256-page pool, cache dropped before every join, so core/relation/buffer/storage/extsort/btree do all the work and qserv/router/ingest none"},
	{"serve_hot", "40 zipf keys fit one node's result cache, so handler, cache, JSON and HTTP do the work and the join core almost none: a core change must show no change here"},
	{"route_miss", "uniform keys through a cache-less router over 2 shards x 2 replicas of cache-less nodes: every request fans out, executes on private warm pools and merges"},
	{"ingest_mix", "10% insert/replace commits beside zipf reads on a pool-sized corpus: epoch publication invalidates the cache, swaps workers and triggers compaction"},
}

// Metric is one reported number. End-to-end metrics carry a Bound, the share
// of the parent's median by which they may worsen; per-layer metrics carry
// the Layer that produces them and Moves, the end-to-end metric and workload
// the number is predicted to move (the interaction map, written down before
// anything was measured).
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Layer  string
	Moves  string
	Def    string
}

// EndToEnd are the metrics a caller of the system sees, measured with the
// harness's tracing off. Every workload reports every one of them.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Def: "corpus generation + build + split + boot until /readyz is 200, once per run"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Def: "correct ops completed inside the measured window / its length (reads and writes)"},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Def: "median read latency over the window's reads (join_cold: over the 30 ops, each by its median Engine.Join time)"},
	{Name: "lat_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Def: "p99 read latency, nearest rank, same samples; the sample count is logged beside it"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25, Def: "process user+sys CPU (getrusage) over the measured window / ops"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.08, Def: "delta runtime.MemStats.Mallocs over the measured window / ops, whole process"},
	{Name: "page_io_per_join", Unit: "pages", Better: "lower", Bound: 0.10, Def: "modeled page reads+writes per join the engines executed, from boot to end of run: Result.IO on join_cold, /stats algorithms[*] summed over nodes elsewhere; never added to wall time"},
	{Name: "db_bytes_per_elem", Unit: "B", Better: "lower", Bound: 0.10, Def: "bytes of every file the database owns / live stored elements (ingest_mix: mean over the measured window)"},
}

// PerLayer are the numbers of single layers, from the traced run.
var PerLayer = []Metric{
	{Name: "pbicode.fbatch_ns_per_code", Unit: "ns", Better: "lower", Layer: "pbicode", Moves: "cpu_ms_per_op@join_cold"},
	{Name: "pbicode.regionbatch_ns_per_code", Unit: "ns", Better: "lower", Layer: "pbicode", Moves: "cpu_ms_per_op@join_cold"},
	{Name: "pbicode.isancestor_ns", Unit: "ns", Better: "lower", Layer: "pbicode", Moves: "cpu_ms_per_op@join_cold"},
	{Name: "xmltree.encode_ns_per_elem", Unit: "ns", Better: "lower", Layer: "xmltree", Moves: "setup_s@all"},
	{Name: "containment.load_ns_per_elem", Unit: "ns", Better: "lower", Layer: "containment", Moves: "setup_s@all"},
	{Name: "containment.open_ms", Unit: "ms", Better: "lower", Layer: "containment", Moves: "lat_p99_ms@ingest_mix"},
	{Name: "containment.join_ms_per_op", Unit: "ms", Better: "lower", Layer: "containment", Moves: "ops_per_s@join_cold"},
	{Name: "containment.predicted_io_ratio", Unit: "ratio", Better: "lower", Layer: "containment", Moves: "none@join_cold"},
	{Name: "containment.analyze_overhead_ratio", Unit: "ratio", Better: "lower", Layer: "containment", Moves: "none@join_cold"},
	{Name: "core.rollup_ms_per_op", Unit: "ms", Better: "lower", Layer: "core", Moves: "lat_p50_ms@join_cold"},
	{Name: "core.mhcj_ms_per_op", Unit: "ms", Better: "lower", Layer: "core", Moves: "lat_p50_ms@join_cold"},
	{Name: "core.shcj_ms_per_op", Unit: "ms", Better: "lower", Layer: "core", Moves: "lat_p50_ms@join_cold"},
	{Name: "core.vpj_ms_per_op", Unit: "ms", Better: "lower", Layer: "core", Moves: "ops_per_s@route_miss"},
	{Name: "core.stacktree_ms_per_op", Unit: "ms", Better: "lower", Layer: "core", Moves: "lat_p99_ms@join_cold"},
	{Name: "core.stackanc_ms_per_op", Unit: "ms", Better: "lower", Layer: "core", Moves: "lat_p99_ms@join_cold"},
	{Name: "core.mpmgjn_ms_per_op", Unit: "ms", Better: "lower", Layer: "core", Moves: "lat_p99_ms@join_cold"},
	{Name: "core.inljn_ms_per_op", Unit: "ms", Better: "lower", Layer: "core", Moves: "lat_p99_ms@join_cold"},
	{Name: "core.adb_ms_per_op", Unit: "ms", Better: "lower", Layer: "core", Moves: "lat_p99_ms@join_cold"},
	{Name: "core.nlj_ms_per_op", Unit: "ms", Better: "lower", Layer: "core", Moves: "lat_p99_ms@join_cold"},
	{Name: "core.false_hits_per_kpair", Unit: "count", Better: "lower", Layer: "core", Moves: "page_io_per_join@join_cold"},
	{Name: "core.replicated_per_krec", Unit: "count", Better: "lower", Layer: "core", Moves: "page_io_per_join@join_cold"},
	{Name: "core.partitions_per_op", Unit: "count", Better: "lower", Layer: "core", Moves: "page_io_per_join@join_cold"},
	{Name: "core.index_probes_per_op", Unit: "count", Better: "lower", Layer: "core", Moves: "page_io_per_join@join_cold"},
	{Name: "relation.scan_cold_ns_per_rec", Unit: "ns", Better: "lower", Layer: "relation", Moves: "cpu_ms_per_op@join_cold"},
	{Name: "relation.scan_warm_ns_per_rec", Unit: "ns", Better: "lower", Layer: "relation", Moves: "cpu_ms_per_op@route_miss"},
	{Name: "relation.recs_per_page", Unit: "count", Better: "higher", Layer: "relation", Moves: "db_bytes_per_elem@join_cold"},
	{Name: "buffer.hit_ratio", Unit: "ratio", Better: "higher", Layer: "buffer", Moves: "page_io_per_join@route_miss"},
	{Name: "buffer.evictions_per_op", Unit: "count", Better: "lower", Layer: "buffer", Moves: "page_io_per_join@route_miss"},
	{Name: "storage.reads_per_op", Unit: "pages", Better: "lower", Layer: "storage", Moves: "page_io_per_join@join_cold"},
	{Name: "storage.writes_per_op", Unit: "pages", Better: "lower", Layer: "storage", Moves: "page_io_per_join@join_cold"},
	{Name: "storage.seq_io_ratio", Unit: "ratio", Better: "higher", Layer: "storage", Moves: "page_io_per_join@join_cold"},
	{Name: "storage.virtual_ms_per_op", Unit: "ms", Better: "lower", Layer: "storage", Moves: "page_io_per_join@join_cold"},
	{Name: "extsort.sort_ns_per_rec", Unit: "ns", Better: "lower", Layer: "extsort", Moves: "lat_p99_ms@join_cold"},
	{Name: "extsort.page_io_per_krec", Unit: "pages", Better: "lower", Layer: "extsort", Moves: "page_io_per_join@join_cold"},
	{Name: "btree.build_ns_per_key", Unit: "ns", Better: "lower", Layer: "btree", Moves: "lat_p99_ms@join_cold"},
	{Name: "btree.probe_us", Unit: "us", Better: "lower", Layer: "btree", Moves: "lat_p99_ms@join_cold"},
	{Name: "shard.join_ms_per_op", Unit: "ms", Better: "lower", Layer: "shard", Moves: "lat_p50_ms@route_miss"},
	{Name: "shard.speedup_vs_single", Unit: "ratio", Better: "higher", Layer: "shard", Moves: "lat_p50_ms@route_miss"},
	{Name: "qserv.handler_hit_us", Unit: "us", Better: "lower", Layer: "qserv", Moves: "ops_per_s@serve_hot"},
	{Name: "qserv.handler_allocs_hit", Unit: "count", Better: "lower", Layer: "qserv", Moves: "allocs_per_op@serve_hot"},
	{Name: "qserv.handler_miss_self_us", Unit: "us", Better: "lower", Layer: "qserv", Moves: "lat_p50_ms@route_miss"},
	{Name: "qserv.response_bytes_per_op", Unit: "B", Better: "lower", Layer: "qserv", Moves: "ops_per_s@serve_hot"},
	{Name: "qserv.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "qserv", Moves: "lat_p50_ms@serve_hot"},
	{Name: "qserv.shed_ratio", Unit: "ratio", Better: "lower", Layer: "qserv", Moves: "ops_per_s@route_miss"},
	{Name: "qserv.worker_swaps_per_commit", Unit: "count", Better: "lower", Layer: "qserv", Moves: "lat_p99_ms@ingest_mix"},
	{Name: "http.loopback_self_us", Unit: "us", Better: "lower", Layer: "http", Moves: "lat_p50_ms@serve_hot"},
	{Name: "router.self_ms_per_op", Unit: "ms", Better: "lower", Layer: "router", Moves: "lat_p50_ms@route_miss"},
	{Name: "router.node_requests_per_op", Unit: "count", Better: "lower", Layer: "router", Moves: "cpu_ms_per_op@route_miss"},
	{Name: "router.hedges_per_op", Unit: "count", Better: "lower", Layer: "router", Moves: "cpu_ms_per_op@route_miss"},
	{Name: "router.hedge_win_ratio", Unit: "ratio", Better: "higher", Layer: "router", Moves: "lat_p99_ms@route_miss"},
	{Name: "router.failovers_per_op", Unit: "count", Better: "lower", Layer: "router", Moves: "cpu_ms_per_op@route_miss"},
	{Name: "ingest.open_ms", Unit: "ms", Better: "lower", Layer: "ingest", Moves: "setup_s@ingest_mix"},
	{Name: "ingest.apply_ms_per_batch", Unit: "ms", Better: "lower", Layer: "ingest", Moves: "ops_per_s@ingest_mix"},
	{Name: "ingest.http_self_ms", Unit: "ms", Better: "lower", Layer: "ingest", Moves: "ops_per_s@ingest_mix"},
	{Name: "ingest.commit_p50_ms", Unit: "ms", Better: "lower", Layer: "ingest", Moves: "ops_per_s@ingest_mix"},
	{Name: "ingest.commit_p95_ms", Unit: "ms", Better: "lower", Layer: "ingest", Moves: "lat_p99_ms@ingest_mix"},
	{Name: "ingest.renumber_scoped_per_kop", Unit: "count", Better: "lower", Layer: "ingest", Moves: "lat_p99_ms@ingest_mix"},
	{Name: "ingest.renumber_global_per_kop", Unit: "count", Better: "lower", Layer: "ingest", Moves: "lat_p99_ms@ingest_mix"},
	{Name: "ingest.bytes_written_per_batch", Unit: "B", Better: "lower", Layer: "ingest", Moves: "db_bytes_per_elem@ingest_mix"},
	{Name: "ingest.compact_ms", Unit: "ms", Better: "lower", Layer: "ingest", Moves: "lat_p99_ms@ingest_mix"},
	// The store's own compaction daemon under ingest_mix's traffic: folds it
	// completed, folds it dropped because a commit overtook them, and the
	// longest delta chain. ingest_mix's timed run paces compaction itself, so
	// these predict no end-to-end metric there.
	{Name: "ingest.compactions", Unit: "count", Better: "higher", Layer: "ingest", Moves: "none@ingest_mix"},
	{Name: "ingest.compact_aborts", Unit: "count", Better: "lower", Layer: "ingest", Moves: "none@ingest_mix"},
	{Name: "ingest.chain_len_max", Unit: "count", Better: "lower", Layer: "ingest", Moves: "none@ingest_mix"},
	{Name: "process.heap_peak_mb", Unit: "MB", Better: "lower", Layer: "process", Moves: "lat_p99_ms@serve_hot"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower", Layer: "process", Moves: "lat_p99_ms@serve_hot"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher", Layer: "trace", Moves: "ops_per_s@all"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Validate checks the registry against the benchmark contract: names and
// units well-formed and unique, at most 16 end-to-end and 128 per-layer
// metrics, a setup_s metric carrying the largest bound, every bound within
// (0, 0.25], and every per-layer metric naming the end-to-end metric and
// workload it should move.
func Validate() error {
	if len(EndToEnd) < 1 || len(EndToEnd) > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", len(EndToEnd))
	}
	if len(PerLayer) < 1 || len(PerLayer) > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", len(PerLayer))
	}
	if len(Workloads) < 2 || len(Workloads) > 8 {
		return fmt.Errorf("%d workloads, want 2..8", len(Workloads))
	}
	seen := map[string]bool{}
	claim := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	workloads := map[string]bool{"all": true}
	for _, w := range Workloads {
		if err := claim(w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			return fmt.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		workloads[w.Name] = true
	}
	e2e := map[string]bool{"none": true}
	var setup, maxBound float64
	for _, m := range EndToEnd {
		if err := claim(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			return fmt.Errorf("%s: bad unit %q or direction %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				return fmt.Errorf("setup_s must be in s, lower is better")
			}
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
		e2e[m.Name] = true
	}
	if setup == 0 || setup < maxBound {
		return fmt.Errorf("setup_s must exist and carry the largest bound")
	}
	for _, m := range PerLayer {
		if err := claim(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			return fmt.Errorf("%s: bad unit %q or direction %q", m.Name, m.Unit, m.Better)
		}
		if !strings.HasPrefix(m.Name, m.Layer+".") {
			return fmt.Errorf("%s: name does not start with its layer %q", m.Name, m.Layer)
		}
		target, on, ok := strings.Cut(m.Moves, "@")
		if !ok || !e2e[target] || !workloads[on] {
			return fmt.Errorf("%s: moves %q is not <end-to-end metric>@<workload>", m.Name, m.Moves)
		}
	}
	return nil
}
