package qserv

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/pbitree/pbitree/internal/serve"
)

// writeMetrics renders every /metrics family through the serve exposition
// helpers. Families are always present (HELP and TYPE lines) even before
// any sample exists, so scrapers see a stable schema. om switches on the
// OpenMetrics extras (exemplars).
func (s *Server) writeMetrics(w io.Writer, om bool) {
	m := s.met

	serve.Metric(w, "pbiserve_uptime_seconds", "Seconds since the server started.", "gauge", time.Since(m.start).Seconds())
	serve.WriteBuildInfo(w, "pbiserve_build_info", "Build metadata; value is always 1.")

	serve.Metric(w, "pbiserve_requests_total", "Completed query requests (cached or executed).", "counter", m.requests.Load())
	serve.Metric(w, "pbiserve_errors_total", "Requests answered with a non-2xx status.", "counter", m.errors.Load())
	serve.Metric(w, "pbiserve_rejected_total", "Requests shed with 503 because the admission queue was full.", "counter", m.rejected.Load())
	serve.Metric(w, "pbiserve_canceled_total", "Requests abandoned by the client before completion (499).", "counter", m.canceled.Load())
	serve.Metric(w, "pbiserve_timeouts_total", "Requests aborted by deadline expiry (504).", "counter", m.timeouts.Load())
	serve.Metric(w, "pbiserve_corrupt_total", "Queries failed by page-checksum verification (corrupt page quarantined).", "counter", m.corrupt.Load())
	serve.Metric(w, "pbiserve_panics_total", "Panics recovered during request handling.", "counter", m.panics.Load())
	serve.Metric(w, "pbiserve_engine_recycles_total", "Poisoned worker engines discarded and replaced.", "counter", m.engineRecycles.Load())

	serve.Metric(w, "pbiserve_telemetry_records_total", "Telemetry records written to the JSONL sidecar.", "counter", s.cfg.Telemetry.Written())
	serve.Metric(w, "pbiserve_telemetry_dropped_total", "Telemetry records dropped (queue full or sink error).", "counter", s.cfg.Telemetry.Dropped())

	serve.Metric(w, "pbiserve_workers", "Engine pool size.", "gauge", s.cfg.Workers)
	serve.Metric(w, "pbiserve_busy_workers", "Workers currently executing a query.", "gauge", m.busy.Load())
	serve.Metric(w, "pbiserve_queued_requests", "Admitted requests waiting for a worker.", "gauge", m.queued.Load())

	s.cache.WriteMetrics(w, "pbiserve", "Result cache")

	serve.Family(w, "pbiserve_request_latency_seconds", "Query request latency.", "histogram")
	m.lat.WriteHistogram(w, "pbiserve_request_latency_seconds", "", om)

	m.mu.Lock()
	algNames := make([]string, 0, len(m.algs))
	for name := range m.algs {
		algNames = append(algNames, name)
	}
	sort.Strings(algNames)
	algs := make([]algTotals, len(algNames))
	algLabels := make([]string, len(algNames))
	for i, name := range algNames {
		algs[i], algLabels[i] = *m.algs[name], fmt.Sprintf("algorithm=%q", name)
	}
	phaseKeys := make([]phaseKey, 0, len(m.phases))
	for k := range m.phases {
		phaseKeys = append(phaseKeys, k)
	}
	sort.Slice(phaseKeys, func(i, j int) bool {
		if phaseKeys[i].Alg != phaseKeys[j].Alg {
			return phaseKeys[i].Alg < phaseKeys[j].Alg
		}
		return phaseKeys[i].Phase < phaseKeys[j].Phase
	})
	phases := make([]phaseTotals, len(phaseKeys))
	phaseLabels := make([]string, len(phaseKeys))
	for i, k := range phaseKeys {
		phases[i], phaseLabels[i] = *m.phases[k], fmt.Sprintf("algorithm=%q,phase=%q", k.Alg, k.Phase)
	}
	m.mu.Unlock()

	serve.Series(w, "pbiserve_join_requests_total", "Joins executed, by resolved algorithm.", "counter", algLabels, func(i int) any { return algs[i].Requests })
	serve.Series(w, "pbiserve_join_pairs_total", "Result pairs produced, by algorithm.", "counter", algLabels, func(i int) any { return algs[i].Pairs })
	serve.Series(w, "pbiserve_join_page_io_total", "Page reads+writes charged, by algorithm.", "counter", algLabels, func(i int) any { return algs[i].PageIO })
	serve.Series(w, "pbiserve_join_virtual_seconds_total", "Virtual disk time charged, by algorithm.", "counter", algLabels, func(i int) any { return algs[i].VirtualTime.Seconds() })

	serve.Family(w, "pbiserve_join_phase_page_io_total", "Self-attributed page I/O per algorithm phase.", "counter")
	for i, t := range phases {
		// The phase exemplar links the series to the most recent request
		// that ran it — by the originating request's trace ID (threaded
		// through shard fan-outs), so it resolves via /debug/trace/{id}.
		fmt.Fprintf(w, "pbiserve_join_phase_page_io_total{%s} %d%s\n", phaseLabels[i], t.Reads+t.Writes,
			serve.Exemplar(om, t.LastTrace, float64(t.Reads+t.Writes)))
	}
	serve.Series(w, "pbiserve_join_phase_virtual_seconds_total", "Self-attributed virtual disk time per algorithm phase.", "counter", phaseLabels, func(i int) any { return phases[i].VirtualTime.Seconds() })
	serve.Series(w, "pbiserve_join_phase_pairs_total", "Pairs emitted per algorithm phase.", "counter", phaseLabels, func(i int) any { return phases[i].Pairs })
	serve.Series(w, "pbiserve_join_phase_count_total", "Phase executions per algorithm phase.", "counter", phaseLabels, func(i int) any { return phases[i].Count })

	// Shard families: one series per shard of the split (label cardinality
	// = Config.Shards, fixed at startup). Samples appear only when serving
	// sharded; the family headers are always present for schema stability.
	shards := s.shardSnapshot()
	shardLabels := make([]string, len(shards))
	for i, st := range shards {
		shardLabels[i] = fmt.Sprintf("shard=\"%d\"", st.Shard)
	}
	serve.Metric(w, "pbiserve_shards", "Shards per worker (0 = unsharded serving).", "gauge", s.cfg.Shards)
	serve.Series(w, "pbiserve_shard_page_reads_total", "Page reads charged per shard, summed over the pool.", "counter", shardLabels, func(i int) any { return shards[i].Reads })
	serve.Series(w, "pbiserve_shard_page_writes_total", "Page writes charged per shard, summed over the pool.", "counter", shardLabels, func(i int) any { return shards[i].Writes })
	serve.Series(w, "pbiserve_shard_pool_hits_total", "Buffer-pool hits per shard, summed over the pool.", "counter", shardLabels, func(i int) any { return shards[i].PoolHits })
	serve.Series(w, "pbiserve_shard_pool_misses_total", "Buffer-pool misses per shard, summed over the pool.", "counter", shardLabels, func(i int) any { return shards[i].PoolMisses })
	serve.Series(w, "pbiserve_shard_virtual_seconds_total", "Virtual disk time charged per shard, summed over the pool.", "counter", shardLabels, func(i int) any { return float64(shards[i].VirtualUS) / 1e6 })

	// Ingest families: the live write path's epoch gauges and counters.
	// Like the shard families they are always present for schema stability
	// and sit at zero on servers without an attached ingest store.
	ig := s.ingestSnapshot()
	if ig == nil {
		ig = &ingestStatsBlock{}
	}
	serve.Metric(w, "pbiserve_epoch", "Ingest epoch currently published (0 = the original base, or no ingest).", "gauge", ig.Epoch)
	serve.Metric(w, "pbiserve_epoch_chain_len", "Delta files stacked on the current epoch's base.", "gauge", ig.ChainLen)
	serve.Metric(w, "pbiserve_ingest_backlog", "Ingest batches in flight (admission gate occupancy).", "gauge", ig.Backlog)
	serve.Metric(w, "pbiserve_ingest_requests_total", "Ingest batches applied and published.", "counter", ig.Requests)
	serve.Metric(w, "pbiserve_ingest_rejected_total", "Ingest batches shed with 503 (backlog full or draining).", "counter", ig.Rejected)
	serve.Metric(w, "pbiserve_ingest_failed_total", "Ingest batches rejected as invalid or rolled back.", "counter", ig.Failed)
	serve.Family(w, "pbiserve_ingest_ops_total", "Operations applied, by kind.", "counter")
	fmt.Fprintf(w, "pbiserve_ingest_ops_total{op=\"insert\"} %d\n", ig.Inserts)
	fmt.Fprintf(w, "pbiserve_ingest_ops_total{op=\"update\"} %d\n", ig.Updates)
	fmt.Fprintf(w, "pbiserve_ingest_ops_total{op=\"delete\"} %d\n", ig.Deletes)
	serve.Family(w, "pbiserve_ingest_renumbers_total", "Re-encodes forced by slot exhaustion, by scope.", "counter")
	fmt.Fprintf(w, "pbiserve_ingest_renumbers_total{scope=\"scoped\"} %d\n", ig.RenumbersScoped)
	fmt.Fprintf(w, "pbiserve_ingest_renumbers_total{scope=\"global\"} %d\n", ig.RenumbersGlobal)
	serve.Metric(w, "pbiserve_ingest_overflow_inserts_total", "Inserts placed in a parent's reserved overflow slot region.", "counter", ig.OverflowInserts)
	serve.Metric(w, "pbiserve_ingest_delta_pages_total", "Pages ingest commits wrote into epoch deltas.", "counter", ig.DeltaPages)
	serve.Metric(w, "pbiserve_ingest_shared_pages_total", "Pages of re-stored relations that commits shared by page ID with the previous epoch instead of writing.", "counter", ig.SharedPages)
	serve.Metric(w, "pbiserve_compactions_total", "Delta chains folded into fresh bases by the compaction daemon.", "counter", ig.Compactions)
	serve.Metric(w, "pbiserve_compact_aborts_total", "Compaction folds discarded because a commit superseded them.", "counter", ig.CompactAborts)
	serve.Metric(w, "pbiserve_worker_swaps_total", "Pool workers swapped to a newer epoch on acquire.", "counter", ig.WorkerSwaps)
}
