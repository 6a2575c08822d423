// Command pbiserve serves containment and path queries from a persisted
// database (built by pbidb build) over HTTP+JSON, with a pool of
// read-only engines, a bounded admission queue and an LRU result cache —
// see internal/qserv and doc/SERVER.md.
//
// Usage:
//
//	pbiserve -db site.db [-addr :8080] [-workers 8] [-queue 64]
//	         [-cache 1024] [-buffer 256] [-diskcost 2003|none]
//	         [-shards 0] [-timeout 0] [-accesslog FILE|-] [-pprof]
//	         [-telemetry DIR] [-slowquery DUR]
//	         [-ingest] [-ingest-backlog 4] [-compact-after 4]
//	         [-compact-rate 0] [-gap-aware] [-keep-epochs 2]
//
// With -shards N each worker is a scatter-gather engine over the N shard
// files written by pbidb shard (expected at DB.shards/manifest.json, or
// pass the manifest path as -db); /stats and /metrics then expose
// per-shard I/O counters. See doc/SHARDING.md.
//
// With -ingest the server attaches a live write path over the database
// (internal/ingest, doc/INGEST.md): POST /ingest applies atomic update
// batches and publishes each as a new immutable epoch, queries follow
// epochs without blocking on writes (X-Epoch names the answering epoch),
// and a background daemon folds delta chains back into fresh bases under
// the -compact-rate I/O budget. Incompatible with -shards.
//
// Endpoints:
//
//	GET /join?anc=TAG&desc=TAG[&algo=NAME]   one containment join
//	GET /query?path=//a//b//c                descendant-axis path query
//	GET /relations                           stored relations
//	GET /stats                               cache / queue / latency / per-algorithm I/O
//	GET /metrics                             Prometheus text exposition
//	GET /debug/trace?anc=..&desc=..|query=.. EXPLAIN ANALYZE span tree (JSON)
//	GET /debug/trace/{id}                    retained trace of a recent query
//	GET /debug/pprof/                        profiling (only with -pprof)
//	GET /healthz                             liveness (process up)
//	GET /readyz                              readiness (engines warm, not draining)
//	POST /ingest                             apply one update batch (only with -ingest)
//	GET /epochs                              epoch family + ingest counters (only with -ingest)
//
// Every response carries an X-Trace-Id header; -accesslog writes one JSON
// line per request with the same ID, -telemetry appends one durable JSONL
// record per completed query, and ?spans=1 on /join and /query embeds the
// execution's span tree in the response (see doc/OBSERVABILITY.md).
//
// SIGINT/SIGTERM drain in-flight queries before the process exits.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/ingest"
	"github.com/pbitree/pbitree/internal/qserv"
	"github.com/pbitree/pbitree/internal/serve"
	"github.com/pbitree/pbitree/internal/telemetry"
)

func main() {
	var (
		db        = flag.String("db", "", "database page file built by pbidb build (required)")
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "engine pool size (0 = min(NumCPU, 8))")
		queue     = flag.Int("queue", 64, "admission queue depth beyond the worker count (0 = no queue)")
		cache     = flag.Int("cache", 1024, "LRU result cache entries (negative disables)")
		buffer    = flag.Int("buffer", 256, "buffer pool pages per worker")
		diskcost  = flag.String("diskcost", "2003", "virtual disk cost model: 2003|none")
		shards    = flag.Int("shards", 0, "serve a sharded store split by pbidb shard (0 = unsharded)")
		timeout   = flag.Duration("timeout", 0, "per-query execution deadline, also the ?timeout= clamp (0 = none)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
		accesslog = flag.String("accesslog", "", "write JSON request logs to this file (- = stdout)")
		pprofFlag = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		telDir    = flag.String("telemetry", "", "append one JSONL telemetry record per query to this directory (rotating)")
		slowQ     = flag.Duration("slowquery", 0, "queries at or above this wall time keep their full span tree in telemetry (0 = never)")

		ingestOn    = flag.Bool("ingest", false, "attach the live write path: POST /ingest, GET /epochs, epoch-following workers")
		ingestQueue = flag.Int("ingest-backlog", 4, "ingest batches in flight before shedding with 503")
		compactN    = flag.Int("compact-after", 4, "fold the delta chain into a fresh base once it reaches this many files (0 = never)")
		compactRate = flag.Int("compact-rate", 0, "compaction write budget in pages/sec (0 = unthrottled)")
		gapAware    = flag.Bool("gap-aware", true, "gap-aware code assignment: headroom re-encodes plus a reserved overflow slot region")
		keepEpochs  = flag.Int("keep-epochs", 2, "retired epochs kept published for draining readers before GC")
	)
	flag.Parse()
	if *db == "" || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: pbiserve -db FILE [-addr :8080] [-workers N] [-queue N] [-cache N] [-buffer N]")
		os.Exit(2)
	}
	var cost containment.DiskCost
	switch *diskcost {
	case "2003":
		cost = containment.DefaultDiskCost
	case "none":
	default:
		fail(fmt.Errorf("unknown -diskcost %q (2003|none)", *diskcost))
	}

	var logw io.Writer
	switch *accesslog {
	case "":
	case "-":
		logw = os.Stdout
	default:
		f, err := os.OpenFile(*accesslog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		logw = f
	}

	var telw *telemetry.Writer
	if *telDir != "" {
		var err error
		telw, err = telemetry.New(telemetry.Config{Dir: *telDir, SlowQuery: *slowQ})
		if err != nil {
			fail(err)
		}
	}

	// The flag default is explicit, so a user-given 0 means "no queue" —
	// map it to the Config convention (negative), where 0 means default.
	if *queue == 0 {
		*queue = -1
	}
	// The ingest store opens before the server (workers must start at the
	// manifest's current epoch, not the base) and closes after it.
	var ist *ingest.Store
	if *ingestOn {
		var err error
		ist, err = ingest.Open(ingest.Config{
			DBPath:             *db,
			GapAware:           *gapAware,
			BufferPages:        *buffer,
			CompactAfter:       *compactN,
			CompactPagesPerSec: *compactRate,
			Keep:               *keepEpochs,
		})
		if err != nil {
			fail(err)
		}
	}
	qs, err := qserv.New(qserv.Config{
		DBPath:        *db,
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheEntries:  *cache,
		BufferPages:   *buffer,
		DiskCost:      cost,
		AccessLog:     logw,
		EnablePprof:   *pprofFlag,
		QueryTimeout:  *timeout,
		Shards:        *shards,
		Telemetry:     telw,
		Ingest:        ist,
		IngestBacklog: *ingestQueue,
	})
	if err != nil {
		fail(err)
	}
	for _, r := range qs.Relations() {
		fmt.Printf("pbiserve: relation %-24s %10d elements %8d pages\n", r.Tag, r.Elements, r.Pages)
	}
	if *shards > 0 {
		fmt.Printf("pbiserve: sharded serving, %d shards per worker\n", *shards)
	}
	if ist != nil {
		epoch, path := ist.CurrentEpoch()
		fmt.Printf("pbiserve: live ingest enabled, serving epoch %d (%s)\n", epoch, path)
	}

	fmt.Printf("pbiserve: serving %s on %s\n", *db, *addr)
	if err := serve.Run("pbiserve", *addr, qs.Handler(), *drain, func() {
		fmt.Println("pbiserve: draining in-flight queries...")
		qs.Drain() // /readyz flips 503 so routers and load balancers stop sending traffic
	}); err != nil {
		qs.Close() //nolint:errcheck // exiting anyway
		fail(err)
	}
	// All handlers have returned; engines are safe to close now. The ingest
	// store closes first (drain already refused new batches; this stops the
	// compaction daemon), then the engines, then the telemetry writer so
	// every emitted record drains to disk.
	if ist != nil {
		if err := ist.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "pbiserve: ingest close: %v\n", err)
		}
	}
	if err := qs.Close(); err != nil {
		telw.Close() //nolint:errcheck // the engine error wins
		fail(err)
	}
	if err := telw.Close(); err != nil {
		fail(err)
	}
	fmt.Println("pbiserve: stopped")
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "pbiserve: %v\n", err)
	os.Exit(1)
}
