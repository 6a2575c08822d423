// Package qserv serves containment and path queries from a persisted
// database (containment.Save / Open) over HTTP+JSON, with real
// concurrency on top of the repository's deliberately single-threaded
// Engine.
//
// The design keeps the paper's engine invariant — one goroutine per
// engine — and gets parallelism from replication instead of locking:
//
//   - Engine pool: N engines are opened read-only over the one database
//     file (Config.ReadOnly → storage.OverlayDisk). Each engine owns a
//     private buffer pool and a private in-memory overlay for temporary
//     join state, so engines share nothing mutable. A request borrows one
//     engine for its whole execution and returns it.
//   - Bounded admission: at most Workers requests execute and QueueDepth
//     more wait; beyond that the server sheds load with 503 instead of
//     queueing unboundedly.
//   - Result cache: stored relations are immutable while serving, so a
//     normalized query maps to one answer for the server's lifetime. An
//     LRU cache returns byte-identical payloads on hits without touching
//     an engine.
//   - /stats: per-algorithm page I/O and virtual-clock totals, cache hit
//     rate, queue gauges and p50/p95/p99 latency over a sliding window.
//
// cmd/pbiserve wraps this package in a binary with graceful shutdown;
// cmd/pbiload drives it with closed- and open-loop workloads.
package qserv

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/ingest"
	"github.com/pbitree/pbitree/internal/serve"
	"github.com/pbitree/pbitree/internal/shard"
	"github.com/pbitree/pbitree/internal/telemetry"
	"github.com/pbitree/pbitree/internal/trace"
	"github.com/pbitree/pbitree/pbicode"
)

// Config configures a Server.
type Config struct {
	// DBPath is the page file of a database built with containment.Save
	// (e.g. by pbidb build). Required.
	DBPath string
	// Workers is the engine pool size: the maximum number of queries
	// executing at once. 0 means min(NumCPU, 8).
	Workers int
	// QueueDepth is the number of admitted requests that may wait for a
	// worker before the server sheds load with 503. 0 means 64.
	QueueDepth int
	// CacheEntries bounds the LRU result cache. 0 means 1024; negative
	// disables caching.
	CacheEntries int
	// BufferPages is each worker's private buffer pool size. 0 means 256.
	BufferPages int
	// DiskCost models the virtual disk each worker charges (stats only;
	// no real delays). The zero value disables the clock.
	DiskCost containment.DiskCost
	// MaxCodes caps how many result codes /query echoes per response.
	// 0 means 100.
	MaxCodes int
	// AccessLog, when non-nil, receives one JSON line per finished request
	// (timestamp, trace ID, method, path, status, duration, cache
	// disposition). Writes are serialized by the server.
	AccessLog io.Writer
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/.
	// Off by default: profiling endpoints expose internals and should only
	// be reachable when deliberately enabled.
	EnablePprof bool
	// QueryTimeout bounds each query's execution; past it the join aborts
	// cooperatively and the request is answered 504. It is also the upper
	// clamp for the per-request ?timeout= parameter. 0 means no server
	// deadline (?timeout= is then accepted unclamped).
	QueryTimeout time.Duration
	// Shards serves a sharded store (pbidb shard / internal/shard.Split)
	// instead of a single database: each worker becomes a scatter-gather
	// shard.Engine over the split's N page files, and every query fans out
	// across the shards. DBPath then names either the shard manifest
	// itself (a .json path) or the original database, whose manifest is
	// found at DBPath+".shards/manifest.json" — the default pbidb shard
	// output location. The manifest's shard count must equal Shards.
	// BufferPages is per shard engine in this mode. 0 serves unsharded.
	Shards int
	// Telemetry, when non-nil, receives one record per completed /join or
	// /query request (the persistent query-telemetry sidecar). The server
	// only enqueues; the caller owns the writer's lifecycle and closes it
	// after Shutdown.
	Telemetry *telemetry.Writer
	// Ingest, when non-nil, attaches a live write path (internal/ingest)
	// over the same database: POST /ingest applies update batches, GET
	// /epochs reports the epoch family, and queries follow published epochs
	// — each worker is stamped with the epoch it was opened against and
	// acquire swaps stale workers to the current epoch lazily. The result
	// cache becomes epoch-keyed (entries for retired epochs age out of the
	// LRU) and responses carry an X-Epoch header. The caller owns the
	// store's lifecycle: open it before New, close it after Shutdown.
	// Incompatible with Shards.
	Ingest *ingest.Store
	// IngestBacklog bounds POST /ingest requests in flight (executing plus
	// waiting on the single-writer store); beyond it the server sheds
	// ingest load with 503 + Retry-After instead of queueing unboundedly.
	// 0 means 4.
	IngestBacklog int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.BufferPages == 0 {
		c.BufferPages = 256
	}
	if c.MaxCodes <= 0 {
		c.MaxCodes = 100
	}
	if c.IngestBacklog <= 0 {
		c.IngestBacklog = 4
	}
	return c
}

// RelationInfo describes one stored relation (the /relations payload).
type RelationInfo struct {
	Name     string `json:"name"`
	Tag      string `json:"tag"`
	Elements int64  `json:"elements"`
	Pages    int64  `json:"pages"`
	// Ordered is whether the relation is stored in document order
	// (containment.Relation.Ordered): AUTO runs Table 1's sorted row on
	// ordered inputs.
	Ordered bool `json:"ordered"`
}

// Server is a concurrent containment-join query server over one database.
type Server struct {
	cfg      Config
	manifest string // resolved shard manifest path (Shards > 0)
	all      []worker
	workers  chan worker
	admit    chan struct{}
	cache    *serve.Cache // nil when disabled
	met      *metrics
	traces   *trace.Store // the 256 most recent query traces, for /debug/trace/{id}
	handler  http.Handler // endpoint mux behind serve.Middleware
	rels     []RelationInfo
	ing      *ingestState // nil without Config.Ingest

	// draining flips when Drain is called: /readyz answers 503 so probers
	// (routers, load balancers) stop routing here, while /healthz stays 200
	// and in-flight requests keep executing until Shutdown completes.
	draining atomic.Bool

	poolMu sync.Mutex // guards all/closed against quarantine replacement
	closed bool       // set by Close; stops replacement goroutines

	// testHook, when non-nil, runs inside the execution guard right before
	// the engine work of every guarded request. Tests inject panics here to
	// exercise the quarantine path.
	testHook func()
}

// New opens cfg.Workers read-only engines over cfg.DBPath and returns a
// server ready to handle requests.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DBPath == "" {
		return nil, fmt.Errorf("qserv: Config.DBPath is required")
	}
	s := &Server{
		cfg:     cfg,
		workers: make(chan worker, cfg.Workers),
		admit:   make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		cache:   serve.NewCache(cfg.CacheEntries),
		met:     newMetrics(),
		traces:  trace.NewStore(256),
	}
	if cfg.Shards > 0 {
		s.manifest = shardManifestPath(cfg.DBPath)
	}
	if cfg.Ingest != nil {
		if cfg.Shards > 0 {
			return nil, fmt.Errorf("qserv: Config.Ingest is incompatible with Config.Shards (ingest serves one database's epoch family)")
		}
		epoch, path := cfg.Ingest.CurrentEpoch()
		s.ing = &ingestState{
			store: cfg.Ingest,
			gate:  make(chan struct{}, cfg.IngestBacklog),
			epoch: epoch,
			path:  path,
		}
		// Every publication (ingest commit or compaction) moves the serving
		// target; workers notice on their next acquire and swap over.
		cfg.Ingest.SetOnPublish(s.ing.adopt)
	}
	for i := 0; i < cfg.Workers; i++ {
		wk, err := s.openWorker()
		if err != nil {
			s.Close() //nolint:errcheck // the open error wins
			return nil, fmt.Errorf("qserv: open worker %d: %w", i, err)
		}
		s.all = append(s.all, wk)
		s.workers <- wk
	}
	s.rels = s.all[0].relationInfos()

	mux := http.NewServeMux()
	mux.HandleFunc("/join", s.handleJoin)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/relations", s.handleRelations)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", serve.MetricsHandler(s.writeMetrics))
	mux.HandleFunc("/debug/trace", s.handleDebugTrace)
	mux.HandleFunc("/debug/trace/", s.handleDebugTraceID)
	mux.HandleFunc("/healthz", serve.Healthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	if s.ing != nil {
		mux.HandleFunc("/ingest", s.handleIngest)
		mux.HandleFunc("/epochs", s.handleEpochs)
	}
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.handler = (&serve.Middleware{
		IDPrefix:  fmt.Sprintf("%08x-", uint32(time.Now().UnixNano())),
		Panics:    &s.met.panics,
		Errors:    &s.met.errors,
		AccessLog: cfg.AccessLog,
		Telemetry: cfg.Telemetry,
		Recorded:  recordedEndpoint,
		Stamp:     s.stampTelemetry,
	}).Wrap(mux)
	return s, nil
}

// shardManifestPath resolves Config.DBPath onto a shard manifest: a
// .json path is the manifest itself; anything else is a database path
// whose split is expected in the pbidb shard default output directory
// next to it.
func shardManifestPath(dbPath string) string {
	if strings.HasSuffix(dbPath, ".json") {
		return dbPath
	}
	return filepath.Join(dbPath+".shards", shard.ManifestName)
}

// openWorker opens one pool worker: a read-only engine over the database
// file (solo serving), or a scatter-gather shard.Engine over the split's
// shard files when Config.Shards is set. Both are cheap COW overlays, so
// quarantine replacement stays an Open, not a rebuild.
func (s *Server) openWorker() (worker, error) {
	if s.cfg.Shards > 0 {
		se, err := shard.Open(s.manifest, shard.Config{
			ReadOnly:    true,
			BufferPages: s.cfg.BufferPages,
			DiskCost:    s.cfg.DiskCost,
		})
		if err != nil {
			return nil, err
		}
		if got := se.NumShards(); got != s.cfg.Shards {
			se.Close() //nolint:errcheck // the mismatch error wins
			return nil, fmt.Errorf("manifest %s has %d shards, Config.Shards is %d",
				s.manifest, got, s.cfg.Shards)
		}
		return &shardWorker{se: se}, nil
	}
	// With an ingest store attached, workers open the current epoch's
	// database instead of the startup path; the epoch stamp lets acquire
	// detect staleness after the next publication.
	path, epoch := s.cfg.DBPath, int64(0)
	if s.ing != nil {
		epoch, path = s.ing.current()
	}
	eng, rels, err := containment.Open(containment.Config{
		Path:        path,
		ReadOnly:    true,
		BufferPages: s.cfg.BufferPages,
		DiskCost:    s.cfg.DiskCost,
	})
	if err != nil {
		return nil, err
	}
	return &soloWorker{eng: eng, rels: rels, ep: epoch}, nil
}

// Handler returns the server's HTTP handler: the endpoint mux behind the
// request middleware (serve.Middleware: trace IDs, panic barrier, access
// log, telemetry).
func (s *Server) Handler() http.Handler { return s.handler }

// Relations returns the stored relations' catalog metadata.
func (s *Server) Relations() []RelationInfo { return s.rels }

// Close releases every worker engine. It must only be called once no
// request is in flight — after http.Server.Shutdown has drained the
// handler (engines are single-threaded; see containment.Engine). Pending
// quarantine replacements are stopped.
func (s *Server) Close() error {
	s.poolMu.Lock()
	s.closed = true
	workers := s.all
	s.all = nil
	s.poolMu.Unlock()
	var first error
	for _, wk := range workers {
		if err := wk.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// errSaturated reports an admission refusal (the 503 path).
var errSaturated = errors.New("qserv: saturated")

// acquire admits a request and borrows a worker. It fails with
// errSaturated when the admission queue is full, or with ctx.Err() when
// the request's context dies while waiting for a worker — in both cases
// the queue slot is given back. The returned release must be called
// exactly once; release(true) quarantines the worker instead of
// returning it (see quarantine).
func (s *Server) acquire(ctx context.Context) (worker, func(recycle bool), error) {
	select {
	case s.admit <- struct{}{}:
	default:
		s.met.rejected.Add(1)
		return nil, nil, errSaturated
	}
	s.met.queued.Add(1)
	select {
	case wk := <-s.workers:
		s.met.queued.Add(-1)
		s.met.busy.Add(1)
		if s.ing != nil {
			wk = s.freshen(wk)
		}
		release := func(recycle bool) {
			s.met.busy.Add(-1)
			if recycle {
				s.quarantine(wk)
			} else {
				s.workers <- wk
			}
			<-s.admit
		}
		return wk, release, nil
	case <-ctx.Done():
		// Client gone or deadline passed while queued: free the slot so
		// the abandoned request stops occupying queue capacity.
		s.met.queued.Add(-1)
		<-s.admit
		return nil, nil, ctx.Err()
	}
}

// quarantine discards a worker whose engine may be poisoned (a panic
// escaped an algorithm mid-join, leaving unknowable internal state) and
// schedules a replacement. Pool engines are cheap read-only COW overlays
// over the shared database file, so recycling one costs an Open, not a
// rebuild. The pool runs one worker short until the replacement lands.
func (s *Server) quarantine(old worker) {
	s.met.engineRecycles.Add(1)
	s.poolMu.Lock()
	for i, wk := range s.all {
		if wk == old {
			s.all = append(s.all[:i], s.all[i+1:]...)
			break
		}
	}
	closed := s.closed
	s.poolMu.Unlock()
	func() {
		// A poisoned engine may panic again while flushing; contain it.
		defer func() { recover() }() //nolint:errcheck // best-effort close
		old.close()                  //nolint:errcheck // discarding anyway
	}()
	if !closed {
		go s.replaceWorker()
	}
}

// replaceWorker opens a fresh read-only engine and returns it to the
// pool, retrying with backoff (the database file itself is intact — a
// transient open failure should not permanently shrink the pool).
func (s *Server) replaceWorker() {
	backoff := 50 * time.Millisecond
	for {
		s.poolMu.Lock()
		if s.closed {
			s.poolMu.Unlock()
			return
		}
		s.poolMu.Unlock()
		wk, err := s.openWorker()
		if err == nil {
			s.poolMu.Lock()
			if s.closed {
				s.poolMu.Unlock()
				wk.close() //nolint:errcheck // shutting down
				return
			}
			s.all = append(s.all, wk)
			s.poolMu.Unlock()
			// Never blocks: the pool never exceeds cfg.Workers workers and
			// the channel holds that many.
			s.workers <- wk
			return
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// writeError answers a request error (no failure class) and counts it.
func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.met.errors.Add(1)
	serve.WriteError(w, status, "", format, args...)
}

// writePayload sends a rendered JSON answer and records its latency.
func (s *Server) writePayload(w http.ResponseWriter, payload []byte, cached bool, start time.Time) {
	serve.WritePayload(w, http.StatusOK, payload, cached)
	s.met.observe(time.Since(start), w.Header().Get("X-Trace-Id"))
}

// overloaded sheds one request with 503 and a hint to retry.
func (s *Server) overloaded(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	s.writeError(w, http.StatusServiceUnavailable,
		"server saturated: %d executing, %d queued", s.cfg.Workers, s.cfg.QueueDepth)
}

// writeClassified renders the error envelope with the failure class named,
// so the wire carries the vocabulary and not just prose.
func (s *Server) writeClassified(w http.ResponseWriter, status int, class containment.FailureClass, format string, args ...any) {
	s.met.errors.Add(1)
	serve.WriteError(w, status, class.String(), format, args...)
}

// writeFailure answers a failed execution, classifying the error into the
// status vocabulary: 499 for client-canceled requests, 504 for deadline
// expiry, 500 for everything else. Corruption (a page failed checksum
// verification) is a 500 like other storage failures — retryable at the
// router, since a clean replica of the same shard can still answer — but
// carries its own class and counter: the query failed precisely so a
// damaged page could not become a silently wrong result, and the operator
// response (quarantine holds; run pbifsck; restore the shard file) is
// different from a transient I/O error. The matching counters are bumped.
func (s *Server) writeFailure(w http.ResponseWriter, what string, err error) {
	class := containment.Classify(err)
	switch class {
	case containment.FailDeadline:
		s.met.timeouts.Add(1)
		s.writeClassified(w, http.StatusGatewayTimeout, class, "%s timed out: %v", what, err)
	case containment.FailCanceled:
		s.met.canceled.Add(1)
		s.writeClassified(w, serve.StatusClientClosedRequest, class, "%s canceled by client", what)
	case containment.FailCorrupt:
		s.met.corrupt.Add(1)
		s.writeClassified(w, http.StatusInternalServerError, class,
			"%s failed: %v (page quarantined; run pbifsck against this shard)", what, err)
	default:
		s.writeClassified(w, http.StatusInternalServerError, class, "%s failed: %v", what, err)
	}
}

// panicError is a recovered handler panic carried as an error.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.val) }

// guard runs fn, converting a panic into a *panicError so the caller can
// answer 500 and quarantine the borrowed engine instead of letting the
// panic unwind (net/http would kill the connection without a response,
// and the engine's internal state would be unknowable yet reused).
func (s *Server) guard(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			s.met.panics.Add(1)
			err = &panicError{val: v, stack: debug.Stack()}
		}
	}()
	if s.testHook != nil {
		s.testHook()
	}
	return fn()
}

// finishJoinError maps a guarded join execution's error onto a response.
// It reports whether the borrowed engine must be recycled (a panic was
// recovered). notFound handles *unknownRelationError specially (404).
func (s *Server) finishJoinError(w http.ResponseWriter, what string, err error) (recycle bool) {
	var pe *panicError
	if errors.As(err, &pe) {
		s.writeError(w, http.StatusInternalServerError, "%s: internal error: %v", what, pe.val)
		return true
	}
	var unknown *unknownRelationError
	if errors.As(err, &unknown) {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return false
	}
	s.writeFailure(w, what, err)
	return false
}

// JoinResponse is the /join payload. Exported (with QueryResponse and
// PathStep) so internal/router decodes node responses against the same
// wire contract this server defines, instead of a drifting mirror copy.
type JoinResponse struct {
	Anc         string `json:"anc"`
	Desc        string `json:"desc"`
	Algorithm   string `json:"algorithm"`
	Count       int64  `json:"count"`
	FalseHits   int64  `json:"false_hits,omitempty"`
	PageIO      int64  `json:"page_io"`
	SeqIO       int64  `json:"seq_io"`
	PredictedIO int64  `json:"predicted_io"`
	VirtualUS   int64  `json:"virtual_us"`
	WallUS      int64  `json:"wall_us"`
	// Partial and MissingShards are set only by the router's degraded
	// serving mode (?partial=1): the listed shards had no usable replica
	// and were skipped, so Count (and every other aggregate) is an exact
	// lower bound over the shards that answered — never an estimate, and
	// never silently short. Single nodes always return complete answers.
	Partial       bool  `json:"partial,omitempty"`
	MissingShards []int `json:"missing_shards,omitempty"`
	// TraceID and Spans are present only when the request asked for span
	// export (?spans=1): the request's trace ID and the execution's span
	// tree in the distributed-trace wire shape. The router requests these
	// on fan-out and stitches the per-node trees into one trace.
	TraceID string          `json:"trace_id,omitempty"`
	Spans   *trace.WireSpan `json:"spans,omitempty"`
}

// nodeTrace is one executed request's trace as the ring keeps it: the
// joins' analyses, whose finished span trees and predicted I/O are all a
// rendering needs. GET /debug/trace/{id} builds the wire shape when it
// reads the entry.
type nodeTrace struct {
	id, query string
	at        time.Time
	analyses  []*containment.Analysis
}

func (t *nodeTrace) ID() string { return t.id }

func (t *nodeTrace) Record() *trace.Record {
	return &trace.Record{
		TraceID: t.id,
		TS:      t.at.UTC().Format(time.RFC3339Nano),
		Query:   t.query,
		Spans:   t.spans(),
	}
}

// spans renders the joins' span trees in the wire shape.
func (t *nodeTrace) spans() []*trace.WireSpan {
	var spans []*trace.WireSpan
	for _, an := range t.analyses {
		if an == nil {
			continue
		}
		if ws := an.Wire(); ws != nil {
			spans = append(spans, ws)
		}
	}
	return spans
}

// keepTrace stores executed joins' traces in the ring under the request's
// trace ID (retrievable via GET /debug/trace/{id}), which renders them when
// read. Partial analyses from aborted executions keep their partial trees —
// those are the interesting ones. With render set the wire spans are also
// built now and returned, for a request that asked for them (?spans=1) or
// whose telemetry record may keep them (wantWire); otherwise keepTrace
// returns nil.
func (s *Server) keepTrace(traceID, query string, render bool, analyses ...*containment.Analysis) []*trace.WireSpan {
	t := &nodeTrace{id: traceID, query: query, at: time.Now(), analyses: analyses}
	for _, an := range analyses {
		if an != nil && an.Root() != nil {
			s.traces.Put(t)
			break
		}
	}
	if !render {
		return nil
	}
	return t.spans()
}

// wantWire reports whether a request needs its joins' wire spans as it
// finishes: it asked for them (?spans=1), or the telemetry sidecar captures
// slow queries' span trees and its record (nil when telemetry is off) may
// be one.
func (s *Server) wantWire(spans bool, rec *telemetry.Record) bool {
	return spans || (rec != nil && s.cfg.Telemetry.SlowQuery() > 0)
}

// cacheKey is the result-cache key of one query: the epoch it was answered
// against (0 without an ingest store), its kind ("join" or "path"), its
// parts and its number (the algorithm, or the codes limit), in one
// allocation.
func cacheKey(epoch int64, kind, a, b string, n int) string {
	var buf [128]byte
	k := strconv.AppendInt(buf[:0], epoch, 10)
	for _, part := range [...]string{kind, a, b} {
		k = append(append(k, 0), part...)
	}
	return string(strconv.AppendInt(append(k, 0), int64(n), 10))
}

// handleJoin serves GET /join?anc=TAG&desc=TAG[&algo=NAME].
func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	anc, desc := q.Get("anc"), q.Get("desc")
	if anc == "" || desc == "" {
		s.writeError(w, http.StatusBadRequest, "anc and desc query parameters are required")
		return
	}
	algoName := q.Get("algo")
	alg, ok := containment.ParseAlgorithm(algoName)
	if !ok {
		s.writeError(w, http.StatusBadRequest, "unknown algorithm %q (accepted: %s)",
			algoName, strings.Join(containment.AlgorithmNames(), ", "))
		return
	}
	qctx, cancel, err := serve.RequestContext(r, q, s.cfg.QueryTimeout)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	// A context that is already dead (?timeout= too small to matter, or
	// the client has hung up) fails deterministically — before the cache
	// can turn the request into a hit.
	if err := qctx.Err(); err != nil {
		s.writeFailure(w, "join", err)
		return
	}
	spans := serve.WantSpans(q)
	// ?spans=1 bypasses the result cache entirely (no lookup, no store);
	// like /debug/trace, the flag exists to observe execution. A node
	// without a cache builds no key.
	cached := !spans && s.cache != nil
	if cached {
		epoch := s.servingEpoch()
		if payload, ok := s.cache.Get(cacheKey(epoch, "join", anc, desc, int(alg))); ok {
			s.stampEpoch(w, epoch)
			s.writePayload(w, payload, true, start)
			return
		}
	}

	wk, release, aerr := s.acquire(qctx)
	if aerr != nil {
		if errors.Is(aerr, errSaturated) {
			s.overloaded(w)
		} else {
			s.writeFailure(w, "join", aerr)
		}
		return
	}
	recycle := false
	defer func() { release(recycle) }()
	s.stampEpoch(w, wk.epoch())
	traceID := w.Header().Get("X-Trace-Id")
	var an *containment.Analysis
	err = s.guard(func() error {
		var jerr error
		an, jerr = wk.analyze(qctx, anc, desc,
			containment.JoinOptions{Algorithm: alg, TraceID: traceID})
		if rerr := wk.releaseTemp(); rerr != nil && jerr == nil {
			jerr = rerr
		}
		return jerr
	})
	query := "//" + anc + "//" + desc
	if err != nil {
		s.keepTrace(traceID, query, false, an)
		recycle = s.finishJoinError(w, "join", err)
		return
	}
	res := an.Result
	s.met.recordJoin(res)
	s.met.recordPhases(res.Algorithm, an.Phases, traceID)
	rec := telemetry.FromContext(r.Context())
	ws := s.keepTrace(traceID, query, s.wantWire(spans, rec), an)
	if rec != nil {
		rec.Query = query
		fillTelemetry(rec, []*containment.Analysis{an}, ws)
	}
	resp := JoinResponse{
		Anc: anc, Desc: desc,
		Algorithm: res.Algorithm, Count: res.Count, FalseHits: res.FalseHits,
		PageIO: res.IO.Total(), SeqIO: res.IO.SeqReads + res.IO.SeqWrites,
		PredictedIO: res.PredictedIO,
		VirtualUS:   res.IO.VirtualTime.Microseconds(),
		WallUS:      res.IO.WallTime.Microseconds(),
	}
	if spans {
		resp.TraceID = traceID
		if len(ws) > 0 {
			resp.Spans = ws[0]
		}
	}
	payload := serve.MustJSON(resp)
	if cached {
		// Stored under the epoch the borrowed worker actually executed
		// against (a swap may have landed between lookup and acquire), so a
		// cached payload always matches its key's epoch.
		s.cache.Put(cacheKey(wk.epoch(), "join", anc, desc, int(alg)), payload)
	}
	s.writePayload(w, payload, false, start)
}

// QueryResponse is the /query payload.
type QueryResponse struct {
	Path      string     `json:"path"`
	Count     int        `json:"count"`
	Codes     []uint64   `json:"codes"`
	Truncated bool       `json:"truncated"`
	Steps     []PathStep `json:"steps,omitempty"`
	PageIO    int64      `json:"page_io"`
	VirtualUS int64      `json:"virtual_us"`
	WallUS    int64      `json:"wall_us"`
	// Partial and MissingShards mirror JoinResponse: set only by the
	// router's degraded mode when the listed shards were skipped, making
	// Count and Codes an exact lower bound over the answering shards.
	Partial       bool  `json:"partial,omitempty"`
	MissingShards []int `json:"missing_shards,omitempty"`
	// TraceID and Spans are present only under ?spans=1 — one span tree
	// per executed join step, in chain order.
	TraceID string            `json:"trace_id,omitempty"`
	Spans   []*trace.WireSpan `json:"spans,omitempty"`
}

// maxCodesLimit is the absolute ceiling for the /query ?limit= override:
// large enough for a router to reassemble exact global truncation from
// per-shard responses, small enough to bound response size.
const maxCodesLimit = 1_000_000

// handleQuery serves GET /query?path=//a//b[&limit=N] — descendant-axis
// path expressions over stored relations. limit overrides Config.MaxCodes
// for this request (routers pass their own truncation budget so the
// global first-K merge is exact).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	expr := q.Get("path")
	if expr == "" {
		s.writeError(w, http.StatusBadRequest, "path query parameter is required")
		return
	}
	limit := s.cfg.MaxCodes
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxCodesLimit {
			s.writeError(w, http.StatusBadRequest,
				"invalid limit %q (want 1..%d)", v, maxCodesLimit)
			return
		}
		limit = n
	}
	qctx, cancel, err := serve.RequestContext(r, q, s.cfg.QueryTimeout)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	if err := qctx.Err(); err != nil {
		s.writeFailure(w, "path query", err)
		return
	}
	spans := serve.WantSpans(q)
	// A hit is keyed by the expression as sent, so it is never parsed:
	// only answers are stored, and an answer is a function of the
	// expression. Two spellings of one path take two entries.
	cached := !spans && s.cache != nil
	if cached {
		epoch := s.servingEpoch()
		if payload, ok := s.cache.Get(cacheKey(epoch, "path", expr, "", limit)); ok {
			s.stampEpoch(w, epoch)
			s.writePayload(w, payload, true, start)
			return
		}
	}
	canon, tags, err := CanonicalPath(expr)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	wk, release, aerr := s.acquire(qctx)
	if aerr != nil {
		if errors.Is(aerr, errSaturated) {
			s.overloaded(w)
		} else {
			s.writeFailure(w, "path query", aerr)
		}
		return
	}
	recycle := false
	defer func() { release(recycle) }()
	s.stampEpoch(w, wk.epoch())
	traceID := w.Header().Get("X-Trace-Id")
	var (
		codes    []pbicode.Code
		stepInfo []PathStep
		analyses []*containment.Analysis
	)
	err = s.guard(func() error {
		var qerr error
		codes, stepInfo, analyses, qerr = wk.evalPath(qctx, tags)
		if rerr := wk.releaseTemp(); rerr != nil && qerr == nil {
			qerr = rerr
		}
		return qerr
	})
	if err != nil {
		s.keepTrace(traceID, canon, false, analyses...)
		recycle = s.finishJoinError(w, "path query", err)
		return
	}
	resp := QueryResponse{Path: canon, Count: len(codes), Steps: stepInfo}
	var io containment.IOStats
	for _, an := range analyses {
		res := an.Result
		s.met.recordJoin(res)
		s.met.recordPhases(res.Algorithm, an.Phases, traceID)
		io.Add(res.IO)
	}
	rec := telemetry.FromContext(r.Context())
	ws := s.keepTrace(traceID, canon, s.wantWire(spans, rec), analyses...)
	if rec != nil {
		rec.Query = canon
		fillTelemetry(rec, analyses, ws)
	}
	if spans {
		resp.TraceID = traceID
		resp.Spans = ws
	}
	resp.PageIO = io.Total()
	resp.VirtualUS = io.VirtualTime.Microseconds()
	resp.WallUS = io.WallTime.Microseconds()
	n := len(codes)
	if n > limit {
		n, resp.Truncated = limit, true
	}
	resp.Codes = make([]uint64, n)
	for i := 0; i < n; i++ {
		resp.Codes[i] = uint64(codes[i])
	}
	payload := serve.MustJSON(resp)
	if cached {
		s.cache.Put(cacheKey(wk.epoch(), "path", expr, "", limit), payload)
	}
	s.writePayload(w, payload, false, start)
}

// handleRelations serves GET /relations.
func (s *Server) handleRelations(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, s.rels)
}

// queueStats is the /stats admission block.
type queueStats struct {
	Workers  int   `json:"workers"`
	Busy     int64 `json:"busy"`
	Depth    int64 `json:"depth"`
	Capacity int   `json:"capacity"`
}

// shardStat is one shard's cumulative join I/O summed across the whole
// worker pool (the /stats shards block, present only when sharded).
type shardStat struct {
	Shard      int   `json:"shard"`
	Reads      int64 `json:"reads"`
	Writes     int64 `json:"writes"`
	PoolHits   int64 `json:"pool_hits"`
	PoolMisses int64 `json:"pool_misses"`
	VirtualUS  int64 `json:"virtual_us"`
}

// shardSnapshot sums per-shard I/O across every pool worker. Safe while
// workers are mid-join: shardTotals is each worker's scrape-safe method.
func (s *Server) shardSnapshot() []shardStat {
	if s.cfg.Shards <= 0 {
		return nil
	}
	totals := make([]containment.IOStats, s.cfg.Shards)
	s.poolMu.Lock()
	workers := s.all
	s.poolMu.Unlock()
	for _, wk := range workers {
		for i, io := range wk.shardTotals() {
			if i < len(totals) {
				totals[i].Add(io)
			}
		}
	}
	out := make([]shardStat, len(totals))
	for i, io := range totals {
		out[i] = shardStat{
			Shard:      i,
			Reads:      io.Reads,
			Writes:     io.Writes,
			PoolHits:   io.PoolHits,
			PoolMisses: io.PoolMisses,
			VirtualUS:  io.VirtualTime.Microseconds(),
		}
	}
	return out
}

// statsResponse is the /stats payload.
type statsResponse struct {
	UptimeS        float64                `json:"uptime_s"`
	Database       string                 `json:"database"`
	Requests       int64                  `json:"requests"`
	Errors         int64                  `json:"errors"`
	Rejected       int64                  `json:"rejected"`
	Canceled       int64                  `json:"canceled"`
	Timeouts       int64                  `json:"timeouts"`
	Corrupt        int64                  `json:"corrupt"`
	Panics         int64                  `json:"panics"`
	EngineRecycles int64                  `json:"engine_recycles"`
	Queue          queueStats             `json:"queue"`
	Cache          *serve.CacheStats      `json:"cache,omitempty"`
	Latency        serve.LatencyStats     `json:"latency"`
	Algorithms     map[string]algSnapshot `json:"algorithms"`
	Shards         []shardStat            `json:"shards,omitempty"`
	Ingest         *ingestStatsBlock      `json:"ingest,omitempty"`
}

// handleStats serves GET /stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		UptimeS:        time.Since(s.met.start).Seconds(),
		Database:       s.cfg.DBPath,
		Requests:       s.met.requests.Load(),
		Errors:         s.met.errors.Load(),
		Rejected:       s.met.rejected.Load(),
		Canceled:       s.met.canceled.Load(),
		Timeouts:       s.met.timeouts.Load(),
		Corrupt:        s.met.corrupt.Load(),
		Panics:         s.met.panics.Load(),
		EngineRecycles: s.met.engineRecycles.Load(),
		Queue: queueStats{
			Workers: s.cfg.Workers, Busy: s.met.busy.Load(),
			Depth: s.met.queued.Load(), Capacity: s.cfg.QueueDepth,
		},
		Cache:      s.cache.Stats(),
		Latency:    s.met.lat.Snapshot(),
		Algorithms: s.met.algSnapshots(),
		Shards:     s.shardSnapshot(),
		Ingest:     s.ingestSnapshot(),
	}
	serve.WriteJSON(w, resp)
}

// handleReadyz serves GET /readyz — readiness: whether this server should
// receive new queries. 503 while draining (Drain was called ahead of
// shutdown) and while the engine pool is empty (every worker quarantined
// and replacements still opening), 200 otherwise. Liveness (/healthz)
// stays 200 throughout, so a prober can tell "restart me" from "route
// around me".
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"status":"draining"}`)) //nolint:errcheck // best effort
		return
	}
	s.poolMu.Lock()
	warm := len(s.all)
	s.poolMu.Unlock()
	if warm == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"status":"no engines"}`)) //nolint:errcheck // best effort
		return
	}
	w.Write([]byte(`{"status":"ready"}`)) //nolint:errcheck // best effort
}

// Drain marks the server not-ready: /readyz starts answering 503 so
// routers and load balancers stop sending new work, while already-accepted
// requests keep executing. Call it before http.Server.Shutdown so probers
// observe the drain window instead of abrupt connection refusals.
func (s *Server) Drain() { s.draining.Store(true) }
