// Package telemetry is the persistent query-telemetry sidecar: an
// append-only JSONL writer that records one line per completed query —
// trace ID, algorithm, phase self-times, actual vs predicted page I/O,
// cache and admission outcome — so offline consumers (the ROADMAP's
// cost-model-calibrating planner, continuous benchmarking) can read
// durable per-query records without scraping /metrics.
//
// The design constraint is that telemetry must never slow a query down.
// Enqueue is non-blocking: records go into a bounded channel and a single
// background goroutine marshals and appends them. When the sink stalls or
// the queue fills, records are dropped and a counter incremented — the
// request path never waits. Writes are buffered and fsync-free; rotation
// is size-based with a cap on retained files, so a long-lived server
// bounds its disk footprint.
package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pbitree/pbitree/internal/trace"
)

// Phase is one span of the query's execution, flattened for JSONL: the
// phase name with its nesting depth, its self-attributed wall time, and
// its self-attributed counters.
type Phase struct {
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Depth  int    `json:"depth"`
	// SelfUS is the phase's wall time net of child phases, in microseconds.
	SelfUS int64 `json:"self_us"`
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	// VirtualUS is the virtual disk clock's self-attributed charge.
	VirtualUS int64 `json:"virtual_us,omitempty"`
	Pairs     int64 `json:"pairs,omitempty"`
}

// Record is one query's telemetry line. Every completed query produces
// exactly one.
type Record struct {
	TS      string `json:"ts"`
	TraceID string `json:"trace_id"`
	// Node identifies the emitting process when it is not implied by the
	// file's location (the router sets "router").
	Node string `json:"node,omitempty"`
	// Endpoint is the serving endpoint ("/join", "/query").
	Endpoint string `json:"endpoint"`
	// Query is the logical query ("anc/desc" for joins, the path
	// expression for path queries).
	Query  string `json:"query"`
	Status int    `json:"status"`
	// Outcome classifies how the query ended: ok, cached, rejected,
	// canceled, timeout, not_found, error.
	Outcome   string `json:"outcome"`
	Algorithm string `json:"algorithm,omitempty"`
	// Epoch is the ingest epoch current when the record was emitted (0 on
	// servers without a live write path) — it correlates latency or I/O
	// shifts with epoch swaps and compactions.
	Epoch  int64 `json:"epoch,omitempty"`
	WallUS int64 `json:"wall_us"`
	PageIO int64 `json:"page_io,omitempty"`
	// PredictedIO is the section 3.4 cost model's estimate; IORatio is
	// actual/predicted (0 when no prediction exists).
	PredictedIO int64   `json:"predicted_io,omitempty"`
	IORatio     float64 `json:"io_ratio,omitempty"`
	Phases      []Phase `json:"phases,omitempty"`
	// Spans is the full span tree, captured only for queries at or above
	// the writer's slow-query threshold.
	Spans []*trace.WireSpan `json:"spans,omitempty"`
}

// Outcome classifies a finished request's HTTP status (plus cache
// disposition) into the record outcome vocabulary shared by every
// emitter (pbiserve and pbirouter): ok, cached, rejected, canceled,
// timeout, not_found, error. 499 is the nginx-convention status both
// servers use for client-abandoned requests.
func Outcome(status int, cached bool) string {
	switch {
	case status == 200 && cached:
		return "cached"
	case status == 200:
		return "ok"
	case status == 503:
		return "rejected"
	case status == 499:
		return "canceled"
	case status == 504:
		return "timeout"
	case status == 404:
		return "not_found"
	default:
		return "error"
	}
}

// A served request's record is assembled in two halves: the serving
// middleware knows the envelope (trace ID, endpoint, status, duration,
// cache disposition) and the handler knows the execution (query,
// algorithm, phases, actual and predicted I/O). The middleware puts an
// empty record in the request context, the handler fills what it learns,
// and Emit adds the envelope once the handler returns — so every recorded
// request yields exactly one record, whatever the outcome.

type ctxKey struct{}

// NewContext returns ctx carrying rec, the record of the request ctx
// belongs to.
func NewContext(ctx context.Context, rec *Record) context.Context {
	return context.WithValue(ctx, ctxKey{}, rec)
}

// FromContext returns the request's record for the handler to fill, nil
// when telemetry is off or the endpoint is not recorded.
func FromContext(ctx context.Context) *Record {
	rec, _ := ctx.Value(ctxKey{}).(*Record)
	return rec
}

// Emit completes a handler-filled record with its request's envelope and
// enqueues it. The query defaults to the raw query string when the handler
// named none; the I/O ratio is actual over predicted when a prediction
// exists.
func (w *Writer) Emit(rec *Record, traceID, endpoint, rawQuery string, status int, cached bool, start time.Time) {
	rec.TS = start.UTC().Format(time.RFC3339Nano)
	rec.TraceID = traceID
	rec.Endpoint = endpoint
	rec.Status = status
	rec.Outcome = Outcome(status, cached)
	rec.WallUS = time.Since(start).Microseconds()
	if rec.Query == "" {
		rec.Query = rawQuery
	}
	if rec.PredictedIO > 0 {
		rec.IORatio = float64(rec.PageIO) / float64(rec.PredictedIO)
	}
	w.Enqueue(rec)
}

// Config sizes a Writer. Zero values take the defaults noted per field.
type Config struct {
	// Dir is the directory for telemetry-NNNNNN.jsonl files; required.
	Dir string
	// MaxFileBytes rotates the current file once it exceeds this size.
	// Default 8 MiB.
	MaxFileBytes int64
	// MaxFiles caps how many rotated files are retained (oldest pruned).
	// Default 4.
	MaxFiles int
	// QueueDepth bounds the in-flight record queue. Default 1024.
	QueueDepth int
	// SlowQuery is the wall-time threshold at or above which a record
	// keeps its full span tree. Zero means spans are always stripped.
	SlowQuery time.Duration
}

func (c *Config) fill() {
	if c.MaxFileBytes <= 0 {
		c.MaxFileBytes = 8 << 20
	}
	if c.MaxFiles <= 0 {
		c.MaxFiles = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
}

// Writer appends query records to a JSONL sink from a single background
// goroutine. Enqueue never blocks. A nil *Writer is the disabled state:
// every method is a no-op, so call sites need no enabled-check.
type Writer struct {
	cfg     Config
	ch      chan *Record
	done    chan struct{}
	sink    sink
	written atomic.Int64
	dropped atomic.Int64
	closed  atomic.Bool
}

// sink is where marshalled lines go. fileSink rotates; tests inject a
// writerSink (possibly one that blocks) to exercise the drop path.
type sink interface {
	writeLine(line []byte) error
	close() error
}

// New opens a Writer over a rotating file sink in cfg.Dir, creating the
// directory if needed.
func New(cfg Config) (*Writer, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("telemetry: Dir is required")
	}
	cfg.fill()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	fs, err := newFileSink(cfg.Dir, cfg.MaxFileBytes, cfg.MaxFiles)
	if err != nil {
		return nil, err
	}
	return newWriter(cfg, fs), nil
}

// NewWithSink is New with a caller-supplied sink — the test seam for
// blocked-sink and in-memory runs.
func NewWithSink(cfg Config, s sink) *Writer {
	cfg.fill()
	return newWriter(cfg, s)
}

// SinkFunc adapts a function to the sink interface (close is a no-op).
type SinkFunc func(line []byte) error

func (f SinkFunc) writeLine(line []byte) error { return f(line) }
func (f SinkFunc) close() error                { return nil }

func newWriter(cfg Config, s sink) *Writer {
	w := &Writer{
		cfg:  cfg,
		ch:   make(chan *Record, cfg.QueueDepth),
		done: make(chan struct{}),
		sink: s,
	}
	go w.drain()
	return w
}

// Enqueue hands rec to the background writer without blocking. If the
// queue is full (sink stalled or overwhelmed) the record is dropped and
// the dropped counter incremented — the request path never waits on disk.
func (w *Writer) Enqueue(rec *Record) {
	if w == nil || rec == nil || w.closed.Load() {
		return
	}
	if w.cfg.SlowQuery == 0 || time.Duration(rec.WallUS)*time.Microsecond < w.cfg.SlowQuery {
		rec.Spans = nil
	}
	select {
	case w.ch <- rec:
	default:
		w.dropped.Add(1)
	}
}

func (w *Writer) drain() {
	defer close(w.done)
	for rec := range w.ch {
		line, err := json.Marshal(rec)
		if err != nil {
			w.dropped.Add(1)
			continue
		}
		if err := w.sink.writeLine(line); err != nil {
			w.dropped.Add(1)
			continue
		}
		w.written.Add(1)
	}
}

// Written reports how many records reached the sink.
func (w *Writer) Written() int64 {
	if w == nil {
		return 0
	}
	return w.written.Load()
}

// Dropped reports how many records were discarded (queue full, marshal or
// sink error).
func (w *Writer) Dropped() int64 {
	if w == nil {
		return 0
	}
	return w.dropped.Load()
}

// SlowQuery reports the configured slow-query threshold.
func (w *Writer) SlowQuery() time.Duration {
	if w == nil {
		return 0
	}
	return w.cfg.SlowQuery
}

// Close stops accepting records, drains the queue to the sink, and closes
// it. Safe to call more than once.
func (w *Writer) Close() error {
	if w == nil || !w.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(w.ch)
	<-w.done
	return w.sink.close()
}

// fileSink appends lines to telemetry-NNNNNN.jsonl files in dir, rotating
// past maxBytes and pruning down to maxFiles. The write path is buffered
// and never fsyncs; durability is best-effort by design.
type fileSink struct {
	dir      string
	maxBytes int64
	maxFiles int
	seq      int
	size     int64
	f        *os.File
	bw       *bufio.Writer
	mu       sync.Mutex
}

const filePrefix = "telemetry-"

func newFileSink(dir string, maxBytes int64, maxFiles int) (*fileSink, error) {
	s := &fileSink{dir: dir, maxBytes: maxBytes, maxFiles: maxFiles}
	// Resume after the highest existing sequence number so a restart never
	// clobbers prior telemetry.
	for _, name := range listTelemetryFiles(dir) {
		var n int
		if _, err := fmt.Sscanf(name, filePrefix+"%06d.jsonl", &n); err == nil && n > s.seq {
			s.seq = n
		}
	}
	s.seq++
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

func listTelemetryFiles(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), filePrefix) && strings.HasSuffix(e.Name(), ".jsonl") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

func (s *fileSink) open() error {
	f, err := os.OpenFile(s.path(s.seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("telemetry: %w", err)
	}
	s.f, s.bw, s.size = f, bufio.NewWriterSize(f, 32<<10), st.Size()
	return nil
}

func (s *fileSink) path(seq int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%06d.jsonl", filePrefix, seq))
}

func (s *fileSink) writeLine(line []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.size >= s.maxBytes {
		if err := s.rotate(); err != nil {
			return err
		}
	}
	n, err := s.bw.Write(line)
	s.size += int64(n)
	if err != nil {
		return err
	}
	if err := s.bw.WriteByte('\n'); err != nil {
		return err
	}
	s.size++
	// Flush per record: lines are small, the buffer only smooths syscalls
	// within a record, and readers (smoke scripts, jq) see complete lines
	// promptly without any fsync.
	return s.bw.Flush()
}

func (s *fileSink) rotate() error {
	s.bw.Flush()
	s.f.Close()
	s.seq++
	if err := s.open(); err != nil {
		return err
	}
	s.prune()
	return nil
}

// prune deletes the oldest rotated files beyond the retention cap.
func (s *fileSink) prune() {
	names := listTelemetryFiles(s.dir)
	for len(names) > s.maxFiles {
		os.Remove(filepath.Join(s.dir, names[0]))
		names = names[1:]
	}
}

func (s *fileSink) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bw != nil {
		s.bw.Flush()
	}
	if s.f != nil {
		return s.f.Close()
	}
	return nil
}

// blockedSink blocks every write until released — the test double for a
// wedged disk. Exported for the qserv -race test.
type blockedSink struct {
	release chan struct{}
	once    sync.Once
}

// NewBlockedSink returns a sink whose writes all block until Release.
func NewBlockedSink() *BlockedSink {
	return &BlockedSink{inner: blockedSink{release: make(chan struct{})}}
}

// BlockedSink is a sink that never completes a write until released.
type BlockedSink struct{ inner blockedSink }

func (b *BlockedSink) writeLine([]byte) error {
	<-b.inner.release
	return io.ErrClosedPipe
}

func (b *BlockedSink) close() error {
	b.Release()
	return nil
}

// Release unblocks all pending and future writes (they then fail, which
// counts as dropped).
func (b *BlockedSink) Release() {
	b.inner.once.Do(func() { close(b.inner.release) })
}
