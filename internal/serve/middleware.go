package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pbitree/pbitree/internal/telemetry"
)

// Middleware is the request wrapper both tiers mount in front of their
// mux. For every request it
//
//   - names it: a propagated X-Trace-Id that is safe to echo, else a fresh
//     ID minted from a per-process prefix and a sequence number, echoed in
//     the X-Trace-Id response header;
//   - captures the status and body size the handler wrote;
//   - is the last-resort panic barrier: a panic anywhere becomes a 500
//     instead of net/http tearing the connection down without a response
//     (handlers that borrow an engine recover their own panics first, so
//     the engine can be quarantined);
//   - threads a telemetry record through the request context and emits it
//     exactly once, whatever the outcome: the handler fills the execution
//     half, the envelope (status, duration, cache disposition) is known
//     here;
//   - writes one JSON access-log line.
type Middleware struct {
	// IDPrefix (per-process entropy: the start time) and the request's
	// sequence number, %08x, make a minted trace ID.
	IDPrefix string
	// Panics and Errors are the tier's counters the panic barrier bumps.
	Panics, Errors *atomic.Int64
	// AccessLog, when non-nil, receives one JSON line per finished
	// request; writes are serialized.
	AccessLog io.Writer
	// Telemetry, when non-nil, receives one record per request to a path
	// Recorded accepts. Stamp, when non-nil, adds the tier's own fields to
	// each record as it is emitted.
	Telemetry *telemetry.Writer
	Recorded  func(path string) bool
	Stamp     func(rec *telemetry.Record)

	seq   atomic.Uint64
	logMu sync.Mutex
}

// statusWriter captures the status code and body size a handler produced.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// accessRecord is one structured request-log line.
type accessRecord struct {
	TS         string `json:"ts"`
	TraceID    string `json:"trace_id"`
	Method     string `json:"method"`
	Path       string `json:"path"`
	Query      string `json:"query,omitempty"`
	Status     int    `json:"status"`
	DurationUS int64  `json:"duration_us"`
	Bytes      int    `json:"bytes"`
	Cache      string `json:"cache,omitempty"`
}

// Wrap returns next behind the middleware.
func (m *Middleware) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		// An upstream coordinator (the router) propagates its trace ID so
		// one user request correlates across every access log it touched.
		id := incomingTraceID(r)
		if id == "" {
			var buf [16]byte // %08x of the sequence number, one allocation
			seq := strconv.AppendUint(buf[:0], m.seq.Add(1), 16)
			id = m.IDPrefix + "00000000"[min(len(seq), 8):] + string(seq)
		}
		w.Header().Set("X-Trace-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		var rec *telemetry.Record
		if m.Telemetry != nil && m.Recorded(r.URL.Path) {
			rec = &telemetry.Record{}
			r = r.WithContext(telemetry.NewContext(r.Context(), rec))
		}
		func() {
			defer func() {
				if v := recover(); v != nil {
					m.Panics.Add(1)
					if sw.status == 0 {
						m.Errors.Add(1)
						WriteError(sw, http.StatusInternalServerError, "", "internal error: %v", v)
					}
				}
			}()
			next.ServeHTTP(sw, r)
		}()
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		if rec != nil {
			if m.Stamp != nil {
				m.Stamp(rec)
			}
			m.Telemetry.Emit(rec, id, r.URL.Path, r.URL.RawQuery,
				status, sw.Header().Get("X-Cache") == "hit", start)
		}
		if m.AccessLog == nil {
			return
		}
		line, err := json.Marshal(accessRecord{
			TS:         start.UTC().Format(time.RFC3339Nano),
			TraceID:    id,
			Method:     r.Method,
			Path:       r.URL.Path,
			Query:      r.URL.RawQuery,
			Status:     status,
			DurationUS: time.Since(start).Microseconds(),
			Bytes:      sw.bytes,
			Cache:      sw.Header().Get("X-Cache"),
		})
		if err != nil {
			return
		}
		m.logMu.Lock()
		m.AccessLog.Write(append(line, '\n')) //nolint:errcheck // logging is best-effort
		m.logMu.Unlock()
	})
}

// incomingTraceID extracts a propagated X-Trace-Id header, accepting only
// IDs that are safe to echo into headers and JSON logs (short, printable,
// no whitespace or quotes). Anything else is treated as absent.
func incomingTraceID(r *http.Request) string {
	id := r.Header.Get("X-Trace-Id")
	if id == "" || len(id) > 64 {
		return ""
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.' || c == ':' || c == '/':
		default:
			return ""
		}
	}
	return id
}
