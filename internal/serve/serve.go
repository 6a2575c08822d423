// Package serve is the HTTP substrate the two serving tiers share —
// pbiserve's internal/qserv and pbirouter's internal/router: the LRU
// result cache, the latency window behind /stats percentiles, the router's
// hedging quantile and the /metrics latency histograms, the Prometheus
// exposition helpers with /metrics content negotiation, the request
// middleware, and the request and response helpers both tiers answer
// with. What differs between the tiers — their counters, their family
// lists, their handlers — stays with them.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// StatusClientClosedRequest is the non-standard 499 status (nginx
// convention) for requests abandoned by the client before completion.
const StatusClientClosedRequest = 499

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	Class string `json:"class,omitempty"`
}

// WriteError renders the JSON error envelope. class names the
// containment.FailureClass of a failed execution ("canceled", "deadline",
// "storage", "corrupt", "internal") so clients and smoke tests can assert
// on the failure kind without parsing the message; plain request errors
// (400s and the like) pass "" and leave it out.
func WriteError(w http.ResponseWriter, status int, class, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...), Class: class}) //nolint:errcheck // best-effort error body
}

// WritePayload's fixed header values, assigned where Set would allocate:
// nothing mutates them, and Header.Add on a full slice copies it.
var jsonType, cacheHit, cacheMiss = []string{"application/json"}, []string{"hit"}, []string{"miss"}

// WritePayload sends a rendered JSON answer, marking its cache disposition
// in X-Cache. status is 200 for a complete answer (the router answers a
// degraded one 206).
func WritePayload(w http.ResponseWriter, status int, payload []byte, cached bool) {
	h := w.Header()
	h["Content-Type"], h["X-Cache"] = jsonType, cacheMiss
	if cached {
		h["X-Cache"] = cacheHit
	}
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	w.Write(payload) //nolint:errcheck // client gone; nothing to do
}

// WriteJSON sends v as an uncached JSON body — the introspection
// endpoints' answer, which stays out of the query latency window.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(MustJSON(v)) //nolint:errcheck // client gone; nothing to do
}

// MustJSON marshals a response struct; the structs served cannot fail.
func MustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}

// Healthz serves GET /healthz — pure liveness: the process is up and
// handling HTTP. Deliberately trivial; routing decisions belong to each
// tier's /readyz.
func Healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"status":"ok"}`)) //nolint:errcheck // best effort
}

// RequestContext derives the execution context of request r with parsed
// query q: the client's connection context (a disconnect cancels the work),
// bounded by limit and/or an explicit ?timeout= parameter, which is clamped
// to limit when one is configured (limit 0 means no server deadline). The
// returned cancel must always be called.
func RequestContext(r *http.Request, q url.Values, limit time.Duration) (context.Context, context.CancelFunc, error) {
	timeout := limit
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return nil, nil, fmt.Errorf("invalid timeout %q (want a positive Go duration, e.g. 500ms)", v)
		}
		if timeout == 0 || d < timeout {
			timeout = d
		}
	}
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		return ctx, cancel, nil
	}
	return r.Context(), func() {}, nil
}

// WantSpans reports whether parsed query q opts into span export
// (?spans=1). Such requests bypass the result cache in both directions:
// cached payloads are byte-identical across requests, so an embedded span
// tree would replay another request's execution under this trace ID.
func WantSpans(q url.Values) bool { return q.Get("spans") == "1" }

// Run serves h on addr until the process receives SIGINT or SIGTERM, then
// drains: drain runs first (the tier's Drain flips /readyz to 503 so
// probers stop routing here) and the listener shuts down, letting
// in-flight requests finish for up to grace. A drain that overruns grace
// is reported on standard error under name, not returned: the caller goes
// on to close what the handler used. The error is the listener's, when it
// failed before any signal.
func Run(name, addr string, h http.Handler, grace time.Duration, drain func()) error {
	srv := &http.Server{Addr: addr, Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: shutdown: %v\n", name, err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "%s: serve: %v\n", name, err)
	}
	return nil
}
