package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/qserv"
	"github.com/pbitree/pbitree/internal/serve"
	"github.com/pbitree/pbitree/internal/shard"
	"github.com/pbitree/pbitree/internal/telemetry"
	"github.com/pbitree/pbitree/internal/trace"
	"github.com/pbitree/pbitree/pbicode"
)

// This file merges per-node responses with the exact semantics
// shard.Engine applies in process — the randomized equivalence tests hold
// the two implementations to the same answers. Counts, I/O and predicted
// I/O sum across shards; algorithm names "+"-join in shard order
// (shard.MergeAlgo); path-match codes merge into global document order
// (containment.SortDocOrder); and the response WallTime is the fan-out envelope
// measured here, not the per-shard sum.

// writeError answers a request error (no failure class) and counts it.
func (rt *Router) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	rt.met.errors.Add(1)
	serve.WriteError(w, status, "", format, args...)
}

// writeUpstreamFailure maps a fan-out failure onto the router's status
// vocabulary: definitive node statuses forward verbatim, context failures
// become 504/499 with the failure class named, exactly as a node answers
// them, an exhausted shard becomes 503 with Retry-After, and anything else
// is a 502 (the router itself is fine; upstream was not).
func (rt *Router) writeUpstreamFailure(w http.ResponseWriter, what string, err error) {
	var se *statusError
	if errors.As(err, &se) {
		if se.status == http.StatusGatewayTimeout {
			rt.met.timeouts.Add(1)
		}
		rt.met.errors.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(se.status)
		w.Write(se.body) //nolint:errcheck // best-effort error body
		return
	}
	switch class := containment.Classify(err); class {
	case containment.FailDeadline:
		rt.met.timeouts.Add(1)
		rt.met.errors.Add(1)
		serve.WriteError(w, http.StatusGatewayTimeout, class.String(), "%s timed out: %v", what, err)
	case containment.FailCanceled:
		rt.met.canceled.Add(1)
		rt.met.errors.Add(1)
		serve.WriteError(w, serve.StatusClientClosedRequest, class.String(), "%s canceled by client", what)
	default:
		var ue *unavailableError
		if errors.As(err, &ue) {
			// Retry-After comes from the breaker state: the soonest any of the
			// shard's circuits will admit a request again, rounded up to whole
			// seconds (minimum 1 — the header has one-second granularity).
			secs := int64((ue.retryAfter + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
			rt.writeError(w, http.StatusServiceUnavailable, "%v", ue)
			return
		}
		rt.writeError(w, http.StatusBadGateway, "%s failed upstream: %v", what, err)
	}
}

// wantPartial decides whether this request may be answered degraded:
// ?partial=1 opts in, ?partial=0 opts out, and absent the parameter the
// router's -allow-partial default applies. Degraded answers are exact
// lower bounds (document-disjoint sharding: no shard can affect another's
// matches), but they are opt-in because a silent undercount is worse than
// an honest 503 for clients that need totals.
func (rt *Router) wantPartial(q url.Values) bool {
	switch q.Get("partial") {
	case "1":
		return true
	case "0":
		return false
	}
	return rt.cfg.AllowPartial
}

// writePayload sends a rendered JSON answer and records its latency.
// status is http.StatusOK for complete answers, http.StatusPartialContent
// for degraded ones.
func (rt *Router) writePayload(w http.ResponseWriter, status int, payload []byte, cached bool, start time.Time) {
	serve.WritePayload(w, status, payload, cached)
	rt.met.observe(time.Since(start))
}

// handleJoin serves GET /join?anc=TAG&desc=TAG[&algo=NAME] by fanning the
// join out to every shard group and merging the responses.
func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodGet {
		rt.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	anc, desc := q.Get("anc"), q.Get("desc")
	if anc == "" || desc == "" {
		rt.writeError(w, http.StatusBadRequest, "anc and desc query parameters are required")
		return
	}
	algoName := q.Get("algo")
	alg, ok := containment.ParseAlgorithm(algoName)
	if !ok {
		rt.writeError(w, http.StatusBadRequest, "unknown algorithm %q (accepted: %s)",
			algoName, strings.Join(containment.AlgorithmNames(), ", "))
		return
	}
	qctx, cancel, err := serve.RequestContext(r, q, rt.cfg.QueryTimeout)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	if err := qctx.Err(); err != nil {
		rt.writeUpstreamFailure(w, "join", err)
		return
	}
	traceID := w.Header().Get("X-Trace-Id")
	query := "//" + anc + "//" + desc
	spans := serve.WantSpans(q)
	// ?spans=1 bypasses the cache entirely (no lookup, no store), same rule
	// as the nodes (serve.WantSpans). A router without a cache builds no key.
	var key string
	cached := !spans && rt.cache != nil
	if cached {
		key = strconv.FormatInt(rt.epoch.Load(), 10) + "\x00join\x00" + anc + "\x00" + desc + "\x00" + strconv.Itoa(int(alg))
		if payload, ok := rt.cache.Get(key); ok {
			rt.writePayload(w, http.StatusOK, payload, true, start)
			rt.keepHit(traceID, "join", query, start)
			fillTelemetry(telemetry.FromContext(r.Context()), query, "", 0, 0, nil)
			return
		}
	}

	// Encoded once for every shard and attempt, in url.Values.Encode order.
	target := "/join?"
	if algoName != "" {
		target += "algo=" + url.QueryEscape(algoName) + "&"
	}
	target += "anc=" + url.QueryEscape(anc) + "&desc=" + url.QueryEscape(desc)
	if spans {
		target += "&spans=1"
	}
	fanStart := time.Now()
	replies, missing, ferr := rt.fanout(qctx, target, traceID, rt.wantPartial(q))
	fanWall := time.Since(fanStart)
	if ferr != nil {
		rt.writeUpstreamFailure(w, "join", ferr)
		return
	}
	mergeStart := time.Now()
	merged := qserv.JoinResponse{Anc: anc, Desc: desc}
	var subs [][]*trace.WireSpan // each shard's node spans, under ?spans=1
	if spans {
		subs = make([][]*trace.WireSpan, len(replies))
	}
	for si, rep := range replies {
		if rep.nd == nil { // shard skipped by degraded serving
			continue
		}
		var jr qserv.JoinResponse
		if err := json.Unmarshal(rep.body, &jr); err != nil {
			rt.writeError(w, http.StatusBadGateway,
				"join: shard %d (%s) returned an undecodable payload: %v", rep.nd.shard, rep.nd.url, err)
			return
		}
		merged.Count += jr.Count
		merged.FalseHits += jr.FalseHits
		merged.PageIO += jr.PageIO
		merged.SeqIO += jr.SeqIO
		merged.PredictedIO += jr.PredictedIO
		merged.VirtualUS += jr.VirtualUS
		merged.Algorithm = shard.MergeAlgo(merged.Algorithm, jr.Algorithm)
		if spans && jr.Spans != nil {
			subs[si] = []*trace.WireSpan{jr.Spans}
		}
	}
	// Shards ran concurrently: the envelope is the honest wall time, like
	// shard.Engine's merge (VirtualUS keeps the sum — aggregate I/O work).
	merged.WallUS = time.Since(start).Microseconds()
	status := http.StatusOK
	if len(missing) > 0 {
		merged.Partial = true
		merged.MissingShards = missing
		status = http.StatusPartialContent
		rt.met.partials.Add(1)
	}
	rec := telemetry.FromContext(r.Context())
	root := rt.keepTrace(&routedTrace{
		id: traceID, what: "join", query: query,
		wall: time.Since(start), fanWall: fanWall, mergeWall: time.Since(mergeStart),
		replies: replies, missing: missing, subs: subs,
	}, spans || rec != nil)
	fillTelemetry(rec, query, merged.Algorithm, merged.PageIO, merged.PredictedIO, root)
	if spans {
		merged.TraceID = traceID
		merged.Spans = root
	}
	payload := serve.MustJSON(merged)
	// Partial answers never enter the cache: stored payloads are always
	// complete, so a later full request cannot be served an undercount.
	if cached && len(missing) == 0 {
		rt.cache.Put(key, payload)
	}
	rt.writePayload(w, status, payload, false, start)
}

// handleQuery serves GET /query?path=//a//b//c: every shard node runs the
// whole chain on its document subset (exact, because a containment chain
// never leaves one document), and the router merges counts, per-step
// reports and the final match set. Nodes are asked for the router's own
// truncation budget (?limit=), so the merged first-K codes in global
// document order are exact even when a single shard holds more than K.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodGet {
		rt.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	expr := q.Get("path")
	if expr == "" {
		rt.writeError(w, http.StatusBadRequest, "path query parameter is required")
		return
	}
	qctx, cancel, err := serve.RequestContext(r, q, rt.cfg.QueryTimeout)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	if err := qctx.Err(); err != nil {
		rt.writeUpstreamFailure(w, "path query", err)
		return
	}
	traceID := w.Header().Get("X-Trace-Id")
	spans := serve.WantSpans(q)
	// Keyed by the path as sent, as at the nodes: a hit is never parsed.
	var key string
	cached := !spans && rt.cache != nil
	if cached {
		key = strconv.FormatInt(rt.epoch.Load(), 10) + "\x00path\x00" + expr
		if payload, ok := rt.cache.Get(key); ok {
			rt.writePayload(w, http.StatusOK, payload, true, start)
			rt.keepHit(traceID, "query", expr, start)
			fillTelemetry(telemetry.FromContext(r.Context()), expr, "", 0, 0, nil)
			return
		}
	}
	canon, _, err := qserv.CanonicalPath(expr)
	if err != nil {
		rt.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	target := "/query?limit=" + strconv.Itoa(rt.cfg.MaxCodes) + "&path=" + url.QueryEscape(canon)
	if spans {
		target += "&spans=1"
	}
	fanStart := time.Now()
	replies, missing, ferr := rt.fanout(qctx, target, traceID, rt.wantPartial(q))
	fanWall := time.Since(fanStart)
	if ferr != nil {
		rt.writeUpstreamFailure(w, "path query", ferr)
		return
	}
	mergeStart := time.Now()
	resp := qserv.QueryResponse{Path: canon}
	var codes []pbicode.Code
	var subs [][]*trace.WireSpan // each shard's node spans, under ?spans=1
	if spans {
		subs = make([][]*trace.WireSpan, len(replies))
	}
	for si, rep := range replies {
		if rep.nd == nil { // shard skipped by degraded serving
			continue
		}
		var qr qserv.QueryResponse
		if err := json.Unmarshal(rep.body, &qr); err != nil {
			rt.writeError(w, http.StatusBadGateway,
				"path query: shard %d (%s) returned an undecodable payload: %v", rep.nd.shard, rep.nd.url, err)
			return
		}
		resp.Count += qr.Count
		if codes == nil {
			// Shards are alike in size: room for every shard's list as long
			// as the first one's.
			codes = make([]pbicode.Code, 0, len(qr.Codes)*len(replies))
		}
		for _, c := range qr.Codes {
			codes = append(codes, pbicode.Code(c))
		}
		resp.PageIO += qr.PageIO
		resp.VirtualUS += qr.VirtualUS
		resp.Steps = shard.MergeSteps(resp.Steps, qr.Steps)
		if spans {
			subs[si] = qr.Spans
		}
	}
	// Each node returned its shard's first MaxCodes matches in document
	// order; the global first MaxCodes are a subset of their union.
	containment.SortDocOrder(codes)
	n := len(codes)
	if n > rt.cfg.MaxCodes {
		n = rt.cfg.MaxCodes
	}
	resp.Truncated = resp.Count > n
	resp.Codes = make([]uint64, n)
	for i := 0; i < n; i++ {
		resp.Codes[i] = uint64(codes[i])
	}
	resp.WallUS = time.Since(start).Microseconds()
	status := http.StatusOK
	if len(missing) > 0 {
		resp.Partial = true
		resp.MissingShards = missing
		status = http.StatusPartialContent
		rt.met.partials.Add(1)
	}
	rec := telemetry.FromContext(r.Context())
	root := rt.keepTrace(&routedTrace{
		id: traceID, what: "query", query: canon,
		wall: time.Since(start), fanWall: fanWall, mergeWall: time.Since(mergeStart),
		replies: replies, missing: missing, subs: subs,
	}, spans || rec != nil)
	if rec != nil {
		var alg string
		for _, st := range resp.Steps {
			alg = shard.MergeAlgo(alg, st.Algorithm)
		}
		fillTelemetry(rec, canon, alg, resp.PageIO, root.PredictedIO, root)
	}
	if spans {
		resp.TraceID = traceID
		resp.Spans = []*trace.WireSpan{root}
	}
	payload := serve.MustJSON(resp)
	// Partial answers never enter the cache (see handleJoin).
	if cached && len(missing) == 0 {
		rt.cache.Put(key, payload)
	}
	rt.writePayload(w, status, payload, false, start)
}

// handleRelations serves GET /relations: the union catalog, with element
// and page counts summed across shards — the same view shard.Engine's
// sharded relations present in process.
func (rt *Router) handleRelations(w http.ResponseWriter, r *http.Request) {
	// The catalog is metadata, not a query: a partial union would misstate
	// the corpus, so /relations never serves degraded.
	replies, _, err := rt.fanout(r.Context(), "/relations", w.Header().Get("X-Trace-Id"), false)
	if err != nil {
		rt.writeUpstreamFailure(w, "relations", err)
		return
	}
	type acc struct {
		info qserv.RelationInfo
		seen bool
	}
	merged := map[string]*acc{}
	for _, rep := range replies {
		var rels []qserv.RelationInfo
		if err := json.Unmarshal(rep.body, &rels); err != nil {
			rt.writeError(w, http.StatusBadGateway,
				"relations: shard %d (%s) returned an undecodable payload: %v", rep.nd.shard, rep.nd.url, err)
			return
		}
		for _, ri := range rels {
			a := merged[ri.Name]
			if a == nil {
				a = &acc{}
				merged[ri.Name] = a
			}
			if !a.seen {
				a.info = ri
				a.seen = true
				continue
			}
			a.info.Elements += ri.Elements
			a.info.Pages += ri.Pages
			a.info.Ordered = a.info.Ordered && ri.Ordered
		}
	}
	out := make([]qserv.RelationInfo, 0, len(merged))
	for _, a := range merged {
		out = append(out, a.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	serve.WriteJSON(w, out)
}

// handleReadyz serves GET /readyz: the router can answer queries only
// when every shard group has at least one healthy replica (and it is not
// draining) — a partial fleet cannot produce exact merged answers.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if rt.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"status":"draining"}`)) //nolint:errcheck // best effort
		return
	}
	for si, group := range rt.shards {
		ok := false
		for _, nd := range group {
			if nd.healthy.Load() {
				ok = true
				break
			}
		}
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"status":"shard %d has no healthy replica"}`, si)
			return
		}
	}
	w.Write([]byte(`{"status":"ready"}`)) //nolint:errcheck // best effort
}
