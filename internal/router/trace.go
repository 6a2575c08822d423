package router

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/pbitree/pbitree/internal/serve"
	"github.com/pbitree/pbitree/internal/telemetry"
	"github.com/pbitree/pbitree/internal/trace"
)

// This file is the router's half of distributed trace assembly. Each node
// serializes its span tree into the response envelope behind ?spans=1
// (qserv's wire format, internal/trace.WireSpan); the router requests it
// on fan-out when the client opted in, and stitches the per-node fragments
// under its own root span — fanout, per-node (with hedge/failover
// disposition), and merge children — into one trace keyed by the request's
// trace ID. Stitched traces land in a bounded ring served by
// GET /debug/trace/{id}, and feed the telemetry sidecar's slow-query
// capture.

// nodeSpan wraps one node reply's span tree(s) in a per-node wire span:
// the child the router's fanout span hangs each shard's subtree off. Its
// wall is the router-observed call latency (network included), its Node is
// the replica that answered, and its detail records the shard index plus
// how the reply was obtained (hedged, served from the node's cache).
func nodeSpan(rep nodeReply, sub ...*trace.WireSpan) *trace.WireSpan {
	detail := fmt.Sprintf("shard=%d", rep.nd.shard)
	if rep.hedged {
		detail += " hedged"
	}
	if rep.cache == "hit" {
		detail += " cache=hit"
	}
	ws := trace.StitchWire("node", detail, rep.latency, sub...)
	ws.Node = rep.nd.url
	return ws
}

// missingSpan stands in for a shard skipped by degraded (partial) serving,
// so a 206's stitched trace shows exactly which subtrees are absent.
func missingSpan(shard int) *trace.WireSpan {
	return &trace.WireSpan{Name: "node", Detail: fmt.Sprintf("shard=%d missing", shard)}
}

// stitch assembles the router's root span for one fanned-out request:
//
//	<what> @router
//	├── fanout            envelope of the concurrent shard calls
//	│   ├── node @url     one per shard reply, node subtree(s) below
//	│   └── ...
//	└── merge             response-merge time on the router
//
// Counters and PredictedIO sum upward (trace.StitchWire), so the root
// carries the whole distributed execution's page I/O and cost-model
// estimate; walls stay envelopes because the children ran concurrently.
func stitch(what string, wall, fanWall, mergeWall time.Duration, kids []*trace.WireSpan) *trace.WireSpan {
	fan := trace.StitchWire("fanout", fmt.Sprintf("shards=%d", len(kids)), fanWall, kids...)
	merge := &trace.WireSpan{Name: "merge", WallNS: mergeWall.Nanoseconds()}
	root := trace.StitchWire(what, "routed", wall, fan, merge)
	root.Node = "router"
	return root
}

// cacheHitSpan is the stitched trace of a router-cache hit: no fan-out
// happened, the whole request was one cache lookup.
func cacheHitSpan(what string, wall time.Duration) *trace.WireSpan {
	root := trace.StitchWire(what, "routed", wall,
		&trace.WireSpan{Name: "cache", Detail: "hit", WallNS: wall.Nanoseconds()})
	root.Node = "router"
	return root
}

// routedTrace is one routed request's trace as the ring keeps it: the
// router's own timings and the fan-out's replies — per shard, the node
// that answered, whether that call was a hedge, the node's cache
// disposition and the call's latency. GET /debug/trace/{id} stitches it
// into the wire shape when it reads the entry.
type routedTrace struct {
	id, what, query string
	at              time.Time
	wall            time.Duration
	// hit marks a router-cache hit: no fan-out ran, and the fields below
	// are zero.
	hit                bool
	fanWall, mergeWall time.Duration
	// replies is indexed by shard, with their bodies dropped; a shard
	// skipped by degraded serving has no node and is listed in missing.
	replies []nodeReply
	missing []int
	// subs, set only under ?spans=1, holds each shard's node span trees
	// (indexed like replies), hung under that shard's node span.
	subs [][]*trace.WireSpan
}

func (t *routedTrace) ID() string { return t.id }

func (t *routedTrace) Record() *trace.Record {
	return &trace.Record{
		TraceID: t.id,
		TS:      t.at.UTC().Format(time.RFC3339Nano),
		Node:    "router",
		Query:   t.query,
		Spans:   []*trace.WireSpan{t.root()},
	}
}

// root stitches the trace's root span.
func (t *routedTrace) root() *trace.WireSpan {
	if t.hit {
		return cacheHitSpan(t.what, t.wall)
	}
	kids := make([]*trace.WireSpan, 0, len(t.replies))
	for si, rep := range t.replies {
		if rep.nd == nil {
			continue
		}
		var sub []*trace.WireSpan
		if t.subs != nil {
			sub = t.subs[si]
		}
		kids = append(kids, nodeSpan(rep, sub...))
	}
	for _, si := range t.missing {
		kids = append(kids, missingSpan(si))
	}
	return stitch(t.what, t.wall, t.fanWall, t.mergeWall, kids)
}

// keepTrace stores one routed request's trace in the ring under its trace
// ID; the ring stitches it when read. The replies' bodies are dropped, as
// the trace keeps no payload. With render set the stitched root is also
// built now and returned, for a request that asked for spans or whose
// telemetry record (nil when telemetry is off) is filled from the tree;
// otherwise keepTrace returns nil.
func (rt *Router) keepTrace(t *routedTrace, render bool) *trace.WireSpan {
	t.at = time.Now()
	for i := range t.replies {
		t.replies[i].body = nil
	}
	rt.traces.Put(t)
	if !render {
		return nil
	}
	return t.root()
}

// keepHit stores the trace of a router-cache hit, which no telemetry
// record is filled from.
func (rt *Router) keepHit(traceID, what, query string, start time.Time) {
	rt.keepTrace(&routedTrace{id: traceID, what: what, query: query, wall: time.Since(start), hit: true}, false)
}

// handleDebugTraceID serves GET /debug/trace/{id}: the stitched multi-node
// trace of a recent routed query. 404 when the ID was never seen or has
// been evicted from the ring. Unlike the nodes' endpoint there is no
// execute-a-trace form — the router does not run queries itself.
func (rt *Router) handleDebugTraceID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		rt.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if id == "" {
		rt.writeError(w, http.StatusBadRequest, "trace ID required (GET /debug/trace/{id})")
		return
	}
	rec := rt.traces.Get(id)
	if rec == nil {
		rt.writeError(w, http.StatusNotFound, "no retained trace %q (evicted or never recorded)", id)
		return
	}
	serve.WriteJSON(w, rec)
}

// recordedEndpoint reports whether path produces telemetry records —
// routed queries only.
func recordedEndpoint(path string) bool {
	return path == "/join" || path == "/query"
}

// fillTelemetry folds one merged request into its telemetry record (nil
// when telemetry is off). Phases flatten the router-level spans plus each
// node's root (depth ≤ 2) — the per-node breakdown lives in the node's own
// telemetry; the router's record keeps the cross-node shape compact.
func fillTelemetry(rec *telemetry.Record, query, algorithm string, pageIO, predictedIO int64, root *trace.WireSpan) {
	if rec == nil {
		return
	}
	rec.Query = query
	rec.Algorithm = algorithm
	rec.PageIO = pageIO
	rec.PredictedIO = predictedIO
	if root == nil {
		return
	}
	rec.Spans = []*trace.WireSpan{root}
	root.Walk(func(ws *trace.WireSpan, depth int) {
		if depth > 2 {
			return
		}
		detail := ws.Detail
		if ws.Node != "" && depth > 0 {
			detail = strings.TrimSpace(detail + " " + ws.Node)
		}
		rec.Phases = append(rec.Phases, telemetry.Phase{
			Name:      ws.Name,
			Detail:    detail,
			Depth:     depth,
			SelfUS:    ws.SelfWallNS() / 1e3,
			Reads:     ws.Reads,
			Writes:    ws.Writes,
			VirtualUS: ws.VirtualNS / 1e3,
			Pairs:     ws.Pairs,
		})
	})
}
