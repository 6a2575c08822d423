package qserv

import (
	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/shard"
	"github.com/pbitree/pbitree/internal/telemetry"
	"github.com/pbitree/pbitree/internal/trace"
)

// This file is the node's half of the query-telemetry sidecar
// (internal/telemetry): which requests are recorded, what the handlers
// fill into a request's record, and the fields the node stamps on it. The
// serve middleware threads the record and emits it.

// recordedEndpoint reports whether path produces telemetry records —
// queries and ingest batches; introspection endpoints stay out of the
// sidecar.
func recordedEndpoint(path string) bool {
	return path == "/join" || path == "/query" || path == "/ingest"
}

// fillTelemetry folds executed joins into a request's record: summed I/O
// and prediction, flattened self-attributed phases, and — when the sidecar
// may keep span trees (slow-query capture armed) or the caller already
// built them — the wire spans themselves.
func fillTelemetry(rec *telemetry.Record, analyses []*containment.Analysis, spans []*trace.WireSpan) {
	for _, an := range analyses {
		if an == nil {
			continue
		}
		if res := an.Result; res != nil {
			rec.Algorithm = shard.MergeAlgo(rec.Algorithm, res.Algorithm)
			rec.PageIO += res.IO.Total()
			rec.PredictedIO += res.PredictedIO
		}
		for _, p := range an.Phases {
			rec.Phases = append(rec.Phases, telemetry.Phase{
				Name:      p.Name,
				Detail:    p.Detail,
				Depth:     p.Depth,
				SelfUS:    p.Wall.Microseconds(),
				Reads:     p.Reads,
				Writes:    p.Writes,
				VirtualUS: p.VirtualIO.Microseconds(),
				Pairs:     p.Pairs,
			})
		}
	}
	rec.Spans = spans
}

// stampTelemetry names the ingest epoch current as a record is emitted, so
// latency or I/O shifts correlate with epoch swaps and compactions.
func (s *Server) stampTelemetry(rec *telemetry.Record) {
	if s.ing != nil {
		rec.Epoch, _ = s.ing.current()
	}
}
