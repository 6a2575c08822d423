package qserv

import (
	"net/http"
	"net/url"
	"strings"

	"github.com/pbitree/pbitree/containment"
	"github.com/pbitree/pbitree/internal/serve"
)

// This file implements GET /debug/trace: run one query uncached with
// EXPLAIN ANALYZE and return the span tree(s) as JSON — the serving-side
// window into the same per-phase breakdown pbijoin -analyze prints.
//
//	/debug/trace?anc=TAG&desc=TAG[&algo=NAME]   one containment join
//	/debug/trace?query=//a//b//c                a path query (one tree per step)
//
// The request always executes (the result cache is bypassed): a trace of a
// cache hit would be empty, and the endpoint exists to observe execution.

// traceSpanSet is one traced join within a /debug/trace response.
type traceSpanSet struct {
	Anc         string                `json:"anc,omitempty"`
	Desc        string                `json:"desc,omitempty"`
	Algorithm   string                `json:"algorithm"`
	Count       int64                 `json:"count"`
	PageIO      int64                 `json:"page_io"`
	PredictedIO int64                 `json:"predicted_io"`
	VirtualUS   int64                 `json:"virtual_us"`
	WallUS      int64                 `json:"wall_us"`
	Spans       *containment.SpanNode `json:"spans"`
}

// traceResponse is the /debug/trace payload.
type traceResponse struct {
	TraceID string         `json:"trace_id"`
	Query   string         `json:"query"`
	Joins   []traceSpanSet `json:"joins"`
}

// handleDebugTraceID serves GET /debug/trace/{id}: look a recent query's
// trace up by its trace ID in the bounded in-memory ring. Every executed
// /join, /query, and /debug/trace request deposits its span tree there, so
// a client holding an X-Trace-Id (or a ?spans=1 response) can retrieve the
// full per-phase execution after the fact. 404 when the ID was never seen
// or has been evicted.
func (s *Server) handleDebugTraceID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if id == "" {
		s.handleDebugTrace(w, r)
		return
	}
	rec := s.traces.Get(id)
	if rec == nil {
		s.writeError(w, http.StatusNotFound, "no retained trace %q (evicted or never recorded)", id)
		return
	}
	serve.WriteJSON(w, rec)
}

// handleDebugTrace serves GET /debug/trace.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	anc, desc, expr := q.Get("anc"), q.Get("desc"), q.Get("query")
	switch {
	case expr != "":
		s.traceQuery(w, r, q, expr)
	case anc != "" && desc != "":
		s.traceJoin(w, r, q, anc, desc)
	default:
		s.writeError(w, http.StatusBadRequest, "pass anc+desc (a join) or query (a path expression)")
	}
}

// spanSet converts one analysis into its response form.
func spanSet(anc, desc string, an *containment.Analysis) traceSpanSet {
	res := an.Result
	return traceSpanSet{
		Anc: anc, Desc: desc,
		Algorithm:   res.Algorithm,
		Count:       res.Count,
		PageIO:      res.IO.Total(),
		PredictedIO: res.PredictedIO,
		VirtualUS:   res.IO.VirtualTime.Microseconds(),
		WallUS:      res.IO.WallTime.Microseconds(),
		Spans:       an.SpanTree(),
	}
}

// traceJoin analyzes one containment join and returns its span tree.
func (s *Server) traceJoin(w http.ResponseWriter, r *http.Request, q url.Values, anc, desc string) {
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
	wk, release, err := s.acquire(qctx)
	if err != nil {
		if err == errSaturated {
			s.overloaded(w)
		} else {
			s.writeFailure(w, "trace", err)
		}
		return
	}
	recycle := false
	defer func() { release(recycle) }()
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
	if err != nil {
		recycle = s.finishJoinError(w, "trace", err)
		return
	}
	s.met.recordJoin(an.Result)
	s.met.recordPhases(an.Result.Algorithm, an.Phases, traceID)
	s.keepTrace(traceID, "//"+anc+"//"+desc, false, an)
	serve.WriteJSON(w, traceResponse{
		TraceID: w.Header().Get("X-Trace-Id"),
		Query:   "//" + anc + "//" + desc,
		Joins:   []traceSpanSet{spanSet(anc, desc, an)},
	})
}

// traceQuery analyzes a descendant-axis path query, one span tree per join
// step.
func (s *Server) traceQuery(w http.ResponseWriter, r *http.Request, q url.Values, expr string) {
	canon, tags, err := CanonicalPath(expr)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	qctx, cancel, err := serve.RequestContext(r, q, s.cfg.QueryTimeout)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	wk, release, err := s.acquire(qctx)
	if err != nil {
		if err == errSaturated {
			s.overloaded(w)
		} else {
			s.writeFailure(w, "trace", err)
		}
		return
	}
	recycle := false
	defer func() { release(recycle) }()
	var stepInfo []PathStep
	var analyses []*containment.Analysis
	err = s.guard(func() error {
		var jerr error
		_, stepInfo, analyses, jerr = wk.evalPath(qctx, tags)
		if rerr := wk.releaseTemp(); rerr != nil && jerr == nil {
			jerr = rerr
		}
		return jerr
	})
	if err != nil {
		recycle = s.finishJoinError(w, "trace", err)
		return
	}
	resp := traceResponse{TraceID: w.Header().Get("X-Trace-Id"), Query: canon}
	for i, an := range analyses {
		s.met.recordJoin(an.Result)
		s.met.recordPhases(an.Result.Algorithm, an.Phases, resp.TraceID)
		// The analyses are the steps that ran, a prefix of the chain: one
		// per step on sharded workers too, each shard's tree under it.
		resp.Joins = append(resp.Joins, spanSet(stepInfo[i].Anc, stepInfo[i].Desc, an))
	}
	s.keepTrace(resp.TraceID, canon, false, analyses...)
	serve.WriteJSON(w, resp)
}
