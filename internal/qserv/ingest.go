package qserv

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/pbitree/pbitree/internal/ingest"
	"github.com/pbitree/pbitree/internal/serve"
	"github.com/pbitree/pbitree/internal/telemetry"
)

// This file is the serving tier's side of the live ingest subsystem
// (internal/ingest): the write endpoints, epoch-following workers, and
// epoch-keyed result caching.
//
// The store publishes immutable epochs; this server follows them without
// ever blocking a query on a write. Publication only updates the adopted
// (epoch, path) pair under a small mutex; each pool worker keeps serving
// the epoch it was opened against until acquire borrows it, notices the
// stale stamp and moves it onto the current epoch: its engine advances over
// the deltas published since, keeping its warm buffer pool, or — after a
// compaction, which brings a new base — is swapped for a fresh engine over
// the current epoch's database. Queries that raced the swap still get a
// correct answer — just against the previous epoch, which the X-Epoch
// response header names.
// The result cache needs no flush: keys are epoch-prefixed, so a new
// epoch's queries miss cleanly and retired epochs' entries age out of the
// LRU on their own.

// maxIngestBody bounds a POST /ingest request body.
const maxIngestBody = 16 << 20

// ingestState is the server's view of the attached ingest store.
type ingestState struct {
	store *ingest.Store
	// gate bounds ingest requests in flight; admission control separate
	// from the query pool, so a slow writer cannot starve reads and a
	// read burst cannot starve the writer.
	gate chan struct{}

	mu    sync.Mutex
	epoch int64
	path  string

	requests atomic.Int64 // batches applied and published
	rejected atomic.Int64 // shed with 503 (backlog full or draining)
	failed   atomic.Int64 // batches rejected or rolled back
	swaps    atomic.Int64 // stale workers swapped to a newer epoch
}

// current is the adopted (epoch, database path) pair.
func (ig *ingestState) current() (int64, string) {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	return ig.epoch, ig.path
}

// adopt is the store's publish hook: every commit or compaction lands
// here, and the next acquire of each worker swaps it over. An epoch no
// newer than the adopted one is ignored, so the serving epoch never moves
// backwards.
func (ig *ingestState) adopt(epoch int64, path string) {
	ig.mu.Lock()
	if epoch > ig.epoch {
		ig.epoch, ig.path = epoch, path
	}
	ig.mu.Unlock()
}

// freshen moves a stale worker onto the current epoch: its engine advances
// when the epoch extends its chain (containment.Engine.Advance), and is
// swapped for one opened against the current epoch otherwise, which
// inherits the stale engine's resident pages it still reads. Called by
// acquire with exclusive ownership of wk. On open failure the stale worker
// keeps serving — availability beats freshness; the swap is retried on its
// next acquire.
func (s *Server) freshen(wk worker) worker {
	cur, path := s.ing.current()
	if wk.epoch() == cur {
		return wk
	}
	if solo, ok := wk.(*soloWorker); ok {
		if rels, err := solo.eng.Advance(path); err == nil {
			solo.rels, solo.ep = rels, cur
			s.ing.swaps.Add(1)
			return wk
		}
	}
	fresh, err := s.openWorker()
	if err != nil {
		return wk
	}
	// Across a compaction the relations keep their bytes at new page IDs:
	// the fresh engine starts with what the stale one had resident.
	if a, ok := wk.(*soloWorker); ok {
		if b, ok := fresh.(*soloWorker); ok {
			b.eng.Inherit(a.eng)
		}
	}
	s.poolMu.Lock()
	for i, w := range s.all {
		if w == wk {
			s.all[i] = fresh
			break
		}
	}
	s.poolMu.Unlock()
	wk.close() //nolint:errcheck // stale engine being discarded
	s.ing.swaps.Add(1)
	return fresh
}

// servingEpoch is the adopted epoch a cache lookup is keyed by (0 without
// an ingest store). An answer is stored under the borrowed worker's epoch
// instead, which a concurrent publish may have moved past.
func (s *Server) servingEpoch() int64 {
	if s.ing == nil {
		return 0
	}
	epoch, _ := s.ing.current()
	return epoch
}

// stampEpoch names the answering epoch on the response; ingest-serving
// only, so plain servers keep their exact header surface.
func (s *Server) stampEpoch(w http.ResponseWriter, epoch int64) {
	if s.ing != nil {
		w.Header().Set("X-Epoch", strconv.FormatInt(epoch, 10))
	}
}

// IngestRequest is the POST /ingest body.
type IngestRequest struct {
	Ops []ingest.Op `json:"ops"`
}

// handleIngest serves POST /ingest: one atomic batch per request, applied
// through the store's single writer and answered with the published
// epoch (the ingest.CommitResult wire shape).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Drain-aware: a draining server stops accepting writes so the epoch
	// family is quiescent by the time Shutdown returns.
	if s.draining.Load() {
		s.ing.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, "server draining; ingest closed")
		return
	}
	select {
	case s.ing.gate <- struct{}{}:
	default:
		s.ing.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable,
			"ingest backlog full: %d batches in flight", cap(s.ing.gate))
		return
	}
	defer func() { <-s.ing.gate }()

	var req IngestRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody)).Decode(&req); err != nil {
		s.ing.failed.Add(1)
		s.writeError(w, http.StatusBadRequest, "bad ingest body: %v", err)
		return
	}
	if len(req.Ops) == 0 {
		s.ing.failed.Add(1)
		s.writeError(w, http.StatusBadRequest, "ingest body needs a non-empty ops array")
		return
	}
	if rec := telemetry.FromContext(r.Context()); rec != nil {
		rec.Query = fmt.Sprintf("ingest:%d ops", len(req.Ops))
	}
	res, err := s.ing.store.Apply(req.Ops)
	if err != nil {
		var be *ingest.BatchError
		if errors.As(err, &be) {
			// The batch was invalid and the store rolled it back; nothing
			// was published. A client problem, not a server one.
			s.ing.failed.Add(1)
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.ing.failed.Add(1)
		s.writeError(w, http.StatusInternalServerError, "ingest failed: %v", err)
		return
	}
	s.ing.requests.Add(1)
	s.stampEpoch(w, res.Epoch)
	serve.WriteJSON(w, res)
}

// EpochsResponse is the GET /epochs payload.
type EpochsResponse struct {
	Current int64 `json:"current"`
	// Path is the current epoch's database (page file) path.
	Path string `json:"path"`
	// Epochs lists the published manifest entries, oldest first (retired
	// epochs past the store's Keep horizon have been garbage-collected).
	Epochs []ingest.EpochEntry `json:"epochs"`
	// Stats is the store's counter snapshot (commits, renumbers,
	// compactions, ...).
	Stats ingest.Stats `json:"stats"`
	// WorkerSwaps counts pool workers swapped to a newer epoch.
	WorkerSwaps int64 `json:"worker_swaps"`
}

// handleEpochs serves GET /epochs.
func (s *Server) handleEpochs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	epoch, path := s.ing.store.CurrentEpoch()
	resp := EpochsResponse{
		Current:     epoch,
		Path:        path,
		Epochs:      s.ing.store.Epochs(),
		Stats:       s.ing.store.Stats(),
		WorkerSwaps: s.ing.swaps.Load(),
	}
	serve.WriteJSON(w, resp)
}

// ingestStatsBlock is the /stats ingest block: the store's own snapshot
// plus the serving-side admission and swap counters.
type ingestStatsBlock struct {
	ingest.Stats
	Backlog     int   `json:"backlog"`
	BacklogCap  int   `json:"backlog_cap"`
	Requests    int64 `json:"requests"`
	Rejected    int64 `json:"rejected"`
	Failed      int64 `json:"failed"`
	WorkerSwaps int64 `json:"worker_swaps"`
}

// ingestSnapshot builds the /stats ingest block, nil without a store.
func (s *Server) ingestSnapshot() *ingestStatsBlock {
	if s.ing == nil {
		return nil
	}
	return &ingestStatsBlock{
		Stats:       s.ing.store.Stats(),
		Backlog:     len(s.ing.gate),
		BacklogCap:  cap(s.ing.gate),
		Requests:    s.ing.requests.Load(),
		Rejected:    s.ing.rejected.Load(),
		Failed:      s.ing.failed.Load(),
		WorkerSwaps: s.ing.swaps.Load(),
	}
}
