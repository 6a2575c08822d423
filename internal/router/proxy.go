package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/pbitree/pbitree/containment"
)

// This file is the per-shard call machinery: pick a replica, propagate
// the deadline and trace ID, hedge against stragglers, fail over across
// replicas on retryable failures, and classify what's left when every
// replica is exhausted. The cross-shard fan-out at the bottom mirrors
// shard.Engine.runShards: first real error cancels the siblings, and
// knock-on cancellations never mask the failure that caused them.

// nodeReply is one node call's outcome.
type nodeReply struct {
	nd      *node
	status  int    // HTTP status; 0 on transport error
	body    []byte // response body (responses are small rendered JSON)
	cache   string // X-Cache response header
	err     error  // transport-level error
	hedged  bool   // this call was a hedge (secondary) fire
	latency time.Duration
}

// retryable reports whether another replica might answer where this one
// failed: transport errors and the statuses that mean "this node, right
// now" (500 internal, 502, 503 shedding) — as opposed to statuses that are
// a property of the request itself (400, 404) or of the shared deadline
// (504), which every replica would reproduce.
func (r nodeReply) retryable() bool {
	if r.err != nil {
		return true
	}
	switch r.status {
	case http.StatusInternalServerError, http.StatusBadGateway, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// statusError carries a definitive non-200 node response up through the
// fan-out so the router can forward it verbatim (the node's JSON error
// vocabulary is the router's own).
type statusError struct {
	status int
	body   []byte
}

func (e *statusError) Error() string {
	return fmt.Sprintf("node answered %d: %s", e.status, e.body)
}

// unavailableError reports a shard with no replica able to answer — the
// router's 503. retryAfter is the soonest a retry could plausibly go
// differently: the smallest remaining breaker open-interval among the
// shard's replicas, or the probe interval when no breaker is open (the
// prober is the next thing that could change the fleet view). It becomes
// the response's Retry-After header.
type unavailableError struct {
	shard      int
	last       string // last failure seen, for the error body
	retryAfter time.Duration
}

func (e *unavailableError) Error() string {
	return fmt.Sprintf("shard %d unavailable: %s", e.shard, e.last)
}

// retryAfterHint derives an unavailableError's retryAfter from the
// candidates' breaker state.
func (rt *Router) retryAfterHint(cands []*node) time.Duration {
	now := time.Now()
	var min time.Duration
	for _, nd := range cands {
		if rem := nd.br.remaining(now); rem > 0 && (min == 0 || rem < min) {
			min = rem
		}
	}
	if min == 0 {
		if rt.cfg.ProbeInterval > 0 {
			return rt.cfg.ProbeInterval
		}
		return time.Second
	}
	return min
}

// callNode issues one GET for target (path and encoded query) to a node,
// propagating the trace ID and the remaining deadline budget (via the
// node's ?timeout= clamp).
func (rt *Router) callNode(ctx context.Context, nd *node, target, traceID string, hedged bool) nodeReply {
	nd.requests.Add(1)
	if hedged {
		nd.hedges.Add(1)
	}
	u := nd.url + target
	if deadline, ok := ctx.Deadline(); ok {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nodeReply{nd: nd, err: context.DeadlineExceeded, hedged: hedged}
		}
		sep := "&"
		if !strings.Contains(target, "?") {
			sep = "?"
		}
		u += sep + "timeout=" + url.QueryEscape(remaining.Round(time.Microsecond).String())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nodeReply{nd: nd, err: err, hedged: hedged}
	}
	req.Header.Set("X-Trace-Id", traceID)
	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		nd.failures.Add(1)
		return nodeReply{nd: nd, err: err, hedged: hedged, latency: time.Since(start)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		// Died mid-stream: the connection broke after the status line.
		nd.failures.Add(1)
		return nodeReply{nd: nd, err: fmt.Errorf("read body: %w", err), hedged: hedged, latency: lat}
	}
	r := nodeReply{
		nd: nd, status: resp.StatusCode, body: body,
		cache: resp.Header.Get("X-Cache"), hedged: hedged, latency: lat,
	}
	if r.status == http.StatusOK {
		if r.cache == "hit" {
			nd.upstreamHits.Add(1)
		}
		nd.lat.Observe(lat, "")
	} else if r.retryable() {
		nd.failures.Add(1)
	}
	return r
}

// callShard answers one request for one shard: primary call on the best
// candidate whose circuit breaker admits it, a hedge fire if the primary
// outlives the hedging delay, and budgeted, backoff-paced failover across
// the remaining candidates on retryable failures. Each replica is tried at
// most once; replicas whose breaker is open are skipped outright. Every
// failover retry must win a token from the shared retry budget and then
// waits out a jittered exponential backoff, so a shard-wide brownout
// produces a bounded, spread-out trickle of retries instead of a storm.
// The first definitive response wins and cancels the others. On exhaustion
// the error is an *unavailableError carrying a breaker-derived Retry-After
// hint (or the ctx error when the caller's context died).
func (rt *Router) callShard(ctx context.Context, si int, target, traceID string) (nodeReply, error) {
	var buf [8]*node
	cands := rt.candidates(si, buf[:])
	actx, acancel := context.WithCancel(ctx)
	defer acancel()

	results := make(chan nodeReply, len(cands)) // buffered: losers never block
	inflight, next := 0, 0
	// launch starts the next candidate whose breaker admits a request and
	// reports whether one was started (false: every remaining candidate's
	// circuit is open).
	launch := func(hedged bool) bool {
		for next < len(cands) {
			nd := cands[next]
			next++
			if !nd.br.allow(time.Now()) {
				rt.met.breakerDenials.Add(1)
				continue
			}
			inflight++
			go func() {
				results <- rt.callNode(actx, nd, target, traceID, hedged)
			}()
			return true
		}
		return false
	}
	if !launch(false) {
		return nodeReply{}, &unavailableError{
			shard: si, last: "all replicas' circuit breakers open",
			retryAfter: rt.retryAfterHint(cands),
		}
	}

	var hedgeC <-chan time.Time
	if delay := rt.hedgeDelay(cands[0]); delay >= 0 && next < len(cands) {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		hedgeC = timer.C
	}

	// backoffC is armed between a retryable failure and the failover it
	// pays for; the loop keeps running while it pends even with nothing in
	// flight.
	var backoffTimer *time.Timer
	defer func() {
		if backoffTimer != nil {
			backoffTimer.Stop()
		}
	}()
	var backoffC <-chan time.Time
	attempt := 0
	budgetDenied := false

	var last nodeReply
	for inflight > 0 || backoffC != nil {
		select {
		case r := <-results:
			inflight--
			if r.err == nil && !r.retryable() {
				r.nd.br.success() // any definitive answer closes the circuit
				acancel()         // first definitive answer wins; cancel the loser
				if r.hedged {
					rt.met.hedgeWins.Add(1)
				}
				return r, nil
			}
			// Retryable failure. A canceled attempt after a sibling already
			// won can't reach here (the win returns immediately), so this is
			// a real failure unless the caller's own context died.
			if ctx.Err() != nil {
				return nodeReply{}, ctx.Err()
			}
			last = r
			if r.err == nil || !errors.Is(r.err, context.Canceled) {
				r.nd.br.failure(time.Now())
			}
			if r.err != nil && !errors.Is(r.err, context.Canceled) {
				rt.demoteNow(r.nd, fmt.Sprintf("request: %v", r.err))
			} else if r.status != 0 {
				r.nd.noteError(fmt.Sprintf("request: node answered %d", r.status))
			}
			// Schedule a failover — if candidates remain, none is already
			// pending, and the shared retry budget admits one more retry.
			if next < len(cands) && backoffC == nil && !budgetDenied {
				if !rt.budget.take(time.Now()) {
					rt.met.budgetDenials.Add(1)
					budgetDenied = true
					continue
				}
				rt.met.failovers.Add(1)
				if delay := backoffDelay(rt.cfg.RetryBackoff, rt.cfg.RetryBackoffMax, attempt); delay > 0 {
					attempt++
					backoffTimer = time.NewTimer(delay)
					backoffC = backoffTimer.C
				} else {
					attempt++
					launch(false)
				}
			}
		case <-backoffC:
			backoffC = nil
			launch(false)
		case <-hedgeC:
			hedgeC = nil
			if next < len(cands) {
				rt.met.hedgeFires.Add(1)
				launch(true)
			}
		case <-ctx.Done():
			// Caller gone or deadline passed: abandon the shard. The
			// buffered channel lets in-flight goroutines finish and exit.
			return nodeReply{}, ctx.Err()
		}
	}
	detail := failureDetail(last)
	if budgetDenied {
		detail = "retry budget exhausted: " + detail
	}
	return nodeReply{}, &unavailableError{
		shard: si, last: detail, retryAfter: rt.retryAfterHint(cands),
	}
}

// failureDetail renders the last failure of an exhausted shard.
func failureDetail(r nodeReply) string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case r.status != 0:
		msg := decodeError(r.body)
		if msg == "" {
			return fmt.Sprintf("node answered %d", r.status)
		}
		return fmt.Sprintf("node answered %d: %s", r.status, msg)
	default:
		return "no replicas configured"
	}
}

// decodeError extracts the message from a node's JSON error envelope.
func decodeError(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil {
		return e.Error
	}
	return ""
}

// fanState is one fan-out's shared state, written by its per-shard
// goroutines under mu: what they all capture, in one allocation.
type fanState struct {
	wg        sync.WaitGroup
	mu        sync.Mutex
	cancel    context.CancelFunc
	firstErr  error
	missing   []int
	firstSkip *unavailableError
}

// fail records err, preferring a real failure over the knock-on
// cancellations it causes, and cancels the remaining shards.
func (f *fanState) fail(err error) {
	f.mu.Lock()
	if f.firstErr == nil ||
		(containment.Classify(f.firstErr) == containment.FailCanceled &&
			containment.Classify(err) != containment.FailCanceled) {
		f.firstErr = err
	}
	f.mu.Unlock()
	f.cancel()
}

// skip records an exhausted shard that degraded serving leaves out.
func (f *fanState) skip(si int, ue *unavailableError) {
	f.mu.Lock()
	f.missing = append(f.missing, si)
	if f.firstSkip == nil || ue.shard < f.firstSkip.shard {
		f.firstSkip = ue
	}
	f.mu.Unlock()
}

// fanout runs the same request (target: path and encoded query) against
// every shard concurrently and returns the per-shard replies (index =
// shard). Like shard.Engine's in-process fan-out, the first error cancels
// the remaining shards, and a real failure is reported in preference to
// the knock-on cancellations it causes.
//
// With partial set (degraded serving), an exhausted shard — one where
// every replica failed or was breaker-denied — does not abort the request:
// its index lands in the returned missing list (sorted) and the other
// shards keep running. Definitive errors (bad request, deadline, client
// gone) still abort: partiality only covers availability, never
// correctness. When every shard is missing the request fails with the
// first shard's unavailableError rather than returning an empty "answer".
func (rt *Router) fanout(ctx context.Context, target, traceID string, partial bool) ([]nodeReply, []int, error) {
	f := &fanState{}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	f.cancel = cancel
	replies := make([]nodeReply, len(rt.shards))
	for si := range rt.shards {
		f.wg.Add(1)
		go func(si int) {
			defer f.wg.Done()
			r, err := rt.callShard(cctx, si, target, traceID)
			if err == nil && r.status != http.StatusOK {
				err = &statusError{status: r.status, body: r.body}
			}
			replies[si] = r
			if err == nil {
				return
			}
			var ue *unavailableError
			if partial && errors.As(err, &ue) {
				f.skip(si, ue) // degraded: skip this shard, let the others finish
				return
			}
			f.fail(err)
		}(si)
	}
	f.wg.Wait()
	if f.firstErr == nil {
		f.firstErr = ctx.Err()
	}
	if f.firstErr == nil && len(f.missing) > 0 && len(f.missing) == len(rt.shards) {
		f.firstErr = f.firstSkip // nothing answered: that is not a partial result
	}
	sort.Ints(f.missing)
	return replies, f.missing, f.firstErr
}
