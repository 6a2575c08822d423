// Command pbirouter fronts a fleet of pbiserve shard nodes with a
// scatter-gather serving tier: every /join, /query and /relations request
// fans out to one replica per shard group and the responses merge with
// exactly the semantics internal/shard applies in process — see
// internal/router and doc/ROUTER.md.
//
// Usage:
//
//	pbirouter -nodes URL[|URL...],URL[|URL...],... [-addr :8070]
//	          [-cache 1024] [-timeout 0] [-probe 2s] [-probe-timeout 1s]
//	          [-probe-fails 2] [-hedge 0] [-hedge-min 10ms] [-maxcodes 100]
//	          [-drain 10s] [-telemetry DIR] [-slowquery DUR]
//	          [-breaker-threshold 5] [-breaker-interval 1s] [-breaker-max 30s]
//	          [-retry-budget 10] [-retry-refill 1]
//	          [-retry-backoff 10ms] [-retry-backoff-max 500ms]
//	          [-allow-partial]
//	pbirouter -topology topology.json [...]
//
// -nodes lists the shard groups: commas separate shards, pipes separate
// replicas of one shard. "a|b,c" is two shards — shard 0 replicated on a
// and b, shard 1 on c alone. -topology reads the same structure from JSON:
//
//	{"shards": [{"replicas": ["http://host:8081", "http://host:8082"]},
//	            {"replicas": ["http://host:8083"]}]}
//
// Every node of one shard group must serve the same shard file of one
// pbidb shard split (document-disjoint shards); the router's answers are
// then byte-for-byte equivalent to a single engine over the whole store.
//
// Endpoints mirror pbiserve: /join /query /relations /stats /metrics
// /healthz /readyz, plus GET /debug/trace/{id} for the stitched
// multi-node trace of a recent routed query (?spans=1 on /join or /query
// embeds the same tree in the response; see doc/OBSERVABILITY.md).
// SIGINT/SIGTERM mark /readyz not-ready, drain in-flight requests, then
// exit.
//
// Fault containment (doc/ROBUSTNESS.md): each node gets a circuit breaker
// (-breaker-*), failover retries draw from a shared token-bucket budget
// paced by jittered exponential backoff (-retry-*), and ?partial=1 (or
// -allow-partial as the default) serves degraded 206 answers that skip
// exhausted shards instead of failing the whole request.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/pbitree/pbitree/internal/router"
	"github.com/pbitree/pbitree/internal/serve"
	"github.com/pbitree/pbitree/internal/telemetry"
)

func main() {
	var (
		nodes        = flag.String("nodes", "", "shard groups: commas separate shards, pipes separate replicas")
		topology     = flag.String("topology", "", "JSON topology file (alternative to -nodes)")
		addr         = flag.String("addr", ":8070", "listen address")
		cache        = flag.Int("cache", 1024, "LRU merged-result cache entries (negative disables)")
		timeout      = flag.Duration("timeout", 0, "per-request execution deadline, also the ?timeout= clamp (0 = none)")
		probe        = flag.Duration("probe", 2*time.Second, "node health probe interval (negative disables)")
		probeTimeout = flag.Duration("probe-timeout", time.Second, "single probe request timeout")
		probeFails   = flag.Int("probe-fails", 2, "consecutive probe failures before a node is demoted")
		hedge        = flag.Duration("hedge", 0, "fixed hedging delay (0 = adaptive latency quantile, negative disables)")
		hedgeMin     = flag.Duration("hedge-min", 10*time.Millisecond, "floor for the adaptive hedging delay")
		maxcodes     = flag.Int("maxcodes", 100, "result codes echoed per /query response")
		drain        = flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
		telDir       = flag.String("telemetry", "", "append one JSONL telemetry record per routed query to this directory (rotating)")
		slowQ        = flag.Duration("slowquery", 0, "queries at or above this wall time keep their stitched span tree in telemetry (0 = never)")

		brThreshold = flag.Int("breaker-threshold", 5, "consecutive node failures that open its circuit breaker (negative disables)")
		brInterval  = flag.Duration("breaker-interval", time.Second, "initial breaker open interval before a half-open trial")
		brMax       = flag.Duration("breaker-max", 30*time.Second, "cap for the doubling breaker open interval")
		retryBudget = flag.Float64("retry-budget", 10, "shared retry-budget bucket capacity (failover retries; negative disables)")
		retryRefill = flag.Float64("retry-refill", 1, "retry-budget refill rate, tokens per second")
		backoff     = flag.Duration("retry-backoff", 10*time.Millisecond, "base failover backoff, doubled per attempt with jitter (negative disables)")
		backoffMax  = flag.Duration("retry-backoff-max", 500*time.Millisecond, "cap for the failover backoff")
		allowPart   = flag.Bool("allow-partial", false, "serve degraded 206 answers by default when shards are exhausted (?partial= overrides)")
	)
	flag.Parse()
	if (*nodes == "") == (*topology == "") || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: pbirouter -nodes URL[|URL...],... | -topology FILE  [-addr :8070]")
		os.Exit(2)
	}

	var topo [][]string
	var err error
	if *topology != "" {
		topo, err = readTopology(*topology)
	} else {
		topo = parseNodes(*nodes)
	}
	if err != nil {
		fail(err)
	}

	var telw *telemetry.Writer
	if *telDir != "" {
		telw, err = telemetry.New(telemetry.Config{Dir: *telDir, SlowQuery: *slowQ})
		if err != nil {
			fail(err)
		}
	}

	rt, err := router.New(router.Config{
		Topology:      topo,
		CacheEntries:  *cache,
		QueryTimeout:  *timeout,
		ProbeInterval: *probe,
		ProbeTimeout:  *probeTimeout,
		FailAfter:     *probeFails,
		HedgeAfter:    *hedge,
		HedgeMin:      *hedgeMin,
		MaxCodes:      *maxcodes,
		Telemetry:     telw,

		BreakerThreshold:   *brThreshold,
		BreakerInterval:    *brInterval,
		BreakerMaxInterval: *brMax,
		RetryBudget:        *retryBudget,
		RetryRefill:        *retryRefill,
		RetryBackoff:       *backoff,
		RetryBackoffMax:    *backoffMax,
		AllowPartial:       *allowPart,
	})
	if err != nil {
		telw.Close() //nolint:errcheck // the router error wins
		fail(err)
	}
	for si, group := range topo {
		fmt.Printf("pbirouter: shard %d: %s\n", si, strings.Join(group, ", "))
	}

	fmt.Printf("pbirouter: routing %d shards on %s\n", rt.NumShards(), *addr)
	if err := serve.Run("pbirouter", *addr, rt.Handler(), *drain, func() {
		fmt.Println("pbirouter: draining in-flight requests...")
		rt.Drain() // /readyz flips 503 so load balancers stop sending traffic
	}); err != nil {
		rt.Close() //nolint:errcheck // exiting anyway
		fail(err)
	}
	if err := rt.Close(); err != nil {
		telw.Close() //nolint:errcheck // the router error wins
		fail(err)
	}
	// Close telemetry last so every emitted record drains to disk.
	if err := telw.Close(); err != nil {
		fail(err)
	}
	fmt.Println("pbirouter: stopped")
}

// parseNodes expands the -nodes shorthand: commas separate shard groups,
// pipes separate replicas within one group.
func parseNodes(spec string) [][]string {
	var topo [][]string
	for _, group := range strings.Split(spec, ",") {
		var replicas []string
		for _, u := range strings.Split(group, "|") {
			if u = strings.TrimSpace(u); u != "" {
				replicas = append(replicas, u)
			}
		}
		topo = append(topo, replicas)
	}
	return topo
}

// readTopology loads the JSON topology file.
func readTopology(path string) ([][]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t struct {
		Shards []struct {
			Replicas []string `json:"replicas"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	topo := make([][]string, len(t.Shards))
	for i, s := range t.Shards {
		topo[i] = s.Replicas
	}
	return topo, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "pbirouter: %v\n", err)
	os.Exit(1)
}
