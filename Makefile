# Standard developer entry points. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet race cover bench bench-test loc fuzz experiments experiments-full serve-smoke shard-smoke router-smoke chaos-smoke ingest-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Tier-1 gate: vet runs first so static faults fail fast, then the full
# test suite.
test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# One iteration of every benchmark, including the per-table/figure harness
# benches at reduced scale.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./...

# The repository's benchmark (BENCHMARK.json, bench/) is a module of its
# own, so `go test ./...` above never sees it: its unit tests — the frozen
# adapter surface check of api_test.go among them — run here. Compare two
# commits on it with scripts/bench-ab.sh <parent-ref> [pairs].
bench-test:
	$(GO) test -C bench ./...

# Non-test Go lines per top-level package; `scripts/loc.sh HEAD~1` adds
# the delta against a commit (how "net-negative LOC" criteria are checked).
loc:
	./scripts/loc.sh

# Short fuzzing passes over every native fuzz target: the parsers
# (documents and path expressions), the coding identities, document
# update streams, the packed appender round trip, the heap page decoders
# (arbitrary page bytes under every format byte) and the persisted epoch
# formats (catalogs at every link of a chain, delta files), and the fence
# index of ADB+ and INLJN (seeks against a linear search, the joins against
# the nested loop). Each -fuzz
# regex is anchored, since go test refuses one that matches two targets.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzCodeRoundtrips$$' -fuzztime=30s ./pbicode
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=30s ./xmltree
	$(GO) test -run='^$$' -fuzz='^FuzzUpdates$$' -fuzztime=30s ./xmltree
	$(GO) test -run='^$$' -fuzz='^FuzzPageDecode$$' -fuzztime=30s ./internal/relation
	$(GO) test -run='^$$' -fuzz='^FuzzCompressedPage$$' -fuzztime=30s ./internal/relation
	$(GO) test -run='^$$' -fuzz='^FuzzParsePath$$' -fuzztime=30s ./internal/qserv
	$(GO) test -run='^$$' -fuzz='^FuzzCatalog$$' -fuzztime=30s ./containment
	$(GO) test -run='^$$' -fuzz='^FuzzReadDelta$$' -fuzztime=30s ./internal/storage
	$(GO) test -run='^$$' -fuzz='^FuzzStartIndexJoins$$' -fuzztime=30s ./internal/core

# Quick interactive experiment sweep (about a minute).
experiments:
	$(GO) run ./cmd/pbibench -exp all

# End-to-end serving check: pbiserve on a tiny generated database driven
# by pbiload; fails on any non-200 or a crashed server.
serve-smoke:
	./scripts/serve-smoke.sh

# Sharded-serving check: pbidb shard splits a multi-document database,
# pbiserve -shards serves it, and every answer is compared against an
# unsharded server over the same data.
shard-smoke:
	./scripts/shard-smoke.sh

# Multi-node serving check: pbirouter over per-shard pbiserve nodes must
# match a solo server, survive a replica kill, and 503 a dead shard
# (doc/ROUTER.md).
router-smoke:
	./scripts/router-smoke.sh

# Fault-containment check: dead shard → breaker-derived Retry-After and
# a degraded ?partial=1 206; corrupted page → "corrupt" failure class,
# pbifsck pinpoints it, router degrades around the shard; legacy
# pre-checksum databases still serve (doc/ROBUSTNESS.md).
chaos-smoke:
	./scripts/chaos-smoke.sh

# Live-ingest check: pbiserve -ingest under a mixed read/write load must
# advance epochs with consistent answers, fold the chain via compaction,
# survive a restart on the latest epoch, and stay legible to pbidb epochs
# and pbifsck (doc/INGEST.md).
ingest-smoke:
	./scripts/ingest-smoke.sh

# The paper-scale runs behind EXPERIMENTS.md (several minutes).
experiments-full:
	$(GO) run ./cmd/pbibench -exp e1,e2,e5,e6,e7,e8 -scale 1 -stats
	$(GO) run ./cmd/pbibench -exp e3,e4 -docscale 1 -buffer 64
	$(GO) run ./cmd/pbibench -exp a1,a2,a3,a4,a5,a6,a7,a8 -scale 1 -docscale 0.3 -stats

clean:
	rm -f cover.out
