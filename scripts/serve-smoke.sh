#!/usr/bin/env bash
# Serving smoke test: build every cmd/... binary, stand up pbiserve on a
# tiny generated database, drive it with pbiload (closed and open loop),
# and verify /stats shows cache hits and zero errors. Fails on any non-200
# response, a transport error, or a crashed/undrained server. CI runs this
# via `make serve-smoke`.
set -euo pipefail

tmp=$(mktemp -d)
srv=""
cleanup() {
    [ -n "$srv" ] && kill "$srv" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "serve-smoke: building cmd/... binaries"
go build -o "$tmp/bin/" ./cmd/...

echo "serve-smoke: generating database"
"$tmp/bin/pbigen" -kind xmark -scale 0.005 -out "$tmp/doc.xml"
"$tmp/bin/pbidb" build -db "$tmp/smoke.db" "$tmp/doc.xml"

addr=127.0.0.1:18421
"$tmp/bin/pbiserve" -db "$tmp/smoke.db" -addr "$addr" -workers 4 \
    -telemetry "$tmp/node-telemetry" &
srv=$!

for _ in $(seq 1 50); do
    curl -fs "http://$addr/healthz" >/dev/null 2>&1 && break
    kill -0 "$srv" 2>/dev/null || { echo "serve-smoke: pbiserve died during startup" >&2; exit 1; }
    sleep 0.2
done
curl -fs "http://$addr/healthz" >/dev/null

echo "serve-smoke: closed-loop burst"
"$tmp/bin/pbiload" -url "http://$addr" -mix xmark -c 4 -n 300 -stats=false

echo "serve-smoke: open-loop burst with joins and a path query"
"$tmp/bin/pbiload" -url "http://$addr" -mode open -qps 200 -duration 2s \
    -queries item/text,person/emailaddress/rollup -paths //item//parlist//text

echo "serve-smoke: checking /stats invariants"
stats=$(curl -fs "http://$addr/stats")
echo "$stats" | grep -q '"errors":0' || { echo "serve-smoke: server recorded errors: $stats" >&2; exit 1; }
echo "$stats" | grep -q '"hits":0' && { echo "serve-smoke: no cache hits on a repeated workload: $stats" >&2; exit 1; }

echo "serve-smoke: checking the timeout path"
# An absurd ?timeout= must answer 504 deterministically (expired deadlines
# are rejected before the result cache can serve a hit), and the server
# must stay healthy afterwards. This runs after the "errors":0 check
# because the 504 deliberately increments the error counter.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/join?anc=item&desc=text&timeout=1ns")
[ "$code" = "504" ] || { echo "serve-smoke: ?timeout=1ns answered $code, want 504" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/join?anc=item&desc=text")
[ "$code" = "200" ] || { echo "serve-smoke: post-timeout request answered $code, want 200" >&2; exit 1; }

echo "serve-smoke: checking /metrics exposition"
# Retry the scrape a few times: a transiently truncated body should not
# fail the build, a genuinely missing family still does.
families="pbiserve_requests_total pbiserve_cache_hits_total
          pbiserve_request_latency_seconds_bucket
          pbiserve_join_requests_total pbiserve_join_phase_page_io_total
          pbiserve_timeouts_total pbiserve_canceled_total
          pbiserve_panics_total pbiserve_engine_recycles_total"
for attempt in 1 2 3; do
    metrics=$(curl -fs "http://$addr/metrics")
    missing=""
    for fam in $families; do
        echo "$metrics" | grep -q "^$fam" || missing="$missing $fam"
    done
    [ -z "$missing" ] && break
    [ "$attempt" = 3 ] && {
        echo "serve-smoke: /metrics missing families:$missing" >&2
        echo "$metrics" >&2; exit 1; }
    sleep 0.5
done
# The exposition format itself is linted by `go test` (internal/serve/servetest).

echo "serve-smoke: checking /debug/trace"
trace=$(curl -fs "http://$addr/debug/trace?anc=item&desc=text")
echo "$trace" | grep -q '"trace_id"' || { echo "serve-smoke: /debug/trace missing trace_id: $trace" >&2; exit 1; }
echo "$trace" | grep -q '"spans"' || { echo "serve-smoke: /debug/trace missing spans: $trace" >&2; exit 1; }

echo "serve-smoke: checking /debug/trace/{id} retained-trace retrieval"
spanresp=$(curl -fs "http://$addr/join?anc=item&desc=text&spans=1")
tid=$(echo "$spanresp" | sed -n 's/.*"trace_id":"\([^"]*\)".*/\1/p')
[ -n "$tid" ] || { echo "serve-smoke: ?spans=1 carries no trace_id: $spanresp" >&2; exit 1; }
"$tmp/bin/pbitrace" -url "http://$addr" "$tid" | grep -q "TRACE $tid" || {
    echo "serve-smoke: pbitrace could not render retained trace $tid" >&2; exit 1; }

kill -0 "$srv" 2>/dev/null || { echo "serve-smoke: pbiserve crashed during the run" >&2; exit 1; }
kill -INT "$srv"
wait "$srv"
srv=""

echo "serve-smoke: checking the telemetry sidecar JSONL"
telfiles=("$tmp"/node-telemetry/telemetry-*.jsonl)
[ -s "${telfiles[0]}" ] || { echo "serve-smoke: telemetry directory has no records" >&2; exit 1; }
cat "${telfiles[@]}" | python3 -c '
import json,sys
n = 0
for line in sys.stdin:
    rec = json.loads(line)
    assert rec["trace_id"] and rec["endpoint"], rec
    n += 1
assert n > 0, "telemetry files exist but hold no records"
print(f"serve-smoke: telemetry recorded {n} queries")
' || { echo "serve-smoke: telemetry JSONL failed validation" >&2; exit 1; }

echo "serve-smoke: OK"
