#!/usr/bin/env bash
# Live-ingest smoke test: stand up pbiserve -ingest on a tiny generated
# database, drive it with pbiload's mixed read/write workload, and verify
# the epoch machinery end to end — answers track writes (X-Epoch and the
# join count advance together), the compaction daemon folds the delta
# chain, pbidb epochs and pbifsck understand the epoch family, and a
# restarted server resumes serving the latest epoch. CI runs this via
# `make ingest-smoke`. See doc/INGEST.md.
set -euo pipefail

tmp=$(mktemp -d)
srv=""
cleanup() {
    [ -n "$srv" ] && kill "$srv" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "ingest-smoke: building cmd/... binaries"
go build -o "$tmp/bin/" ./cmd/...

echo "ingest-smoke: generating database"
"$tmp/bin/pbigen" -kind xmark -scale 0.005 -out "$tmp/doc.xml"
"$tmp/bin/pbidb" build -db "$tmp/smoke.db" "$tmp/doc.xml"

addr=127.0.0.1:18427
start_server() {
    "$tmp/bin/pbiserve" -db "$tmp/smoke.db" -addr "$addr" -workers 4 \
        -ingest -ingest-backlog 16 -compact-after 3 \
        -telemetry "$tmp/telemetry" &
    srv=$!
    for _ in $(seq 1 50); do
        curl -fs "http://$addr/healthz" >/dev/null 2>&1 && break
        kill -0 "$srv" 2>/dev/null || { echo "ingest-smoke: pbiserve died during startup" >&2; exit 1; }
        sleep 0.2
    done
    curl -fs "http://$addr/healthz" >/dev/null
}
stop_server() {
    kill -0 "$srv" 2>/dev/null || { echo "ingest-smoke: pbiserve crashed during the run" >&2; exit 1; }
    kill -INT "$srv"
    wait "$srv"
    srv=""
}

join_count() { curl -fs "http://$addr/join?anc=item&desc=text" | sed -n 's/.*"count":\([0-9]*\).*/\1/p'; }
join_epoch() { curl -fsi "http://$addr/join?anc=item&desc=text" | tr -d '\r' | sed -n 's/^X-Epoch: //p'; }

start_server

echo "ingest-smoke: baseline answer on epoch 0"
base_count=$(join_count)
[ "$(join_epoch)" = "0" ] || { echo "ingest-smoke: fresh server not on epoch 0" >&2; exit 1; }

echo "ingest-smoke: single insert batch advances the epoch and the answer"
commit=$(curl -fs -X POST "http://$addr/ingest" -d '{"ops":[{"op":"insert_doc","doc":"smoke-probe","xml":"<doc><item><text>probe</text></item></doc>"}]}')
echo "$commit" | grep -q '"epoch":1' || { echo "ingest-smoke: first commit is not epoch 1: $commit" >&2; exit 1; }
got=$(join_count)
[ "$got" = "$((base_count + 1))" ] || { echo "ingest-smoke: count $got after insert, want $((base_count + 1))" >&2; exit 1; }
[ "$(join_epoch)" = "1" ] || { echo "ingest-smoke: answer not served from epoch 1" >&2; exit 1; }

echo "ingest-smoke: rejecting a bad batch cleanly"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/ingest" \
    -d '{"ops":[{"op":"insert_doc","doc":"smoke-probe","xml":"<x/>"}]}')
[ "$code" = "400" ] || { echo "ingest-smoke: duplicate insert answered $code, want 400" >&2; exit 1; }
got=$(join_count)
[ "$got" = "$((base_count + 1))" ] || { echo "ingest-smoke: rejected batch changed the answer" >&2; exit 1; }

echo "ingest-smoke: mixed read/write load"
"$tmp/bin/pbiload" -url "http://$addr" -mix xmark -c 4 -n 300 \
    -ingest 0.3 -ingest-updates 0.5 -stats=false

echo "ingest-smoke: waiting for the compaction daemon to fold the chain"
folded=0
for _ in $(seq 1 15); do
    if curl -fs "http://$addr/epochs" | grep -q '"compactions":[1-9]'; then
        folded=1; break
    fi
    sleep 1
done
[ "$folded" = 1 ] || { echo "ingest-smoke: no compaction after sustained ingest" >&2; exit 1; }

echo "ingest-smoke: checking /metrics ingest families"
metrics=$(curl -fs "http://$addr/metrics")
for fam in pbiserve_epoch pbiserve_ingest_requests_total pbiserve_ingest_ops_total \
           pbiserve_ingest_renumbers_total pbiserve_ingest_delta_pages_total pbiserve_ingest_shared_pages_total \
           pbiserve_compactions_total pbiserve_worker_swaps_total; do
    echo "$metrics" | grep -q "^$fam" || { echo "ingest-smoke: /metrics missing $fam" >&2; exit 1; }
done

pre_restart_count=$(join_count)
pre_restart_epoch=$(curl -fs "http://$addr/epochs" | sed -n 's/.*"current":\([0-9]*\).*/\1/p')
stop_server

echo "ingest-smoke: pbidb epochs lists the family"
"$tmp/bin/pbidb" epochs -db "$tmp/smoke.db" | tee "$tmp/epochs.txt"
grep -q -- "<- current" "$tmp/epochs.txt" || { echo "ingest-smoke: pbidb epochs marks no current epoch" >&2; exit 1; }

echo "ingest-smoke: pbifsck verifies the epoch family"
"$tmp/bin/pbifsck" "$tmp/smoke.db"

echo "ingest-smoke: restarted server resumes the latest epoch"
start_server
[ "$(join_epoch)" = "$pre_restart_epoch" ] || {
    echo "ingest-smoke: restart serves epoch $(join_epoch), want $pre_restart_epoch" >&2; exit 1; }
[ "$(join_count)" = "$pre_restart_count" ] || {
    echo "ingest-smoke: restart answer $(join_count), want $pre_restart_count" >&2; exit 1; }
stop_server

echo "ingest-smoke: checking telemetry recorded ingest batches with epochs"
cat "$tmp"/telemetry/telemetry-*.jsonl | python3 -c '
import json,sys
ingests = epochs = 0
for line in sys.stdin:
    rec = json.loads(line)
    if rec["endpoint"] == "/ingest": ingests += 1
    if rec.get("epoch", 0) > 0: epochs += 1
assert ingests > 0, "no /ingest telemetry records"
assert epochs > 0, "no record carries a nonzero epoch"
print(f"ingest-smoke: telemetry recorded {ingests} ingest batches")
' || { echo "ingest-smoke: telemetry JSONL failed validation" >&2; exit 1; }

echo "ingest-smoke: OK"
