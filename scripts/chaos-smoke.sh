#!/usr/bin/env bash
# Chaos smoke test for the fault-containment layer (doc/ROBUSTNESS.md):
# shard a database across three pbiserve nodes behind pbirouter, then
# (a) verify pbifsck passes every freshly-built shard,
# (b) kill one shard's only node — the default request 503s with a
#     breaker-derived Retry-After while ?partial=1 serves a 206 naming
#     the missing shard with an exact lower-bound count,
# (c) bit-flip a page in another shard's file — the node fails the query
#     with the "corrupt" failure class (never a silent wrong answer),
#     pbifsck pinpoints the damaged pages, and the router degrades around
#     the corrupted shard the same way,
# (d) strip a shard's checksums and page fences to simulate an older
#     database — it still serves correct answers, and pbifsck -add
#     backfills both. CI runs this via `make chaos-smoke`.
set -euo pipefail

tmp=$(mktemp -d)
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "chaos-smoke: building cmd/... binaries"
go build -o "$tmp/bin/" ./cmd/...

echo "chaos-smoke: generating a multi-document corpus"
for seed in 1 2 3; do
    "$tmp/bin/pbigen" -kind xmark -scale 0.004 -seed "$seed" -out "$tmp/doc$seed.xml"
done
"$tmp/bin/pbidb" build -db "$tmp/chaos.db" "$tmp"/doc1.xml "$tmp"/doc2.xml "$tmp"/doc3.xml
"$tmp/bin/pbidb" shard -db "$tmp/chaos.db" -shards 3
shards="$tmp/chaos.db.shards"

echo "chaos-smoke: pbifsck must pass every fresh shard"
"$tmp/bin/pbifsck" "$shards"/shard-0.db "$shards"/shard-1.db "$shards"/shard-2.db

wait_url() { # url pid what
    local url=$1 pid=$2 what=$3
    for _ in $(seq 1 50); do
        curl -fs "$url" >/dev/null 2>&1 && return 0
        kill -0 "$pid" 2>/dev/null || { echo "chaos-smoke: $what died during startup" >&2; exit 1; }
        sleep 0.2
    done
    curl -fs "$url" >/dev/null
}

n0_addr=127.0.0.1:18451
n1_addr=127.0.0.1:18452
n2_addr=127.0.0.1:18453
router_addr=127.0.0.1:18454

"$tmp/bin/pbiserve" -db "$shards/shard-0.db" -addr "$n0_addr" -workers 1 -cache -1 &
n0=$!; pids+=("$n0")
"$tmp/bin/pbiserve" -db "$shards/shard-1.db" -addr "$n1_addr" -workers 1 -cache -1 &
n1=$!; pids+=("$n1")
"$tmp/bin/pbiserve" -db "$shards/shard-2.db" -addr "$n2_addr" -workers 1 -cache -1 &
n2=$!; pids+=("$n2")
for a in "$n0_addr" "$n1_addr" "$n2_addr"; do
    wait_url "http://$a/readyz" "${pids[0]}" "pbiserve $a"
done

"$tmp/bin/pbirouter" \
    -nodes "http://$n0_addr,http://$n1_addr,http://$n2_addr" \
    -addr "$router_addr" -cache -1 -probe 200ms -probe-fails 1 \
    -breaker-threshold 2 -breaker-interval 5s &
router=$!; pids+=("$router")
wait_url "http://$router_addr/readyz" "$router" "pbirouter"

q="/join?anc=item&desc=text"
full=$(curl -fs "http://$router_addr$q" | jq .count)
echo "chaos-smoke: baseline count $full"
[ "$full" -gt 0 ] || { echo "chaos-smoke: empty baseline join" >&2; exit 1; }
shard1=$(curl -fs "http://$n1_addr$q" | jq .count)
shard2=$(curl -fs "http://$n2_addr$q" | jq .count)

echo "chaos-smoke: killing shard 2's only node"
kill "$n2"; wait "$n2" 2>/dev/null || true

# Default request: honest 503. After the breaker trips (threshold 2) the
# Retry-After header must come from the breaker's open interval, not the
# old hardcoded 1.
for i in 1 2 3; do
    headers=$(curl -s -D - -o /dev/null "http://$router_addr$q")
    code=$(echo "$headers" | head -1 | cut -d' ' -f2)
    [ "$code" = "503" ] || { echo "chaos-smoke: dead shard answered $code, want 503" >&2; exit 1; }
done
ra=$(echo "$headers" | tr -d '\r' | awk 'tolower($1)=="retry-after:" {print $2}')
[ -n "$ra" ] && [ "$ra" -ge 2 ] || {
    echo "chaos-smoke: Retry-After '$ra' not breaker-derived (want >= 2s of the 5s open interval)" >&2; exit 1; }
echo "chaos-smoke: breaker-derived Retry-After: ${ra}s"

echo "chaos-smoke: ?partial=1 serves a degraded 206 naming the missing shard"
code=$(curl -s -o "$tmp/partial.json" -w '%{http_code}' "http://$router_addr$q&partial=1")
[ "$code" = "206" ] || { echo "chaos-smoke: partial request answered $code, want 206" >&2; exit 1; }
jq -e --argjson full "$full" --argjson shard2 "$shard2" \
    '.partial == true and .missing_shards == [2] and .count == ($full - $shard2)' \
    "$tmp/partial.json" >/dev/null || {
    echo "chaos-smoke: bad partial envelope: $(cat "$tmp/partial.json")" >&2; exit 1; }
echo "chaos-smoke: partial count $(jq .count "$tmp/partial.json") = full - dead shard"

curl -fs "http://$router_addr/metrics" > "$tmp/metrics.txt"
grep -q '^pbirouter_partial_responses_total 1$' "$tmp/metrics.txt" || {
    echo "chaos-smoke: pbirouter_partial_responses_total did not count the 206" >&2; exit 1; }

echo "chaos-smoke: bit-flipping pages in shard 0's file"
kill "$n0"; wait "$n0" 2>/dev/null || true
pagesize=$(jq .page_size "$shards/shard-0.db.catalog")
python3 - "$shards/shard-0.db" "$pagesize" <<'EOF'
import sys
path, ps = sys.argv[1], int(sys.argv[2])
with open(path, "r+b") as f:
    f.seek(0, 2)
    size = f.tell()
    off = 100
    while off < size:
        f.seek(off)
        b = f.read(1)
        f.seek(off)
        f.write(bytes([b[0] ^ 0x20]))
        off += ps
EOF

echo "chaos-smoke: pbifsck pinpoints the damaged pages"
if "$tmp/bin/pbifsck" "$shards/shard-0.db" > "$tmp/fsck.out"; then
    echo "chaos-smoke: pbifsck passed a corrupted shard" >&2; exit 1
fi
grep -q "CORRUPT" "$tmp/fsck.out" && grep -q "page " "$tmp/fsck.out" || {
    echo "chaos-smoke: fsck output does not name the bad pages: $(cat "$tmp/fsck.out")" >&2; exit 1; }
head -2 "$tmp/fsck.out"

echo "chaos-smoke: a node over the corrupted shard fails with the corrupt class"
# Restart on the same port the router knows, so the fleet sees the
# corruption too: /readyz passes (the catalog is intact), queries fail.
"$tmp/bin/pbiserve" -db "$shards/shard-0.db" -addr "$n0_addr" -workers 1 -cache -1 &
n0b=$!; pids+=("$n0b")
wait_url "http://$n0_addr/readyz" "$n0b" "pbiserve $n0_addr"
code=$(curl -s -o "$tmp/corrupt.json" -w '%{http_code}' "http://$n0_addr$q")
[ "$code" = "500" ] || { echo "chaos-smoke: corrupted node answered $code, want 500" >&2; exit 1; }
jq -e '.class == "corrupt"' "$tmp/corrupt.json" >/dev/null || {
    echo "chaos-smoke: corruption not classified: $(cat "$tmp/corrupt.json")" >&2; exit 1; }
echo "chaos-smoke: node error: $(jq -r .error "$tmp/corrupt.json" | head -c 120)"

echo "chaos-smoke: the router degrades around the corrupted shard"
code=$(curl -s -o "$tmp/partial2.json" -w '%{http_code}' "http://$router_addr$q&partial=1")
[ "$code" = "206" ] || { echo "chaos-smoke: degraded request answered $code, want 206" >&2; exit 1; }
jq -e --argjson shard1 "$shard1" \
    '.partial == true and .missing_shards == [0, 2] and .count == $shard1' \
    "$tmp/partial2.json" >/dev/null || {
    echo "chaos-smoke: bad degraded envelope: $(cat "$tmp/partial2.json")" >&2; exit 1; }
echo "chaos-smoke: corrupted + dead shards skipped; count $(jq .count "$tmp/partial2.json") = surviving shard"

echo "chaos-smoke: legacy (pre-checksum) shard still serves, then backfills"
legacy="$tmp/legacy.db"
cp "$shards/shard-1.db" "$legacy"
cp "$shards/shard-1.db.catalog" "$legacy.catalog"
python3 - "$legacy.catalog" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    cat = json.load(f)
cat.pop("checksums", None)
for rel in cat["relations"]:
    rel.pop("fences", None)
with open(path, "w") as f:
    json.dump(cat, f)
EOF
legacy_addr=127.0.0.1:18456
"$tmp/bin/pbiserve" -db "$legacy" -addr "$legacy_addr" -workers 1 -cache -1 &
lg=$!; pids+=("$lg")
wait_url "http://$legacy_addr/readyz" "$lg" "pbiserve $legacy_addr"
want=$(curl -fs "http://$n1_addr$q" | jq .count)
got=$(curl -fs "http://$legacy_addr$q" | jq .count)
[ "$got" = "$want" ] || {
    echo "chaos-smoke: legacy shard count $got, want $want" >&2; exit 1; }
if "$tmp/bin/pbifsck" "$legacy" > "$tmp/legacy-fsck.out"; then
    echo "chaos-smoke: pbifsck passed an unverifiable legacy database" >&2; exit 1
fi
grep -q "no checksum sidecar" "$tmp/legacy-fsck.out" || {
    echo "chaos-smoke: legacy fsck message wrong: $(cat "$tmp/legacy-fsck.out")" >&2; exit 1; }
"$tmp/bin/pbifsck" -add "$legacy"
"$tmp/bin/pbifsck" "$legacy" || {
    echo "chaos-smoke: backfilled database does not verify" >&2; exit 1; }
unfenced=$(jq '[.relations[] | select(.ordered and (.pages | length) > 0 and .fences == null)] | length' "$legacy.catalog")
[ "$unfenced" = 0 ] || {
    echo "chaos-smoke: $unfenced ordered relations still lack fences after pbifsck -add" >&2; exit 1; }

kill -0 "$router" 2>/dev/null || { echo "chaos-smoke: pbirouter crashed" >&2; exit 1; }
echo "chaos-smoke: OK"
