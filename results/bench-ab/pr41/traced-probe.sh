#!/usr/bin/env bash
# One traced ingest_mix run per side (seed 1, the manifest's 20 s), for the
# gap-aware renumber rates (ingest.renumber_scoped_per_kop,
# ingest.renumber_global_per_kop) and the store's overflow-insert count.
# bench/ is not touched: each side runs from a copy of its checkout whose
# traced ingest rung also prints the store's counters — commits, scoped and
# global renumbers, overflow inserts, over all of the rung's commits (the
# two rates cover only its direct applies) — on one "ingest rung" line.
#
#   results/bench-ab/pr41/traced-probe.sh <parent-checkout> <change-checkout> <scratch-dir> <out-dir>
#
# Writes <out-dir>/ingest_mix.traced.<side>.json (the run's result line)
# and prints each side's ingest rung line and renumber rates.
set -euo pipefail
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd) work=$3 out=$4
mkdir -p "$work" "$out"
work=$(cd "$work" && pwd) out=$(cd "$out" && pwd)
for side in parent change; do
    src=$parent
    [ $side = change ] && src=$change
    rm -rf "$work/$side"
    cp -r "$src" "$work/$side"
    rm -rf "$work/$side/.bench_build" "$work/$side/.bench_work" "$work/$side/.git"
    python3 - "$work/$side" <<'PY'
import sys
p = sys.argv[1] + "/bench/ladder.go"
s = open(p).read()
anchor = '\tt.set("ingest.renumber_global_per_kop", ratio(float64(global), float64(applied)/1000))\n'
assert anchor in s
s = s.replace(anchor, anchor + '\tif st := store.s.Stats(); true {\n\t\tfmt.Fprintf(t.cfg.Log, "pbiperf: ingest rung: %d commits, %d scoped and %d global renumbers, %d overflow inserts\\n", st.Commits, st.RenumbersScoped, st.RenumbersGlobal, st.OverflowInserts)\n\t}\n', 1)
open(p, "w").write(s)
PY
    (cd "$work/$side" && bash bench/run.sh --workload ingest_mix --seed 1 --seconds 20 --trace 1 \
        2> "$work/traced.$side.err" | tail -n 1 > "$out/ingest_mix.traced.$side.json")
    echo "== $side: $(grep 'pbiperf: ingest rung:' "$work/traced.$side.err")"
    jq -c '{renumber_scoped_per_kop: .metrics["ingest.renumber_scoped_per_kop"].value,
            renumber_global_per_kop: .metrics["ingest.renumber_global_per_kop"].value}' \
        "$out/ingest_mix.traced.$side.json"
done
