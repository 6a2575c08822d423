#!/usr/bin/env bash
# One timed ingest_mix run per side (seed 1, the manifest's 20 s) that
# splits page_io_per_join by algorithm and counts overflow inserts. Each
# side runs from a copy of its checkout whose harness prints, when it
# reads the node's /stats at the end, every algorithm's joins and modeled
# page I/O since boot (warm-up included) on an ALGSTAT line, and adds the
# store's overflow_inserts to its closing "commits acknowledged since
# boot" line. bench/ is not touched.
#
#   results/bench-ab/pr41/ingest-probe.sh <parent-checkout> <change-checkout> <scratch-dir>
set -euo pipefail
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd) work=$3
mkdir -p "$work"
work=$(cd "$work" && pwd)
for side in parent change; do
    src=$parent
    [ $side = change ] && src=$change
    rm -rf "$work/$side"
    cp -r "$src" "$work/$side"
    rm -rf "$work/$side/.bench_build" "$work/$side/.bench_work" "$work/$side/.git"
    python3 - "$work/$side" <<'PY'
import sys
p = sys.argv[1] + "/bench/harness.go"
s = open(p).read()
anchor = "\t\tall = append(all, st)\n"
assert anchor in s
s = s.replace(anchor, anchor + '\t\tfor a, x := range st.Algorithms {\n\t\t\tfmt.Fprintf(os.Stderr, "ALGSTAT %s %d %d\\n", a, x.Requests, x.PageIO)\n\t\t}\n', 1)
open(p, "w").write(s)
p = sys.argv[1] + "/bench/wire.go"
s = open(p).read()
anchor = '\tCompactAborts   uint64 `json:"compact_aborts"`\n'
assert anchor in s
s = s.replace(anchor, anchor + '\tOverflowInserts uint64 `json:"overflow_inserts"`\n', 1)
open(p, "w").write(s)
p = sys.argv[1] + "/bench/timed.go"
s = open(p).read()
for old, new in [('%d scoped and %d global renumbers, epoch %d', '%d scoped and %d global renumbers, %d overflow inserts, epoch %d'),
                 ('before.Stats.RenumbersScoped, before.Stats.RenumbersGlobal, before.Current',
                  'before.Stats.RenumbersScoped, before.Stats.RenumbersGlobal, before.Stats.OverflowInserts, before.Current')]:
    assert old in s
    s = s.replace(old, new, 1)
open(p, "w").write(s)
PY
    (cd "$work/$side" && bash bench/run.sh --workload ingest_mix --seed 1 --seconds 20 --trace 0 \
        2> "$work/pageio.$side.err" | tail -n 1 > "$work/pageio.$side.json")
    echo "== $side: page_io_per_join $(jq .metrics.page_io_per_join.value "$work/pageio.$side.json"), ops_per_s $(jq .metrics.ops_per_s.value "$work/pageio.$side.json")"
    echo "   $(grep -o 'pbiperf: [0-9]* commits acknowledged.*' "$work/pageio.$side.err")"
    awk '/^ALGSTAT /{j += $3; p += $4; printf "   %-14s %7d joins %8d pages  %.3f pages/join\n", $2, $3, $4, $4 / $3}
         END {printf "   %-14s %7d joins %8d pages  %.3f pages/join\n", "all", j, p, p / j}' "$work/pageio.$side.err"
done
