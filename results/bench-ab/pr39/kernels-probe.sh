#!/usr/bin/env bash
# Counts, per benchmark workload at seed 1, the in-memory equijoin
# executions that merged and those that hashed — the probe behind
# kernels.txt. bench/ is not touched: the run is a copy of the checkout
# whose internal/core prints one KERNEL line to stderr per in-memory
# equijoin (the build on A, the build on D, and the multi-height probe of a
# rollup split), naming the kernel that ran.
#
#   results/bench-ab/pr39/kernels-probe.sh <change-checkout> <scratch-dir> > kernels.txt
set -euo pipefail
change=$(cd "$1" && pwd) work=$2
mkdir -p "$work"
work=$(cd "$work" && pwd)
rm -rf "$work/probe"
cp -r "$change" "$work/probe"
rm -rf "$work/probe/.bench_build" "$work/probe/.bench_work"
python3 - "$work/probe" <<'PY'
import sys
root = sys.argv[1]
p = root + "/internal/core/hash.go"
s = open(p).read()
build_a = "\tmerged, err := joinBuildA(ctx, a, d, 1<<uint(h)|tail, prep, sink)\n"
build_d = "\tif merge {\n\t\tif sp != nil {\n\t\t\tsp.Detail = \"build=D merge\"\n\t\t}\n"
assert build_a in s and build_d in s
s = s.replace(build_a, build_a + '\tfmt.Fprintf(os.Stderr, "KERNEL build=A merged=%v\\n", merged)\n', 1)
s = s.replace("\tif err := ds.Err(); err != nil {\n\t\treturn err\n\t}\n" + build_d,
              "\tif err := ds.Err(); err != nil {\n\t\treturn err\n\t}\n"
              + '\tfmt.Fprintf(os.Stderr, "KERNEL build=D merged=%v\\n", merge)\n' + build_d, 1)
s = s.replace('import (\n\t"fmt"\n', 'import (\n\t"fmt"\n\t"os"\n', 1)
open(p, "w").write(s)
q = root + "/internal/core/horizontal.go"
s = open(q).read()
probe = "\t\tmerged, err := joinBuildA(ctx, high, d, 0, nil, sink)\n"
assert probe in s
s = s.replace(probe, probe + '\t\tfmt.Fprintf(os.Stderr, "KERNEL multi-probe merged=%v\\n", merged)\n', 1)
s = s.replace('import (\n\t"fmt"\n', 'import (\n\t"fmt"\n\t"os"\n', 1)
open(q, "w").write(s)
PY
for w in join_cold serve_hot route_miss ingest_mix; do
    (cd "$work/probe" && bash bench/run.sh --workload $w --seed 1 --seconds 8 --trace 0 \
        > "$work/kernels.$w.out" 2> "$work/kernels.$w.err")
done
echo "In-memory equijoin executions per kernel, seed 1, 8 s measured window"
echo "(warm-up, priming and checks included: every execution of the run)."
printf '%-11s %12s %12s %8s   %s\n' workload merged hashed share "by site (merged/hashed)"
for w in join_cold serve_hot route_miss ingest_mix; do
    python3 - "$work/kernels.$w.err" "$w" <<'PY'
import collections, sys
c = collections.Counter()
for line in open(sys.argv[1]):
    if line.startswith("KERNEL "):
        site, merged = line.split()[1:3]
        c[(site, merged == "merged=true")] += 1
m = sum(n for (s, k), n in c.items() if k)
h = sum(n for (s, k), n in c.items() if not k)
sites = sorted({s for s, _ in c})
by = ", ".join(f"{s} {c[(s, True)]}/{c[(s, False)]}" for s in sites)
share = f"{100 * m / (m + h):.1f}%" if m + h else "-"
print(f"{sys.argv[2]:<11} {m:12d} {h:12d} {share:>8}   {by}")
PY
done
