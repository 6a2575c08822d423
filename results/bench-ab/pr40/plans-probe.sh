#!/usr/bin/env bash
# Lists, for every AUTO join step the four benchmark workloads run at seed 1,
# the algorithm the parent commit's AUTO ran and the one this change's AUTO
# runs — the probe behind plans.txt. bench/ is not touched: each side is a
# copy of its checkout whose containment.Engine.join prints one PLAN line
# (relations, sizes, whether each input is ordered, algorithm) to stderr
# per Auto join.
#
#   results/bench-ab/pr40/plans-probe.sh <parent-checkout> <change-checkout> <scratch-dir> > plans.txt
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
p = sys.argv[1] + "/containment/engine.go"
s = open(p).read()
anchor = "\tres.PredictedIO = core.EstimateIO(alg, core.Gather(ctx, spec, a.rel, d.rel))\n"
log = ('\tif opts.Algorithm == Auto {\n\t\tfmt.Fprintf(os.Stderr, "PLAN %s %s %d %d %d %d %v %v %s\\n", '
       'a.Name(), d.Name(), a.Len(), d.Len(), a.Pages(), d.Pages(), a.Ordered(), d.Ordered(), alg)\n\t}\n')
assert anchor in s
s = s.replace(anchor, anchor + log).replace('import (\n\t"context"', 'import (\n\t"context"\n\t"os"', 1)
open(p, "w").write(s)
PY
    for w in join_cold serve_hot route_miss ingest_mix; do
        (cd "$work/$side" && bash bench/run.sh --workload $w --seed 1 --seconds 8 --trace 0 \
            > "$work/plans.$side.$w.out" 2> "$work/plans.$side.$w.err")
    done
done

python3 - "$work" <<'PY'
import collections, sys
work = sys.argv[1]

def read(path):
    # step (relations, sizes, order bits) -> Counter of AUTO's picks
    steps = collections.OrderedDict()
    for line in open(path):
        if line.startswith("PLAN "):
            f = line.split()
            steps.setdefault(tuple(f[1:9]), collections.Counter())[f[9]] += 1
    return steps

for w in ["join_cold", "serve_hot", "route_miss", "ingest_mix"]:
    par = read(f"{work}/plans.parent.{w}.err")
    chg = read(f"{work}/plans.change.{w}.err")
    joins = sum(sum(c.values()) for c in chg.values())
    shared = [k for k in chg if k in par]
    print(f"== {w}: {len(chg)} distinct AUTO join steps ({joins} joins) in the change's run,")
    print(f"   {len(shared)} of them also in the parent's run.")
    moves = collections.Counter()
    for k in shared:
        for p in par[k]:
            for c, n in chg[k].items():
                moves[(k[6] == "true" and k[7] == "true", p, c)] += n
    for (ordered, p, c), n in sorted(moves.items(), key=lambda x: (-x[1], x[0])):
        kind = "both inputs ordered" if ordered else "an input unordered"
        verdict = "unchanged" if p == c else "changed"
        print(f"   {kind:20s} parent {p:12s} -> change {c:12s} {n:6d} joins  ({verdict})")
    steps = collections.Counter()
    for k in chg:
        steps[(k[6] == "true" and k[7] == "true", tuple(sorted(chg[k])))] += 1
    for (ordered, algs), n in sorted(steps.items(), key=lambda x: -x[1]):
        kind = "both inputs ordered" if ordered else "an input unordered"
        print(f"   change's steps, {kind:20s}: {'/'.join(algs):24s} {n:6d} steps")
PY
