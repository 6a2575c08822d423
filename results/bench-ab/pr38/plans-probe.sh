#!/usr/bin/env bash
# Lists, for every AUTO join step the four benchmark workloads run at seed 1,
# the algorithm the parent commit's AUTO ran and the one this change's AUTO
# runs — the probe behind plans.txt. bench/ is not touched: each side is a
# copy of its checkout whose containment.Engine.join prints one PLAN line
# (relations, sizes, algorithm) to stderr per Auto join; the change side
# also prints the Table 1 pick (core.table1, exported for the probe), which
# is what the parent's AUTO ran.
#
#   results/bench-ab/pr38/plans-probe.sh <parent-checkout> <change-checkout> <scratch-dir> > plans.txt
set -euo pipefail
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd) work=$3
mkdir -p "$work"
for side in parent change; do
    src=$parent
    [ $side = change ] && src=$change
    rm -rf "$work/$side"
    cp -r "$src" "$work/$side"
    rm -rf "$work/$side/.bench_build" "$work/$side/.bench_work"
    SIDE=$side python3 - "$work/$side" <<'PY'
import os, sys
root = sys.argv[1]
p = root + "/containment/engine.go"
s = open(p).read()
anchor = "\tres.PredictedIO = core.EstimateIO(alg, core.Gather(ctx, spec, a.rel, d.rel))\n"
rule = ""
if os.environ["SIDE"] == "change":
    rule = " %s"
    q = root + "/internal/core/select.go"
    open(q, "a").write("\nfunc Table1(ctx *Context, spec InputSpec, a, d *relation.Relation) Algorithm {\n\treturn table1(ctx, spec, a, d)\n}\n")
args = "a.Name(), d.Name(), a.Len(), d.Len(), a.Pages(), d.Pages()"
if rule:
    args += ", core.Table1(ctx, spec, a.rel, d.rel)"
log = ('\tif opts.Algorithm == Auto {\n\t\tfmt.Fprintf(os.Stderr, "PLAN %s %s %d %d %d %d' + rule + ' %s\\n", '
       + args + ', alg)\n\t}\n')
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
ids = {("article", "ee"): "D1", ("article", "cdrom"): "D2", ("article", "note"): "D3",
       ("article", "title"): "D4", ("inproceedings", "author"): "D5", ("inproceedings", "url"): "D6",
       ("article", "author"): "D7/D10", ("article", "volume"): "D8", ("inproceedings", "pages"): "D9",
       ("people", "education"): "B1", ("item", "listitem"): "B2", ("regions", "mail"): "B3",
       ("person", "city"): "B4", ("category", "text"): "B5", ("closed_auction", "parlist"): "B6",
       ("closed_auction", "price"): "B7", ("item", "text"): "B8", ("open_auction", "increase"): "B9",
       ("listitem", "text"): "B10"}

def read(path, change):
    # step (relations, sizes) -> Counter of (Table 1 pick, AUTO's pick) or (AUTO's pick,)
    steps = collections.OrderedDict()
    for line in open(path):
        if line.startswith("PLAN "):
            f = line.split()
            steps.setdefault(tuple(f[1:7]), collections.Counter())[tuple(f[7:9] if change else f[7:8])] += 1
    return steps

for w in ["join_cold", "serve_hot", "route_miss", "ingest_mix"]:
    par = read(f"{work}/plans.parent.{w}.err", False)
    chg = read(f"{work}/plans.change.{w}.err", True)
    shared = [k for k in chg if k in par]
    agree = sum(1 for k in shared if all((rule,) in par[k] for rule, _ in chg[k]))
    joins = sum(sum(c.values()) for c in chg.values())
    print(f"== {w}: {len(chg)} distinct AUTO join steps ({joins} joins) in the change's run.")
    print(f"   {len(shared)} of them also ran in the parent's run; there the parent's AUTO ran the")
    print(f"   change's Table 1 pick on {agree} of {len(shared)}.")
    diffs = [(k, r, c, n) for k, cnt in chg.items() for (r, c), n in cnt.items() if r != c]
    if not diffs:
        print("   no step changes its algorithm")
    for (a, d, al, dl, ap, dp), r, c, n in diffs:
        a, d = a.removeprefix("tag:"), d.removeprefix("tag:")
        name = "path" if a.startswith("q.") else ids.get((a, d), "")
        print(f"   {name:7s} {a}//{d}  |A|={al} ({ap} pages)  |D|={dl} ({dp} pages): parent {r} -> change {c}  ({n} joins)")
PY
