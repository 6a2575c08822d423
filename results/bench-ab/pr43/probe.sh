#!/usr/bin/env bash
# One full-length ingest_mix run per side (seed 1, the manifest's 20 s
# window after its warm-up) that records, for every AUTO join step, the
# relations, their sizes, whether each input is ordered and the algorithm
# AUTO ran (one PLAN line per join, as results/bench-ab/pr40/plans-probe.sh
# prints them), and, after every ingest commit, the collection forest's
# PBiTree height, the pages and records of the stored article relation and
# the store's global renumber count (one HEIGHT line per commit). bench/ is
# not touched: each side runs from a copy of its checkout with those two
# prints added.
#
#   results/bench-ab/pr43/probe.sh <parent-checkout> <change-checkout> <scratch-dir> > probe.txt
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
p = sys.argv[1] + "/internal/ingest/store.go"
s = open(p).read()
anchor = "\ts.forest.ResetChanges()\n"
log = ('\tif r := s.rels[relPrefix+"article"]; r != nil {\n\t\tfmt.Fprintf(os.Stderr, "HEIGHT %d %d %d %d %d\\n", '
       's.man.Current, s.forest.Height, r.Pages(), r.Len(), s.renumGlobal.Load())\n\t}\n')
assert anchor in s
s = s.replace(anchor, anchor + log, 1)
open(p, "w").write(s)
PY
    (cd "$work/$side" && bash bench/run.sh --workload ingest_mix --seed 1 --seconds 20 --trace 0 \
        > "$work/probe.$side.out" 2> "$work/probe.$side.err")
done

python3 - "$work" <<'PY'
import sys
work = sys.argv[1]
for side in ["parent", "change"]:
    joins = ordered = 0
    algs = {}
    for line in open(f"{work}/probe.{side}.err"):
        f = line.split()
        if f[:1] == ["PLAN"]:
            joins += 1
            both = f[7] == "true" and f[8] == "true"
            ordered += both
            key = ("both inputs ordered" if both else "an input unordered", f[9])
            algs[key] = algs.get(key, 0) + 1
    print(f"== {side}: {joins} ingest_mix AUTO joins, {ordered} ({100 * ordered / joins:.1f} %) with both inputs ordered")
    for (kind, alg), n in sorted(algs.items(), key=lambda x: -x[1]):
        print(f"   {kind:20s} {alg:12s} {n:7d} joins")
    rows = [list(map(int, l.split()[1:])) for l in open(f"{work}/probe.{side}.err") if l.startswith("HEIGHT ")]
    if not rows:
        print("   no HEIGHT lines")
        continue
    print(f"   {len(rows)} commits; tree height {rows[0][1]} -> {rows[-1][1]} (max {max(r[1] for r in rows)}); "
          f"global renumbers {rows[0][4]} -> {rows[-1][4]}")
    print(f"   article: {rows[0][2]} pages / {rows[0][3]} records -> {rows[-1][2]} pages / {rows[-1][3]} records "
          f"({rows[-1][3] / rows[-1][2]:.1f} records a page at the end)")
    # The height and article pages at each tenth of the run's commits.
    step = max(1, len(rows) // 10)
    print("   epoch height article-pages article-records global-renumbers, every", step, "commits:")
    for r in rows[::step] + [rows[-1]]:
        print("     " + " ".join(str(x) for x in r))
PY
