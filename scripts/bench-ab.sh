#!/usr/bin/env bash
# A/B the repository's benchmark (BENCHMARK.json, bench/) between a parent
# commit and the working tree, the way the merge gate does, before pushing:
#
#   scripts/bench-ab.sh <parent-ref | parent-checkout-dir> [pairs] [workload...]
#
# The parent is built from a detached `git worktree` of <parent-ref> (or
# from an existing checkout when a directory is given), the change from the
# working tree, each through its own bench/run.sh. Every workload is run as
# <pairs> (default 10) alternating pairs — parent first on odd pairs, change
# first on even ones — both sides of a pair with the same seed and the run
# length BENCHMARK.json fixes. The report gives, per workload and end-to-end
# metric, each side's median and quartiles over the pairs, the change of the
# median, how many pairs the change won, and a verdict, the first of these
# that applies:
#
#   REGRESSED   the change's median is worse than the parent's by more than
#               the bound BENCHMARK.json fixes for the metric;
#   gain        over at least ten pairs, the change won at least nine tenths
#               of them (ties count for neither) and the medians differ by
#               more than the distance between the parent's quartiles — the
#               rule a claimed gain has to meet;
#   unresolved  the parent's quartiles lie further apart, relative to its
#               median, than the bound, so the runs cannot tell a change of
#               that size from noise — unless every change run beats every
#               parent run.
#
# With one pair the quartiles coincide, so a single pair is never
# unresolved: that is the form CI runs, where only counters that repeat
# run to run are gated.
#
# Needs jq. Raw results (one JSON line per run) and the runs' logs stay in
# the directory printed at the end. About pairs x workloads x 1 minute.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: $0 <parent-ref | parent-checkout-dir> [pairs] [workload...]" >&2
    exit 2
fi
ref=$1
pairs=${2:-10}
shift $(( $# > 1 ? 2 : 1 ))

root=$(git rev-parse --show-toplevel)
cd "$root"
manifest="$root/BENCHMARK.json"
seconds=$(jq -r .run_seconds "$manifest")
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(jq -r '.workloads[].name' "$manifest")
fi

out=$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")
if [ -d "$ref" ]; then
    parent=$(cd "$ref" && pwd)
else
    parent="$out/parent"
    git worktree add --detach "$parent" "$ref" >&2
    trap 'git worktree remove --force "$parent"' EXIT
fi
echo "bench-ab: parent $parent, change $root, $pairs pairs x ${seconds}s, workloads: ${workloads[*]}" >&2

# run <side> <checkout> <workload> <seed>: one timed run, its result line
# appended to the side's file for the workload.
run() {
    local side=$1 dir=$2 w=$3 seed=$4 line
    line=$(cd "$dir" && bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 2>>"$out/$w.$side.log" | tail -n 1)
    if ! jq -e '.correct and .failed == 0' >/dev/null <<<"$line"; then
        echo "bench-ab: $side run of $w (seed $seed) failed or answered wrongly; see $out/$w.$side.log" >&2
        exit 1
    fi
    echo "$line" >>"$out/$w.$side.jsonl"
}

for w in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        echo "bench-ab: $w pair $i/$pairs" >&2
        if ((i % 2)); then
            run parent "$parent" "$w" "$i"
            run change "$root" "$w" "$i"
        else
            run change "$root" "$w" "$i"
            run parent "$parent" "$w" "$i"
        fi
    done
done

for w in "${workloads[@]}"; do
    jq -r -n --arg w "$w" --slurpfile m "$manifest" \
        --slurpfile parent "$out/$w.parent.jsonl" --slurpfile change "$out/$w.change.jsonl" '
        def quantile(p): sort as $s | ($s | length) as $n
            | (($n - 1) * p) as $x | ($x | floor) as $i
            | if $i + 1 < $n then $s[$i] + ($s[$i + 1] - $s[$i]) * ($x - $i) else $s[$i] end;
        def fmt: . * 1000 | round / 1000 | tostring;
        def summary: "\(quantile(0.5) | fmt) [\(quantile(0.25) | fmt), \(quantile(0.75) | fmt)]";
        "\n== \($w): parent vs change, median [quartiles] over \($parent | length) pairs",
        ($m[0].end_to_end[] | . as $e
            | [$parent[].metrics[$e.name].value] as $p
            | [$change[].metrics[$e.name].value] as $c
            | (if $e.better == "higher" then 1 else -1 end) as $dir
            | ([range(0; $p | length) | select(($c[.] - $p[.]) * $dir > 0)] | length) as $won
            | ([range(0; $p | length) | select(($c[.] - $p[.]) * $dir < 0)] | length) as $lost
            | (($c | quantile(0.5)) - ($p | quantile(0.5))) as $d
            | ($p | quantile(0.5)) as $base
            | (($p | quantile(0.75)) - ($p | quantile(0.25))) as $iqr
            | (if $dir > 0 then ($c | min) > ($p | max) else ($c | max) < ($p | min) end) as $apart
            | (if $base != 0 and -$d * $dir / ($base | fabs) > $e.bound then "  REGRESSED (bound \($e.bound * 100)%)"
               elif ($p | length) >= 10 and $won >= 0.9 * ($p | length) and $d * $dir > $iqr then "  gain"
               elif $base != 0 and $iqr / ($base | fabs) > $e.bound and ($apart | not)
               then "  unresolved (parent spread \($iqr / ($base | fabs) * 100 | fmt)% > bound \($e.bound * 100)%)"
               else "" end) as $verdict
            | "\($e.name) (\($e.unit), \($e.better) is better): \($p | summary) -> \($c | summary)"
              + "  \(if $base != 0 then ($d / $base * 100 | fmt) else "n/a" end)%  won \($won) lost \($lost)\($verdict)")'
done
echo
echo "bench-ab: raw results and logs in $out"
