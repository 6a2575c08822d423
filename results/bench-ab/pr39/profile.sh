#!/usr/bin/env bash
# CPU profile of one benchmark run's measured window, for the parent and
# the change — the recipe behind route_miss_profile.txt. bench/ is not
# touched: each side is a copy of its checkout whose bench/timed.go
# (loadHTTP) starts pprof.StartCPUProfile when the measured window opens
# and stops it when the window closes, writing $PROF_DIR/cpu.pb.gz. The
# router and the nodes of route_miss run in the benchmark's own process,
# so the profile covers all of them.
#
#   results/bench-ab/pr39/profile.sh <parent-checkout> <change-checkout> <scratch-dir> [workload] [seed]
#
# Then, per side:
#   go tool pprof -top -cum -nodecount=100000 -nodefraction=0 -edgefraction=0 <scratch-dir>/<side>/cpu/cpu.pb.gz
set -euo pipefail
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd) work=$3
workload=${4:-route_miss} seed=${5:-1}
mkdir -p "$work"
work=$(cd "$work" && pwd)
for side in parent change; do
    src=$parent
    [ $side = change ] && src=$change
    rm -rf "$work/$side"
    cp -r "$src" "$work/$side"
    rm -rf "$work/$side/.bench_build" "$work/$side/.bench_work"
    python3 - "$work/$side/bench/timed.go" <<'PY'
import sys
p = sys.argv[1]
s = open(p).read()
start = "\tm := measured{before: readUsage()}\n\tmStart := time.Since(began)\n"
stop = "\tm.after = readUsage()\n\tmEnd := time.Since(began)\n"
assert start in s and stop in s
s = s.replace(start, start + '\tif dir := os.Getenv("PROF_DIR"); dir != "" {\n'
              '\t\tos.MkdirAll(dir, 0o755)\n\t\tf, _ := os.Create(dir + "/cpu.pb.gz")\n'
              '\t\tpprof.StartCPUProfile(f)\n\t\tdefer f.Close()\n\t}\n', 1)
s = s.replace(stop, '\tpprof.StopCPUProfile()\n' + stop, 1)
s = s.replace("import (\n", 'import (\n\t"runtime/pprof"\n', 1)
if '\t"os"\n' not in s:
    s = s.replace("import (\n", 'import (\n\t"os"\n', 1)
open(p, "w").write(s)
PY
    (cd "$work/$side" && PROF_DIR=cpu bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 20 --trace 0 \
        > "$work/$side.out" 2> "$work/$side.err")
    tail -1 "$work/$side.out"
done
