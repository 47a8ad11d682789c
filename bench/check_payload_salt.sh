#!/bin/sh
# Result-store salt guard: a change that moves result bytes must bump
# sim::kResultCacheSalt, or stores written before it serve stale results
# (DESIGN.md §8 "Salting and versioning").
#
#   bench/check_payload_salt.sh <base>
#
# Builds bench_payload_digest (Release) at the commit <base>, exported
# with `git archive`, and in the work tree, and runs both over 64
# world-grid sites x {Baseline, All-ND}, scalar and batch=8.  Prints how
# many scalar and lane payloads moved, and exits non-zero when any moved
# while kResultCacheSalt reads the same in both trees.  The lane
# payloads come from -march=native kernels, so both builds must run on
# one machine.  A base that predates the bench gets its source copied in.
#
# Both builds go under a fresh temporary directory, removed on exit;
# nothing is written to the work tree.

set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 <base-commit>" >&2
    exit 2
fi
base=$1
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
trap 'exit 1' HUP INT TERM
jobs=$(nproc 2>/dev/null || echo 2)

mkdir "$work/base"
git -C "$root" archive "$base" | tar -x -C "$work/base"
if ! grep -q bench_payload_digest "$work/base/bench/CMakeLists.txt"; then
    cp "$root/bench/bench_payload_digest.cpp" "$work/base/bench/"
    echo 'coolair_bench(bench_payload_digest)' \
        >> "$work/base/bench/CMakeLists.txt"
fi

digest() {  # digest <source tree> <build dir> <output file>
    cmake -B "$2" -S "$1" -DCMAKE_BUILD_TYPE=Release > "$2.log" 2>&1 &&
        cmake --build "$2" -j "$jobs" --target bench_payload_digest \
            >> "$2.log" 2>&1 || {
        tail -n 50 "$2.log" >&2
        echo "build of $1 failed" >&2
        exit 1
    }
    COOLAIR_WORLD_SITES=64 "$2/bench/bench_payload_digest" > "$3"
}
digest "$work/base" "$work/base-build" "$work/base.txt"
digest "$root" "$work/head-build" "$work/head.txt"

salt() {
    sed -n 's/.*kResultCacheSalt\[\] = "\(.*\)";.*/\1/p' \
        "$1/src/sim/result_cache.hpp"
}
base_salt=$(salt "$work/base")
head_salt=$(salt "$root")

# Lines are "<path> <index> <site> <system> <digest>", in spec order.
moved() {  # moved <path>: "<moved> <total>" for one path's payloads
    awk -v p="$1" '
        NR == FNR { base[FNR] = $NF; next }
        $1 == p && $2 != "total" { n++; if ($NF != base[FNR]) m++ }
        END { printf "%d %d\n", m, n }' "$work/base.txt" "$work/head.txt"
}
set -- $(moved scalar)
scalar_moved=$1 scalar_total=$2
set -- $(moved batch=8)
lane_moved=$1 lane_total=$2

echo "salt: $base_salt at $base, $head_salt in the work tree"
echo "moved: $scalar_moved of $scalar_total scalar payloads," \
     "$lane_moved of $lane_total lane payloads"
if [ $((scalar_moved + lane_moved)) -gt 0 ] &&
   [ "$base_salt" = "$head_salt" ]; then
    echo "FAIL: payloads moved but kResultCacheSalt is still" \
         "\"$head_salt\"; bump it in src/sim/result_cache.hpp" >&2
    exit 1
fi
echo "ok"
