#!/usr/bin/env bash
# Profile the controller-bound headline cell: gups under srs at T_RH
# 1200 and swap rate 6 (`srs_sim perf` at its default knobs, a
# one-cell sweep that runs the protected cell and its unprotected
# baseline on one pool worker), pinned to one CPU with taskset.
#
# Usage: scripts/profile.sh [cpu] [build-dir]
#
# With perf installed, a Release tree with frame pointers and debug
# info is built and perf samples the pinned run; the top of
# `perf report` prints.  Without perf, a -pg Release tree is
# configured in its own build directory and the top 15 rows of the
# gprof flat profile print.  The default build directory is
# build-perf or build-gprof under the repository root.
set -euo pipefail

root=$(realpath "$(dirname "$0")/..")
cpu=${1:-0}
cell=(perf --workload=gups --mitigation=srs --trh=1200 --rate=6)
jobs=$(nproc)

pid=
trap '[ -n "$pid" ] && kill -TERM "$pid" 2>/dev/null; exit 130' INT TERM

if command -v perf >/dev/null 2>&1; then
    build=${2:-$root/build-perf}
    cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS="-g -fno-omit-frame-pointer" >/dev/null
    cmake --build "$build" -j "$jobs" --target srs_sim >/dev/null
    taskset -c "$cpu" "$build/srs_sim" "${cell[@]}" >/dev/null &
    pid=$!
    perf record -F 999 -g -o "$build/perf.data" -p "$pid" 2>/dev/null
    wait "$pid"
    pid=
    perf report -i "$build/perf.data" --stdio --no-children \
        --percent-limit 1 2>/dev/null | grep -v '^$' | head -n 60
else
    build=${2:-$root/build-gprof}
    cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >/dev/null
    cmake --build "$build" -j "$jobs" --target srs_sim >/dev/null
    # gmon.out lands in the working directory of the profiled run.
    cd "$build"
    rm -f gmon.out
    taskset -c "$cpu" ./srs_sim "${cell[@]}" >/dev/null &
    pid=$!
    wait "$pid"
    pid=
    # The flat profile's header ends with its two column-title lines.
    gprof -b -p ./srs_sim gmon.out |
        awk 'rows < 15 { print } /^ time / { header = 1; next }
             header { ++rows }'
fi
