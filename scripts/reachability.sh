#!/usr/bin/env bash
# List the libsrs functions that no production binary keeps, and check
# that list against scripts/reachability.allow.
#
# Usage: scripts/reachability.sh [build-dir]
#
# A Release tree is configured with -ffunction-sections -fno-inline,
# tests and examples off, and srs_sim plus every bench/*.cpp target
# except micro_structures is linked with -Wl,--gc-sections: the linker
# drops each function that no entry point of these binaries reaches.
# Every srs:: function that libsrs.a defines and no binary keeps
# prints by its demangled qualified name, without its parameter list,
# [abi:...] tags or [clone ...] suffixes.  Destructors are skipped: the
# compiler emits several variants of each, and the kept variant varies.
# Overloads share one name, so a name counts as reached when any of its
# overloads is.  Since names carry no parameter types, the list does
# not depend on how a compiler spells them.
#
# The script exits 1 when a printed name is missing from the allowlist
# (one `name<TAB>consumer` per line, the consumer being the test,
# example or tool that keeps it), or when an allowlisted name is
# reached or no longer exists.  So the list can only shrink.
#
# What it cannot see:
#  - virtual overrides: a kept vtable keeps every function it points
#    at, whether or not any caller dispatches to it;
#  - header-inline functions and templates that libsrs does not use
#    itself: they are emitted only in the translation units that call
#    them, so one that only a test calls never reaches libsrs.a.
#
# The default build directory is build-reach under the repository root.
set -euo pipefail

root=$(realpath "$(dirname "$0")/..")
build=${1:-$root/build-reach}
allow=$root/scripts/reachability.allow
jobs=$(nproc)
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# Run a build step quietly; on failure show its output and stop.
quietly() {
    "$@" >"$scratch/log" 2>&1 || { cat "$scratch/log" >&2; exit 1; }
}

quietly cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Release \
    -DSRS_BUILD_TESTS=OFF -DSRS_BUILD_EXAMPLES=OFF -DSRS_BUILD_BENCHES=ON \
    -DCMAKE_CXX_FLAGS="-ffunction-sections -fno-inline" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"

targets=(srs_sim)
for src in "$root"/bench/*.cpp; do
    name=$(basename "$src" .cpp)
    [ "$name" = micro_structures ] || targets+=("$name")
done
quietly cmake --build "$build" -j "$jobs" --target "${targets[@]}"

# Demangled srs:: function names, one per line.  A name keeps its
# scope and drops every bracketed group: parameter lists (a lambda's
# enclosing function's too), template arguments, ABI tags and clone
# suffixes.  `operator()` and `(anonymous namespace)` are names, not
# groups.
functions() {
    nm --defined-only "$@" 2>/dev/null |
        awk '$2 ~ /^[TtWw]$/ { print $3 }' |
        c++filt -p |
        awk '
        /^srs::/ && !/::~/ {
            out = ""; depth = 0; s = $0
            while (s != "") {
                if (depth == 0 &&
                    match(s, /^(operator(\(\)|<<|>>|<=|>=|->|<|>)|\(anonymous namespace\))/)) {
                    out = out substr(s, 1, RLENGTH)
                    s = substr(s, RLENGTH + 1)
                    continue
                }
                c = substr(s, 1, 1)
                s = substr(s, 2)
                if (index("(<[", c)) ++depth
                else if (index(")>]", c)) --depth
                else if (depth == 0) out = out c
            }
            sub(/ +$/, "", out)
            print out
        }' | LC_ALL=C sort -u
}

functions "$build/libsrs.a" >"$scratch/defined"
for t in "${targets[@]}"; do functions "$build/$t"; done |
    LC_ALL=C sort -u >"$scratch/kept"
LC_ALL=C comm -23 "$scratch/defined" "$scratch/kept" >"$scratch/unreached"

awk -F '\t' '!/^#/ && NF { print $1 }' "$allow" |
    LC_ALL=C sort -u >"$scratch/allowed"

cat "$scratch/unreached"
echo "reachability: $(wc -l <"$scratch/unreached") srs:: functions in" \
     "libsrs.a are kept by none of ${#targets[@]} production binaries" >&2

status=0
while IFS= read -r name; do
    echo "reachability: $name is reached by no production binary and" \
         "is not on scripts/reachability.allow: delete it, or list it" \
         "with the one consumer that keeps it" >&2
    status=1
done < <(LC_ALL=C comm -23 "$scratch/unreached" "$scratch/allowed")
while IFS= read -r name; do
    echo "reachability: $name is on scripts/reachability.allow but is" \
         "now reached or no longer exists: drop its line" >&2
    status=1
done < <(LC_ALL=C comm -13 "$scratch/unreached" "$scratch/allowed")
exit $status
