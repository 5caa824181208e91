#!/usr/bin/env bash
# Lists every strong libstaq.a function that no non-test program keeps.
#
#   tools/unused_functions.sh BUILD_DIR
#
# Builds, into BUILD_DIR, the library and every non-test program at -O0
# with -ffunction-sections, linked with --gc-sections: the 15 benches, the
# 6 examples and staq_cli from this tree, and the staqbench sources as one
# program (staqbench/, into BUILD_DIR/staqbench). -O0 inlines nothing, so
# a function no program keeps is one no program calls, not one inlined
# into its callers. A strong function is a text symbol of type T in
# libstaq.a; inline functions and template instances are weak (W) and are
# not counted. Prints the unkept functions demangled, one a line and
# sorted, then their count. The build takes a few minutes on four cores,
# so the check is not part of tier-1. JOBS sets the build's parallelism
# (default 4).
set -euo pipefail

build=${1:?usage: $0 BUILD_DIR}
repo=$(cd "$(dirname "$0")/.." && pwd)
jobs=${JOBS:-4}
mkdir -p "$build"
build=$(cd "$build" && pwd)

flags=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

benches=(table1 table2 fig3 fig4 fig5 ablation labeling serve load store ml
         net quality)
examples=(quickstart vaccination_planning fairness_audit dynamic_scenario
          temporal_profile gtfs_io)
targets=(staq staq_cli bench_router bench_features "${examples[@]}")
for b in "${benches[@]}"; do targets+=("bench_$b"); done

cmake -S "$repo" -B "$build" "${flags[@]}" > /dev/null
cmake --build "$build" -j "$jobs" --target "${targets[@]}" > /dev/null
cmake -S "$repo/staqbench" -B "$build/staqbench" "${flags[@]}" > /dev/null
cmake --build "$build/staqbench" -j "$jobs" --target staqbench > /dev/null

programs=("$build/tools/staq_cli" "$build/bench/bench_router"
          "$build/bench/bench_features" "$build/staqbench/staqbench")
for b in "${benches[@]}"; do programs+=("$build/bench/bench_$b"); done
for e in "${examples[@]}"; do programs+=("$build/examples/$e"); done

strong=$(nm --defined-only "$build/src/libstaq.a" 2>/dev/null |
         awk '$2 == "T" { print $3 }' | sort -u)
kept=$(for p in "${programs[@]}"; do
         nm --defined-only "$p" | awk '$2 == "T" || $2 == "t" { print $3 }'
       done | sort -u)
unkept=$(comm -23 <(echo "$strong") <(echo "$kept") | c++filt | sort)

if [[ -n "$unkept" ]]; then echo "$unkept"; fi
echo "$(grep -c . <<< "$unkept" || true) of $(grep -c . <<< "$strong")" \
     "strong libstaq.a functions are kept by no non-test program" \
     "(${#programs[@]} programs)"
