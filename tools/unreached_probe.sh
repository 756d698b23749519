#!/usr/bin/env bash
# Unreached-code probe: list the library functions no program reaches.
#
#   tools/unreached_probe.sh [build-dir]   (default: build-probe in the repo root)
#
# Configures and builds the repository into build-dir without the tests,
# with one section per function and the linker dropping every section a
# program does not reach. It then subtracts the programs' text symbols (the
# examples, the benches, fuzz_solve, qq_e2e and qq_lint) from the text
# symbols of the qq_* libraries and prints what is left, one demangled name
# per line, sorted. A listed name is only a candidate for deletion; see
# DESIGN.md "Unreached-code probe" for the false positives (inlined
# functions, test oracles) and why this is not a CI gate.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-$root/build-probe}"

mkdir -p "$build"
cmake -B "$build" -S "$root" -DQQ_BUILD_TESTS=OFF \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > "$build/probe-configure.log"
cmake --build "$build" -j 4 > "$build/probe-build.log"

syms() {
  nm -C --defined-only "$@" 2>/dev/null |
    awk '$2 ~ /^[TtW]$/ { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
    sort -u
}

syms $(find "$build" -name 'libqq_*.a') > "$build/lib.txt"
syms $(find "$build/examples" "$build/bench" "$build/tools" \
         -maxdepth 1 -type f -executable) > "$build/prog.txt"
comm -23 "$build/lib.txt" "$build/prog.txt" |
  grep '^qq::' | grep -v '\[clone' || true
