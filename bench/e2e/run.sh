#!/usr/bin/env bash
# End-to-end QAOA^2 benchmark (bench/e2e/README.md). Builds the repository
# in Release into .bench_build/e2e, then runs each workload in its own
# process so peak_rss_mb belongs to that workload.
#
#   bench/e2e/run.sh [--workload W] [--seed S] [--seconds T]
#                    [--trace 0|1 | --traced] [--smoke]
#
# Run from the repository root. Without --workload every workload runs in
# turn. --trace 1 (or --traced) reports the per-layer metrics and writes a
# Chrome trace per workload to .bench_build/e2e/traces/. --smoke runs every
# workload at reduced size in about 15 s. The last line a single-workload
# run prints is its JSON result; the exit status is non-zero when any
# correctness check fails.
set -euo pipefail

workloads=(fig4_er500 er1000_warm pp16_r16 service_openloop)
workload=""
seed=1
seconds=22
trace=0
smoke=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    --trace) trace="${2:?--trace needs 0 or 1}"; shift 2 ;;
    --traced) trace=1; shift ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

if [ ! -f bench/e2e/CMakeLists.txt ] || [ ! -f src/CMakeLists.txt ]; then
  echo "run.sh: run from the root of a full repository checkout" >&2
  exit 2
fi

nproc_all=$(nproc)
width=$(( nproc_all < 4 ? nproc_all : 4 ))
build="${CARGO_TARGET_DIR:-.bench_build}/e2e"
# Configure once; the build step re-runs cmake itself when a CMakeLists
# changes.
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target qq_e2e -j "$width" >&2

# One pool of min(nproc, 4) threads serves the engine and the kernels.
export QQ_THREADS="$width"

run_one() {
  local args=(--workload "$1" --seed "$seed" --trace "$trace"
              --golden bench/e2e/golden.txt --trace-dir "$build/traces")
  if [ "$smoke" = 1 ]; then
    args+=(--smoke --seconds 1.5)
  else
    args+=(--seconds "$seconds")
  fi
  "$build/qq_e2e" "${args[@]}"
}

if [ -n "$workload" ]; then
  run_one "$workload"
  exit $?
fi

status=0
for w in "${workloads[@]}"; do
  run_one "$w" || status=1
done
exit "$status"
