#!/usr/bin/env bash
# Same-day A/B of the end-to-end benchmark (bench/e2e) between a base
# revision and the working tree.
#
#   tools/e2e_ab.sh <base-rev> [--workload W[,W...]] [--pairs N]
#                   [--cpus LIST]
#
# Run from the repository root. The base revision is exported with
# `git archive` into .bench_build/ab/<sha>/ (a plain directory, no network,
# no worktree metadata left in .git) and the working tree is the change, so
# uncommitted edits are measured. Each side builds and runs its OWN
# bench/e2e/run.sh, so a change to the benchmark itself is compared as
# shipped, with run.sh's own run length and seed. Each side first runs its
# smoke check for the workload (which also builds it); then N pairs of full
# runs alternate base and change, the side that goes first alternating too.
#
# For every metric both sides report, it prints the median of the per-pair
# ratios change/base and their range, the number of pairs in which the
# change was better, and, for the end-to-end metrics BENCHMARK.json bounds,
# whether the median ratio crosses the bound. The same goes to
# .bench_build/ab/result.json; build output and every run's report go to
# .bench_build/ab/runs.log. --cpus pins both sides with
# `taskset -c LIST`; run.sh sizes its pool as min(nproc, 4) under that
# affinity, and the tool states the width it ran with. The exit status is 1
# when a run failed or a bound was crossed for the worse, 2 on a usage error.
set -euo pipefail

usage() {
  sed -n '4,5p' "$0" | sed 's/^# *//' >&2
  exit 2
}

[ $# -ge 1 ] || usage
base_rev="$1"
shift
workloads="fig4_er500,er1000_warm,pp16_r16,service_openloop"
pairs=5
cpus=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workloads="${2:?--workload needs a value}"; shift 2 ;;
    --pairs) pairs="${2:?--pairs needs a value}"; shift 2 ;;
    --cpus) cpus="${2:?--cpus needs a value}"; shift 2 ;;
    *) echo "e2e_ab.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
case "$pairs" in
  ''|*[!0-9]*|0) echo "e2e_ab.sh: --pairs expects a positive integer" >&2
                 exit 2 ;;
esac
if [ ! -f bench/e2e/run.sh ] || [ ! -f BENCHMARK.json ]; then
  echo "e2e_ab.sh: run from the repository root" >&2
  exit 2
fi
base_sha=$(git rev-parse --verify --quiet "${base_rev}^{commit}") || {
  echo "e2e_ab.sh: '$base_rev' is not a commit" >&2
  exit 2
}

root=$(pwd)
base_dir="$root/.bench_build/ab/$base_sha"
if [ ! -f "$base_dir/bench/e2e/run.sh" ]; then
  rm -rf "$base_dir"
  mkdir -p "$base_dir"
  git archive "$base_sha" | tar -x -C "$base_dir"
fi
json="$root/.bench_build/ab/result.json"
raw=$(mktemp "$root/.bench_build/ab/runs.XXXXXX")
trap 'rm -f "$raw"' EXIT
# Build output and each run's report go here, not to the terminal.
log="$root/.bench_build/ab/runs.log"
: >"$log"

pin=()
[ -n "$cpus" ] && pin=(taskset -c "$cpus")
nproc_pinned=$("${pin[@]}" nproc)
width=$(( nproc_pinned < 4 ? nproc_pinned : 4 ))
echo "e2e_ab: base $base_sha vs working tree at $(git rev-parse --short HEAD)," \
     "$pairs pairs, pool width $width" \
     "(nproc $nproc_pinned${cpus:+, cpus $cpus})" >&2

# run_side <side> <dir> <workload>: one full run, JSON line to $raw tagged
# with side and workload; returns run.sh's status.
run_side() {
  local side="$1" dir="$2" w="$3"
  local out status=0
  out=$(cd "$dir" && env -u CARGO_TARGET_DIR "${pin[@]}" \
          bash bench/e2e/run.sh --workload "$w" \
          2>>"$log") || status=$?
  printf '%s\n' "$out" >>"$log"
  local last
  last=$(printf '%s\n' "$out" | tail -n 1)
  case "$last" in
    "{"*) printf '%s\t%s\t%s\t%s\n' "$side" "$w" "$status" "$last" >>"$raw" ;;
    *) printf '%s\t%s\t%s\t{}\n' "$side" "$w" "$status" >>"$raw" ;;
  esac
  return "$status"
}

status=0
IFS=',' read -r -a wl <<<"$workloads"
for w in "${wl[@]}"; do
  for side in base change; do
    dir="$root"
    [ "$side" = base ] && dir="$base_dir"
    if ! (cd "$dir" && env -u CARGO_TARGET_DIR "${pin[@]}" \
            bash bench/e2e/run.sh --workload "$w" --smoke >>"$log" 2>&1); then
      echo "e2e_ab: $side smoke run of $w failed (see $log)" >&2
      status=1
    fi
  done
  for ((i = 0; i < pairs; ++i)); do
    order=(base change)
    (( i % 2 == 1 )) && order=(change base)
    for side in "${order[@]}"; do
      dir="$root"
      [ "$side" = base ] && dir="$base_dir"
      run_side "$side" "$dir" "$w" ||
        { echo "e2e_ab: $side run $((i + 1)) of $w failed (see $log)" >&2
          status=1; }
    done
    echo "e2e_ab: $w pair $((i + 1))/$pairs done" >&2
  done
done

python3 - "$raw" "$json" "$base_sha" "$width" "$pairs" "${cpus:-}" \
    <<'PY' || status=1
import json, statistics, sys

raw, out, base_sha, width, pairs, cpus = sys.argv[1:7]
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m for m in bench["end_to_end"]}
better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}

runs = {}
for line in open(raw):
    side, w, code, doc = line.rstrip("\n").split("\t", 3)
    runs.setdefault(w, {"base": [], "change": []})[side].append(
        (int(code), json.loads(doc)))

report = {"base": base_sha, "change": "working tree", "pool_width": int(width),
          "cpus": cpus or None, "pairs": int(pairs), "workloads": {}}
crossed_worse = False
for w, sides in runs.items():
    entry = {"failed_runs": {s: sum(1 for c, d in sides[s]
                                    if c != 0 or d.get("correct") is not True)
                             for s in ("base", "change")},
             "metrics": {}}
    # Pair k is the k-th base run with the k-th change run; a metric is
    # compared over the pairs in which both runs reported it.
    paired = list(zip([d.get("metrics", {}) for _, d in sides["base"]],
                      [d.get("metrics", {}) for _, d in sides["change"]]))
    names = sorted({k for bm, cm in paired for k in bm if k in cm})
    print(f"\n{w}: {len(paired)} pairs, pool width {width}")
    print(f"  {'metric':34} {'base p50':>12} {'change p50':>12} "
          f"{'ratio p50':>10} {'ratio range':>17} {'better':>7}  flag")
    for name in names:
        both = [(bm[name]["value"], cm[name]["value"]) for bm, cm in paired
                if name in bm and name in cm]
        b = [bv for bv, _ in both]
        c = [cv for _, cv in both]
        n = len(both)
        ratios = [cv / bv for bv, cv in both if bv != 0]
        direction = better.get(name, "lower")
        wins = sum(1 for bv, cv in both
                   if (cv < bv if direction == "lower" else cv > bv))
        m = {"pairs": n, "base_median": statistics.median(b),
             "change_median": statistics.median(c),
             "better": direction, "better_in_pairs": wins,
             "base_values": b, "change_values": c}
        if n >= 4:
            q = statistics.quantiles(b, n=4)
            m["base_iqr"] = q[2] - q[0]
        flag = ""
        if ratios:
            r = statistics.median(ratios)
            m.update(median_ratio=r, min_ratio=min(ratios),
                     max_ratio=max(ratios))
            if name in bounds:
                bound = bounds[name]["bound"]
                worse = r - 1 if direction == "lower" else 1 - r
                m["bound"] = bound
                m["crossed"] = ("worse" if worse > bound else
                                "better" if -worse > bound else None)
                if m["crossed"] == "worse":
                    crossed_worse = True
                flag = {"worse": "BOUND CROSSED (worse)",
                        "better": "bound crossed (better)",
                        None: ""}[m["crossed"]]
            rng = f"{min(ratios):.3f}..{max(ratios):.3f}"
            print(f"  {name:34} {m['base_median']:12.5g} "
                  f"{m['change_median']:12.5g} {r:10.3f} {rng:>17} "
                  f"{wins:3d}/{n:<3d}  {flag}")
        entry["metrics"][name] = m
    failed = entry["failed_runs"]
    print(f"  failed runs: base {failed['base']}, change {failed['change']}")
    report["workloads"][w] = entry

json.dump(report, open(out, "w"), indent=1)
print(f"\nJSON: {out}")
sys.exit(1 if crossed_worse else 0)
PY
exit "$status"
