#!/usr/bin/env bash
# Paired perfbench comparison of the working tree against a base commit.
#
#   scripts/bench_gate.sh [--base REV] [--pairs N] [--seconds S]
#                         [--workload NAME]...
#
# Exports REV (default HEAD, i.e. the uncommitted change; pass --base
# HEAD~1 after committing) into a temporary directory, then runs
# `python3 perfbench/run.py` on the base and on the working tree in
# alternation, N pairs per workload (default 10 pairs of 10 s runs over
# every workload in BENCHMARK.json). Pair i runs both sides with seed i;
# odd pairs run the base first, even pairs the change, so slow drift of
# the machine does not favour one side. For each end-to-end metric that
# BENCHMARK.json gates it prints each side's median and quartiles, the
# median of the per-pair ratios (>1 means the change is better), the
# pairs the change won (ties count for neither side), and whether the
# medians differ by more than the base runs' interquartile range. Set
# TMPDIR to choose where the base is built. Exits nonzero if a run fails.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
base_rev="HEAD"
pairs=10
seconds=10
workloads=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --base) base_rev="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workload) workloads+=("$2"); shift 2 ;;
    -h|--help) sed -n '2,18p' "${BASH_SOURCE[0]}"; exit 0 ;;
    *) echo "bench_gate: unknown argument $1" >&2; exit 2 ;;
  esac
done

# A plain export rather than a git worktree: nothing to unregister
# afterwards, and the base builds from exactly the committed files.
base_dir="$(mktemp -d "${TMPDIR:-/tmp}/bench_gate_base.XXXXXX")"
trap 'rm -rf "$base_dir"' EXIT
git -C "$repo" archive "$base_rev" | tar -x -C "$base_dir"
echo "bench_gate: base $(git -C "$repo" rev-parse --short "$base_rev") in $base_dir" >&2

python3 - "$repo" "$base_dir" "$pairs" "$seconds" "${workloads[@]}" <<'PYEOF'
import json
import statistics
import subprocess
import sys

repo, base_dir, pairs, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
bench = json.load(open(repo + "/BENCHMARK.json"))
workloads = sys.argv[5:] or [w["name"] for w in bench["workloads"]]
gated = bench["end_to_end"]


def run(root, workload, seed):
    cmd = ["python3", root + "/perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", seconds]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = [l for l in out.stdout.splitlines() if l.startswith("{")]
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        sys.exit("bench_gate: %s run failed in %s" % (workload, root))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


for workload in workloads:
    base_runs, change_runs = [], []
    for i in range(1, pairs + 1):
        sides = [(base_dir, base_runs), (repo, change_runs)]
        if i % 2 == 0:
            sides.reverse()
        for root, runs in sides:
            runs.append(run(root, workload, i))
        sys.stderr.write("bench_gate: %s pair %d/%d done\n" % (workload, i, pairs))
    print("== %s: %d pairs of %ss runs ==" % (workload, pairs, seconds))
    print("  failed ops   base %s   change %s" % (
        [r["failed"] for r in base_runs], [r["failed"] for r in change_runs]))
    print("  %-18s %26s %26s %8s %6s %s" % (
        "metric", "base median [q1, q3]", "change median [q1, q3]", "ratio",
        "won", "beyond base IQR"))
    for m in gated:
        name, lower = m["name"], m["better"] == "lower"
        b = [r["metrics"][name]["value"] for r in base_runs]
        c = [r["metrics"][name]["value"] for r in change_runs]
        ratios, won = [], 0
        for bv, cv in zip(b, c):
            num, den = (bv, cv) if lower else (cv, bv)
            ratios.append(num / den if den else float("inf"))
            won += (cv < bv) if lower else (cv > bv)
        bq, cq = quartiles(b), quartiles(c)
        bm, cm = statistics.median(b), statistics.median(c)
        print("  %-18s %9.4g [%6.4g, %6.4g] %9.4g [%6.4g, %6.4g] %7.3fx %3d/%-2d %s" % (
            name, bm, bq[0], bq[1], cm, cq[0], cq[1],
            statistics.median(ratios), won, pairs,
            "yes" if abs(cm - bm) > bq[1] - bq[0] else "no"))
PYEOF
