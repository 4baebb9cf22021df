#!/usr/bin/env sh
# Alternating perfbench pairs: the benchmark's own comparison of two
# revisions, on one workload or several.
#
# Usage: scripts/perf_pairs.sh PARENT CHANGE WORKLOADS [SEED] [PAIRS]
#        (from anywhere; cd's to the repo root)
#
# PARENT and CHANGE are git revisions; WORKLOADS is a perfbench workload
# (host-rejuv, fleet-campaign or cell-churn) or a comma-separated list of
# them; SEED defaults to 2007 and PAIRS to 10. Both revisions are exported
# with `git archive` into the sibling directories p/ and c/ (paths of
# equal length) under one temporary directory, removed on exit, and each
# side's perfbench is built offline, once, into its own target directory
# there. Then, workload by workload, PAIRS pairs of 15 s `--trace 0` runs
# alternate, through each side's `perfbench/run.py`: the parent runs first
# on odd pairs, the change on even ones.
#
# Printed per workload: each run's `correct`, `failed`, `wall_s`,
# `setup_s` and `peak_rss_mb`; then, per metric, each side's median and
# quartiles (Python's inclusive method), the change's wins (lower is
# better; ties count for neither side), and whether the gain rule of the
# choosing-metrics guide holds: the change wins at least nine tenths of
# the pairs, and its median is lower than the parent's by more than the
# parent's interquartile range. Under that, whether the change's median is
# worse than the parent's by more than the metric's `bound` in the
# checkout's BENCHMARK.json (a fraction of the parent's median), the
# limit past which the benchmark refuses a change. Exits 1 if any run is
# incorrect, reports failed operations or does not finish, 2 on a usage
# error, else 0 whether or not the rule holds or a bound is passed.
# verify.sh does not run this script.
set -eu

usage() {
    echo "usage: scripts/perf_pairs.sh PARENT CHANGE WORKLOADS [SEED] [PAIRS]" >&2
    exit 2
}

[ "$#" -ge 3 ] && [ "$#" -le 5 ] || usage
parent=$1 change=$2 workloads=$3 seed=${4:-2007} pairs=${5:-10}
case $workloads in '' | ,* | *, | *,,* | *[!a-z0-9,-]*) usage ;; esac
case $seed in '' | *[!0-9]*) usage ;; esac
case $pairs in '' | *[!0-9]* | 0) usage ;; esac

cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
for side in p c; do
    case $side in
    p) rev=$parent ;;
    c) rev=$change ;;
    esac
    mkdir "$work/$side"
    git archive --format=tar "$rev" | tar -x -C "$work/$side"
    echo "==> building perfbench at $rev (offline)" >&2
    CARGO_TARGET_DIR="$work/$side/.bench_build" cargo build -q --release --offline \
        --manifest-path "$work/$side/perfbench/Cargo.toml"
done

# run WORKLOAD SIDE PAIR: one 15 s untraced run; appends
# "WORKLOAD PAIR SIDE JSON" to the log.
run() {
    out=$(cd "$work/$2" && CARGO_TARGET_DIR="$work/$2/.bench_build" python3 perfbench/run.py \
        --workload "$1" --seed "$seed" --seconds 15 --trace 0 2>/dev/null | tail -n 1) ||
        out=null
    echo "$1 $3 $2 ${out:-null}" >> "$work/runs"
}

for workload in $(echo "$workloads" | tr ',' ' '); do
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then
            run "$workload" p "$i"
            run "$workload" c "$i"
        else
            run "$workload" c "$i"
            run "$workload" p "$i"
        fi
        echo "==> $workload: pair $i of $pairs done" >&2
        i=$((i + 1))
    done
done

python3 - "$work/runs" BENCHMARK.json "$parent" "$change" "$workloads" "$seed" <<'EOF'
import json
import math
import statistics
import sys

path, bench, parent, change, workloads, seed = sys.argv[1:]
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
with open(bench) as f:
    declared = {m["name"]: m for m in json.load(f)["end_to_end"]}
runs = {}
bad = 0
with open(path) as f:
    for line in f:
        workload, pair, side, raw = line.rstrip("\n").split(" ", 3)
        runs.setdefault(workload, []).append((int(pair), side, raw))


def report(workload, lines):
    """Prints one workload's runs and verdicts; returns its bad runs."""
    bad = 0
    sides = {"p": {}, "c": {}}
    print(f"{workload} at seed {seed}: parent {parent} (p) vs change {change} (c)")
    print(f"{'pair':>4} {'side':>4} {'correct':>7} {'failed':>6} "
          + " ".join(f"{m:>12}" for m in METRICS))
    for pair, side, raw in lines:
        try:
            r = json.loads(raw)
            values = {m: float(r["metrics"][m]["value"]) for m in METRICS}
            correct, failed = bool(r["correct"]), int(r["failed"])
        except (ValueError, KeyError, TypeError):
            print(f"{pair:>4} {side:>4} did not finish")
            bad += 1
            continue
        bad += int(not correct or failed > 0)
        sides[side][pair] = values
        print(f"{pair:>4} {side:>4} {str(correct).lower():>7} {failed:>6} "
              + " ".join(f"{values[m]:>12.6g}" for m in METRICS))

    pairs = sorted(set(sides["p"]) & set(sides["c"]))
    if not pairs:
        print("no pair finished on both sides")
        return bad
    need = math.ceil(0.9 * len(pairs))
    print()
    print(f"{'metric':<12} {'side':>4} {'q1':>12} {'median':>12} {'q3':>12}  "
          f"verdict over {len(pairs)} pairs")
    for m in METRICS:
        quart = {}
        for side in "pc":
            xs = [sides[side][i][m] for i in pairs]
            quart[side] = (statistics.quantiles(xs, n=4, method="inclusive")
                           if len(xs) > 1 else xs * 3)
            q1, med, q3 = quart[side]
            print(f"{m:<12} {side:>4} {q1:>12.6g} {med:>12.6g} {q3:>12.6g}")
        wins = sum(sides["c"][i][m] < sides["p"][i][m] for i in pairs)
        losses = sum(sides["c"][i][m] > sides["p"][i][m] for i in pairs)
        gap = quart["p"][1] - quart["c"][1]
        iqr = quart["p"][2] - quart["p"][0]
        holds = wins >= need and gap > iqr
        change_pct = 100.0 * -gap / quart["p"][1] if quart["p"][1] else 0.0
        print(f"{'':<12} change {change_pct:+.1f} %, lower in {wins} of {len(pairs)} "
              f"(higher in {losses}); median gap {gap:.6g} vs parent IQR {iqr:.6g}; "
              f"gain rule {'holds' if holds else 'does not hold'}")
        spec = declared.get(m)
        if spec is None:
            print(f"{'':<12} no bound for {m} in {bench}")
            continue
        bound = 100.0 * float(spec["bound"])
        worse = change_pct if spec["better"] == "lower" else -change_pct
        verdict = ("worse than the parent's by more than the bound" if worse > bound
                   else "within the bound")
        print(f"{'':<12} bound {bound:g} % ({spec['better']} is better): "
              f"change median {verdict}")
    return bad


for workload in workloads.split(","):
    bad += report(workload, runs.get(workload, []))
    print()
if bad:
    print(f"{bad} run(s) incorrect, failed or unfinished")
sys.exit(1 if bad else 0)
EOF
