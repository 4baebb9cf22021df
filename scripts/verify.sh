#!/usr/bin/env sh
# Tier-1 verification gate (README §"Hermetic build").
#
# Runs entirely offline: the workspace has zero registry dependencies by
# policy, so --offline both enforces that policy (any reintroduced
# external crate fails resolution immediately) and makes the gate usable
# in air-gapped CI.
#
# Usage: scripts/verify.sh  (from anywhere; cd's to the repo root)
set -eu

cd "$(dirname "$0")/.."

smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT

lint() { cargo run -q --release -p rh-lint --offline -- "$@"; }
bench() { bin=$1; shift; cargo run -q --release -p rh-bench --bin "$bin" --offline -- "$@"; }

# must_fail_citing CITE CMD...: CMD must fail, and its output must name
# the violated invariant CITE (e.g. "I7 single-recovery").
must_fail_citing() {
    cite=$1 id=${1%% *}
    shift
    case $id in I*) a=an ;; *) a=a ;; esac
    if "$@" > "$smoke_dir/must_fail.txt" 2>&1; then
        echo "FAIL: $* must produce $a $id counterexample" >&2
        exit 1
    fi
    if ! grep -q "$cite" "$smoke_dir/must_fail.txt"; then
        echo "FAIL: $* counterexample must cite $id" >&2
        cat "$smoke_dir/must_fail.txt" >&2
        exit 1
    fi
}

# same_at_jobs N CMD...: CMD --jobs N must print byte-for-byte what
# CMD --jobs 1 prints.
same_at_jobs() {
    n=$1
    shift
    "$@" --jobs 1 > "$smoke_dir/jobs_1.txt"
    "$@" --jobs "$n" > "$smoke_dir/jobs_n.txt"
    if ! cmp -s "$smoke_dir/jobs_1.txt" "$smoke_dir/jobs_n.txt"; then
        echo "FAIL: $* --jobs $n output differs from --jobs 1" >&2
        diff "$smoke_dir/jobs_1.txt" "$smoke_dir/jobs_n.txt" >&2 || true
        exit 1
    fi
}

echo "==> cargo build --release --workspace (offline)"
cargo build --release --workspace --offline

echo "==> cargo test -q --workspace (offline)"
cargo test -q --workspace --offline

# Debug builds cross-check every resume's capture comparison against full
# digests (PERFORMANCE.md "Digest maintenance"); release builds run the
# comparison alone, so its tests run there too.
echo "==> preservation tests without the debug cross-checks (release)"
cargo test -q --release --offline -p rh-storage -p rh-vmm -p rh-faults

echo "==> perfbench self-test (the benchmark builds against the public API it uses)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench fingerprints at full scale (seed 2007)"
# The self-test runs at --tiny, where no fingerprint is pinned. At full
# scale each workload's simulated outputs must match the fingerprint
# perfbench pins for seed 2007, or its last line reads "correct": false.
# The traced cell-churn run logs every typed cell event into an enabled
# log and must match the untraced fingerprint: the only full-scale check
# that the cell's event log changes no simulated number. It also feeds
# the traced counters that parse cell message text.
for run in host-rejuv:0 fleet-campaign:0 cell-churn:0 cell-churn:1; do
    workload=${run%:*} trace=${run#*:}
    if ! cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 2007 --seconds 0 --trace "$trace" \
        > "$smoke_dir/perfbench.txt" ||
        ! tail -n 1 "$smoke_dir/perfbench.txt" | grep -q '"correct": true'; then
        echo "FAIL: perfbench $workload (trace $trace) at seed 2007 is not correct" >&2
        cat "$smoke_dir/perfbench.txt" >&2
        exit 1
    fi
done

echo "==> cargo doc --workspace --no-deps (offline, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> rh-lint --check (static analysis, ratcheted baseline)"
lint --check

echo "==> rh-lint protocol (warm-reboot interleaving checker)"
lint protocol --domains 3

echo "==> rh-lint protocol --faults (crash-recovery invariant I5)"
lint protocol --domains 3 --faults
must_fail_citing "I5 recovery-validation" \
    lint protocol --domains 3 --faults --unsafe-recovery

echo "==> rh-lint fleet (rolling-campaign invariants I6/I7, DESIGN.md §14)"
lint fleet
# The rh-fleet simulator's wave driver must satisfy the same invariants
# under crash interleavings (it is the rule the datacenter campaigns run).
lint fleet --driver wave --hosts 5 --max-down 2 --crashes 2
must_fail_citing "I7 single-recovery" lint fleet --driver buggy-overlap

echo "==> rh-lint postcopy (stream-in invariants P1/P2, DESIGN.md §15)"
lint postcopy
must_fail_citing "P1 validated-before-serve" lint postcopy --buggy

echo "==> rh-lint balloon (cell balloon invariants I8/I9, DESIGN.md §17)"
lint balloon --domains 3
must_fail_citing "I8 frozen-frames-fenced" lint balloon --buggy
must_fail_citing "I9 validated-before-map" lint balloon --buggy-deflate

echo "==> model-checker --jobs determinism smoke (jobs 1 vs 4)"
same_at_jobs 4 lint protocol --domains 4
same_at_jobs 4 lint fleet
same_at_jobs 4 lint postcopy
same_at_jobs 4 lint balloon

echo "==> all --jobs 2 determinism smoke (reduced range, DESIGN.md §10)"
cargo run -q --release -p rh-bench --bin all --offline -- \
    --jobs 2 --max-n 3 --quick --json "$smoke_dir/par.json" \
    --trace-jsonl "$smoke_dir/par.jsonl" \
    > "$smoke_dir/par.txt"
cargo run -q --release -p rh-bench --bin all --offline -- \
    --jobs 1 --max-n 3 --quick --json "$smoke_dir/seq.json" \
    --trace-jsonl "$smoke_dir/seq.jsonl" \
    > "$smoke_dir/seq.txt"
par_digest=$(cksum < "$smoke_dir/par.txt")
seq_digest=$(cksum < "$smoke_dir/seq.txt")
if [ "$par_digest" != "$seq_digest" ]; then
    echo "FAIL: all --jobs 2 output differs from --jobs 1" >&2
    diff "$smoke_dir/seq.txt" "$smoke_dir/par.txt" >&2 || true
    exit 1
fi
for json in par seq; do
    if [ ! -s "$smoke_dir/$json.json" ]; then
        echo "FAIL: all did not write the $json BENCH_repro.json" >&2
        exit 1
    fi
done

echo "==> observability gate (typed trace determinism + zero overhead)"
# The typed event stream must be byte-identical at any worker count.
if ! cmp -s "$smoke_dir/seq.jsonl" "$smoke_dir/par.jsonl"; then
    echo "FAIL: --trace-jsonl output differs between --jobs 1 and --jobs 2" >&2
    diff "$smoke_dir/seq.jsonl" "$smoke_dir/par.jsonl" >&2 || true
    exit 1
fi
if ! grep -q '"kind":"RebootComplete"' "$smoke_dir/seq.jsonl"; then
    echo "FAIL: trace JSONL is missing the RebootComplete event" >&2
    exit 1
fi
# Observability must be free: disabling the trace dump cannot change the
# benchmark report on stdout (profiling stays quarantined in the JSON).
cargo run -q --release -p rh-bench --bin all --offline -- \
    --jobs 1 --max-n 3 --quick --json - > "$smoke_dir/notrace.txt"
if ! cmp -s "$smoke_dir/seq.txt" "$smoke_dir/notrace.txt"; then
    echo "FAIL: enabling --trace-jsonl changed the report on stdout" >&2
    diff "$smoke_dir/notrace.txt" "$smoke_dir/seq.txt" >&2 || true
    exit 1
fi

echo "==> faults --jobs 2 determinism smoke (reliability fault sweep)"
same_at_jobs 2 bench faults --quick

echo "==> frontier --jobs 4 determinism smoke (strategy frontier sweep)"
same_at_jobs 4 bench frontier --quick

echo "==> fleetbench --jobs 4 determinism smoke (datacenter fleet sweep)"
same_at_jobs 4 bench fleetbench --quick

echo "==> cellbench --jobs 4 determinism smoke (serverless cell sweep)"
same_at_jobs 4 bench cellbench --quick

echo "==> bench gate (quick corebench vs committed BENCH_core.json)"
# Quick profile: same workload sizes as the committed full-profile
# baseline, fewer samples. Fails on a silent >15% throughput loss in the
# engine hot path or the digest machinery (PERFORMANCE.md §"Gate policy").
# A quick-profile miss escalates to a careful 15-sample run before the
# gate is declared failed: best-of-15 is robust to transient machine
# load, while a genuine regression fails both runs.
if ! bench corebench --quick --gate BENCH_core.json; then
    echo "==> bench gate: quick profile missed; rechecking with 15 samples"
    bench corebench --iters 15 --gate BENCH_core.json
fi

echo "==> cargo clippy --workspace --all-targets (offline, warnings are errors)"
cargo clippy -q --workspace --all-targets --offline -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> verify OK"
