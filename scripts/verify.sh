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

echo "==> cargo build --release --workspace (offline)"
cargo build --release --workspace --offline

echo "==> cargo test -q --workspace (offline)"
cargo test -q --workspace --offline

echo "==> perfbench self-test (the benchmark builds against the public API it uses)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo doc --workspace --no-deps (offline, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> rh-lint --check (static analysis, ratcheted baseline)"
cargo run -q --release -p rh-lint --offline -- --check

echo "==> rh-lint protocol (warm-reboot interleaving checker)"
cargo run -q --release -p rh-lint --offline -- protocol --domains 3

echo "==> rh-lint protocol --faults (crash-recovery invariant I5)"
cargo run -q --release -p rh-lint --offline -- protocol --domains 3 --faults
if cargo run -q --release -p rh-lint --offline -- \
    protocol --domains 3 --faults --unsafe-recovery >/dev/null 2>&1; then
    echo "FAIL: --unsafe-recovery must produce an I5 counterexample" >&2
    exit 1
fi

smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT

echo "==> rh-lint fleet (rolling-campaign invariants I6/I7, DESIGN.md §14)"
cargo run -q --release -p rh-lint --offline -- fleet
# The rh-fleet simulator's wave driver must satisfy the same invariants
# under crash interleavings (it is the rule the datacenter campaigns run).
cargo run -q --release -p rh-lint --offline -- \
    fleet --driver wave --hosts 5 --max-down 2 --crashes 2
if cargo run -q --release -p rh-lint --offline -- \
    fleet --buggy-overlap > "$smoke_dir/fleet_buggy.txt" 2>&1; then
    echo "FAIL: fleet --buggy-overlap must produce an I7 counterexample" >&2
    exit 1
fi
if ! grep -q "I7 single-recovery" "$smoke_dir/fleet_buggy.txt"; then
    echo "FAIL: fleet --buggy-overlap counterexample must cite I7" >&2
    cat "$smoke_dir/fleet_buggy.txt" >&2
    exit 1
fi

echo "==> rh-lint postcopy (stream-in invariants P1/P2, DESIGN.md §15)"
cargo run -q --release -p rh-lint --offline -- postcopy
if cargo run -q --release -p rh-lint --offline -- \
    postcopy --buggy > "$smoke_dir/postcopy_buggy.txt" 2>&1; then
    echo "FAIL: postcopy --buggy must produce a P1 counterexample" >&2
    exit 1
fi
if ! grep -q "P1 validated-before-serve" "$smoke_dir/postcopy_buggy.txt"; then
    echo "FAIL: postcopy --buggy counterexample must cite P1" >&2
    cat "$smoke_dir/postcopy_buggy.txt" >&2
    exit 1
fi

echo "==> rh-lint balloon (cell balloon invariants I8/I9, DESIGN.md §17)"
cargo run -q --release -p rh-lint --offline -- balloon --domains 3
if cargo run -q --release -p rh-lint --offline -- \
    balloon --buggy > "$smoke_dir/balloon_buggy.txt" 2>&1; then
    echo "FAIL: balloon --buggy must produce an I8 counterexample" >&2
    exit 1
fi
if ! grep -q "I8 frozen-frames-fenced" "$smoke_dir/balloon_buggy.txt"; then
    echo "FAIL: balloon --buggy counterexample must cite I8" >&2
    cat "$smoke_dir/balloon_buggy.txt" >&2
    exit 1
fi
if cargo run -q --release -p rh-lint --offline -- \
    balloon --buggy-deflate > "$smoke_dir/balloon_deflate.txt" 2>&1; then
    echo "FAIL: balloon --buggy-deflate must produce an I9 counterexample" >&2
    exit 1
fi
if ! grep -q "I9 validated-before-map" "$smoke_dir/balloon_deflate.txt"; then
    echo "FAIL: balloon --buggy-deflate counterexample must cite I9" >&2
    cat "$smoke_dir/balloon_deflate.txt" >&2
    exit 1
fi

echo "==> model-checker --jobs determinism smoke (jobs 1 vs 4)"
cargo run -q --release -p rh-lint --offline -- \
    protocol --domains 4 --jobs 1 > "$smoke_dir/mc_seq.txt"
cargo run -q --release -p rh-lint --offline -- \
    protocol --domains 4 --jobs 4 > "$smoke_dir/mc_par.txt"
if ! cmp -s "$smoke_dir/mc_seq.txt" "$smoke_dir/mc_par.txt"; then
    echo "FAIL: protocol --jobs 4 output differs from --jobs 1" >&2
    diff "$smoke_dir/mc_seq.txt" "$smoke_dir/mc_par.txt" >&2 || true
    exit 1
fi
cargo run -q --release -p rh-lint --offline -- \
    fleet --jobs 1 > "$smoke_dir/fleet_seq.txt"
cargo run -q --release -p rh-lint --offline -- \
    fleet --jobs 4 > "$smoke_dir/fleet_par.txt"
if ! cmp -s "$smoke_dir/fleet_seq.txt" "$smoke_dir/fleet_par.txt"; then
    echo "FAIL: fleet --jobs 4 output differs from --jobs 1" >&2
    diff "$smoke_dir/fleet_seq.txt" "$smoke_dir/fleet_par.txt" >&2 || true
    exit 1
fi
cargo run -q --release -p rh-lint --offline -- \
    postcopy --jobs 1 > "$smoke_dir/pc_seq.txt"
cargo run -q --release -p rh-lint --offline -- \
    postcopy --jobs 4 > "$smoke_dir/pc_par.txt"
if ! cmp -s "$smoke_dir/pc_seq.txt" "$smoke_dir/pc_par.txt"; then
    echo "FAIL: postcopy --jobs 4 output differs from --jobs 1" >&2
    diff "$smoke_dir/pc_seq.txt" "$smoke_dir/pc_par.txt" >&2 || true
    exit 1
fi
cargo run -q --release -p rh-lint --offline -- \
    balloon --jobs 1 > "$smoke_dir/bl_seq.txt"
cargo run -q --release -p rh-lint --offline -- \
    balloon --jobs 4 > "$smoke_dir/bl_par.txt"
if ! cmp -s "$smoke_dir/bl_seq.txt" "$smoke_dir/bl_par.txt"; then
    echo "FAIL: balloon --jobs 4 output differs from --jobs 1" >&2
    diff "$smoke_dir/bl_seq.txt" "$smoke_dir/bl_par.txt" >&2 || true
    exit 1
fi

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
cargo run -q --release -p rh-bench --bin faults --offline -- \
    --jobs 2 --quick > "$smoke_dir/faults_par.txt"
cargo run -q --release -p rh-bench --bin faults --offline -- \
    --jobs 1 --quick > "$smoke_dir/faults_seq.txt"
if ! cmp -s "$smoke_dir/faults_seq.txt" "$smoke_dir/faults_par.txt"; then
    echo "FAIL: faults --jobs 2 output differs from --jobs 1" >&2
    diff "$smoke_dir/faults_seq.txt" "$smoke_dir/faults_par.txt" >&2 || true
    exit 1
fi

echo "==> frontier --jobs 4 determinism smoke (strategy frontier sweep)"
cargo run -q --release -p rh-bench --bin frontier --offline -- \
    --quick --jobs 4 > "$smoke_dir/frontier_par.txt"
cargo run -q --release -p rh-bench --bin frontier --offline -- \
    --quick --jobs 1 > "$smoke_dir/frontier_seq.txt"
if ! cmp -s "$smoke_dir/frontier_seq.txt" "$smoke_dir/frontier_par.txt"; then
    echo "FAIL: frontier --jobs 4 output differs from --jobs 1" >&2
    diff "$smoke_dir/frontier_seq.txt" "$smoke_dir/frontier_par.txt" >&2 || true
    exit 1
fi

echo "==> fleetbench --jobs 4 determinism smoke (datacenter fleet sweep)"
cargo run -q --release -p rh-bench --bin fleetbench --offline -- \
    --quick --jobs 4 > "$smoke_dir/fleet_bench_par.txt"
cargo run -q --release -p rh-bench --bin fleetbench --offline -- \
    --quick --jobs 1 > "$smoke_dir/fleet_bench_seq.txt"
if ! cmp -s "$smoke_dir/fleet_bench_seq.txt" "$smoke_dir/fleet_bench_par.txt"; then
    echo "FAIL: fleetbench --jobs 4 output differs from --jobs 1" >&2
    diff "$smoke_dir/fleet_bench_seq.txt" "$smoke_dir/fleet_bench_par.txt" >&2 || true
    exit 1
fi

echo "==> cellbench --jobs 4 determinism smoke (serverless cell sweep)"
cargo run -q --release -p rh-bench --bin cellbench --offline -- \
    --quick --jobs 4 > "$smoke_dir/cell_bench_par.txt"
cargo run -q --release -p rh-bench --bin cellbench --offline -- \
    --quick --jobs 1 > "$smoke_dir/cell_bench_seq.txt"
if ! cmp -s "$smoke_dir/cell_bench_seq.txt" "$smoke_dir/cell_bench_par.txt"; then
    echo "FAIL: cellbench --jobs 4 output differs from --jobs 1" >&2
    diff "$smoke_dir/cell_bench_seq.txt" "$smoke_dir/cell_bench_par.txt" >&2 || true
    exit 1
fi

echo "==> bench gate (quick corebench vs committed BENCH_core.json)"
# Quick profile: same workload sizes as the committed full-profile
# baseline, fewer samples. Fails on a silent >15% throughput loss in the
# engine hot path or the digest machinery (PERFORMANCE.md §"Gate policy").
# A quick-profile miss escalates to a careful 15-sample run before the
# gate is declared failed: best-of-15 is robust to transient machine
# load, while a genuine regression fails both runs.
if ! cargo run -q --release -p rh-bench --bin corebench --offline -- \
    --quick --gate BENCH_core.json; then
    echo "==> bench gate: quick profile missed; rechecking with 15 samples"
    cargo run -q --release -p rh-bench --bin corebench --offline -- \
        --iters 15 --gate BENCH_core.json
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> verify OK"
