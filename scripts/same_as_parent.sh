#!/usr/bin/env sh
# Same-bytes gate for behaviour-preserving changes: builds REV (default
# HEAD) and the working tree, runs the deterministic experiment surfaces
# with both builds, and fails on the first output that differs.
#
# Usage: scripts/same_as_parent.sh [REV]  (from anywhere; cd's to the repo root)
#
# A refactor that claims "same results" passes this against its parent,
# e.g. `scripts/same_as_parent.sh HEAD~1` once committed. REV is exported
# with `git archive` into a temporary directory (removed on exit) and built
# offline with its own CARGO_TARGET_DIR there, so every run rebuilds it
# (about a minute on a 2-vCPU VM); the working tree builds into its own
# target/. verify.sh does not run this script, because of that second
# build.
#
# Compared, in order: `all --jobs 2`; `all --jobs 2 --max-n 3 --quick` and
# its `--trace-jsonl` file; `frontier`, `faults`, `fleetbench` and
# `cellbench` with `--quick`; `ablations`; `rhctl reboot --strategy S
# --vms 4 --service ssh` for all five strategies; and the `rh-lint` model
# checkers (`protocol`, `fleet`, `postcopy`, `balloon`), whose stdout,
# stderr and exit status must all match: passing runs, counterexample runs
# (exit 1) in text and `--json`, `--no-reduce` and `--jobs 4` runs, and
# usage errors (exit 2).
set -eu

cd "$(dirname "$0")/.."
rev=${1:-HEAD}
head_dir=$(pwd)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/src" "$work/out-base" "$work/out-head"
git archive --format=tar "$rev" | tar -x -C "$work/src"

echo "==> building $rev (offline)"
(cd "$work/src" && CARGO_TARGET_DIR="$work/target" cargo build -q --release --offline --workspace)
echo "==> building the working tree (offline)"
CARGO_TARGET_DIR="$head_dir/target" cargo build -q --release --offline --workspace

# differ FILE CMD: FILE in the two output directories must be identical.
differ() {
    if ! cmp -s "$work/out-base/$1" "$work/out-head/$1"; then
        echo "FAIL: \`$2\` differs from $rev ($1):" >&2
        diff "$work/out-base/$1" "$work/out-head/$1" >&2 || true
        exit 1
    fi
}

# same NAME BIN ARGS...: runs BIN ARGS with each build, from that build's
# output directory (so relative output paths land there), stdout to NAME,
# and compares. A run that fails counts as a difference.
same() {
    name=$1 bin=$2
    shift 2
    for side in base head; do
        case $side in
        base) bin_dir=$work/target/release ;;
        head) bin_dir=$head_dir/target/release ;;
        esac
        if ! (cd "$work/out-$side" && "$bin_dir/$bin" "$@" > "$name" 2> "$name.err"); then
            echo "FAIL: \`$bin $*\` failed with the $side build:" >&2
            cat "$work/out-$side/$name.err" >&2
            exit 1
        fi
    done
    differ "$name" "$bin $*"
}

# same_status NAME BIN ARGS...: like `same`, but BIN may fail: its stdout,
# stderr and exit status must each match between the two builds.
same_status() {
    name=$1 bin=$2
    shift 2
    for side in base head; do
        case $side in
        base) bin_dir=$work/target/release ;;
        head) bin_dir=$head_dir/target/release ;;
        esac
        status=0
        (cd "$work/out-$side" && "$bin_dir/$bin" "$@" > "$name" 2> "$name.err") || status=$?
        echo "$status" > "$work/out-$side/$name.status"
    done
    for file in "$name" "$name.err" "$name.status"; do
        differ "$file" "$bin $*"
    done
}

echo "==> comparing outputs"
same all all --jobs 2
same all-quick all --jobs 2 --max-n 3 --quick --trace-jsonl all-quick.jsonl
differ all-quick.jsonl "all --jobs 2 --max-n 3 --quick --trace-jsonl"
for bin in frontier faults fleetbench cellbench; do
    same "$bin" "$bin" --quick
done
same ablations ablations
for strategy in warm saved cold streamed incremental; do
    same "rhctl-$strategy" rhctl reboot --strategy "$strategy" --vms 4 --service ssh
done

# checker NAME ARGS...: one rh-lint checker run, compared with its status.
n=0
checker() {
    n=$((n + 1))
    same_status "rh-lint-$n" rh-lint "$@"
}
# Passing runs (verify.sh's) and counterexample runs (verify.sh's
# must-fail runs, plus protocol's --buggy), each in text and in --json.
for json in "" --json; do
    checker protocol --domains 3 $json
    checker protocol --domains 3 --faults $json
    checker protocol --domains 3 --faults --unsafe-recovery $json
    checker protocol --buggy $json
    checker fleet $json
    checker fleet --driver wave --hosts 5 --max-down 2 --crashes 2 $json
    checker fleet --driver buggy-overlap $json
    checker postcopy $json
    checker postcopy --buggy $json
    checker balloon --domains 3 $json
    checker balloon --buggy $json
    checker balloon --buggy-deflate $json
done
for model in protocol fleet postcopy balloon; do
    checker "$model" --no-reduce
    checker "$model" --jobs 4
    # Usage errors: an unknown flag, a missing value, a non-numeric value
    # and an exhausted state budget.
    checker "$model" --bogus
    checker "$model" --jobs
    checker "$model" --max-states x
    checker "$model" --max-states 5
done
checker protocol --domains 4 --jobs 4
checker protocol --domains 0
checker protocol --domains 13
checker protocol --unsafe-recovery
checker fleet --hosts 0
checker fleet --hosts 9
checker fleet --max-down 0
checker fleet --driver
checker fleet --driver parallel
checker postcopy --domains 0
checker postcopy --pages 9
checker postcopy --pages 2 --working-set 3
checker balloon --domains 9
checker balloon --pages 9
echo "==> same bytes as $rev"
