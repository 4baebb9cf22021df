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
# `cellbench` with `--quick`; `ablations`; and `rhctl reboot --strategy S
# --vms 4 --service ssh` for all five strategies.
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
echo "==> same bytes as $rev"
