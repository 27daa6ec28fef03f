#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments.
#
#   bash benchmark/run.sh                      all workloads, untraced + traced + layer calls
#   bash benchmark/run.sh --quick              the same on a small table, under 20 s, still verified
#   bash benchmark/run.sh --repeat 2           two sets; non-zero exit if they disagree beyond a bound
#   bash benchmark/run.sh --workload point_read --seed 1 --seconds 10 --trace 0
#                                              one run; last line is the result as JSON
#
# Builds into the workspace's target directory (or $CARGO_TARGET_DIR), so
# the repo's crates are compiled once for both.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/dasp-benchmark" "$@"
