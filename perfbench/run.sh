#!/usr/bin/env bash
# Builds the benchmark and the repository's `serve` daemon from source in
# release mode, then runs the benchmark with the given arguments.
#
#   bash perfbench/run.sh --workload serve_warm --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh expected > perfbench/expected.tsv
#
# Run from the repository root. The build lands in $CARGO_TARGET_DIR
# (default: perfbench/target).
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" "$@"
