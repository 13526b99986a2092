#!/usr/bin/env bash
# Builds `utk` and the benchmark's load generator from this checkout,
# then runs one workload and prints its result as the last stdout line.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`), and
# the cargo chatter goes to stderr so stdout carries only the report.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin utk >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/utk-perfbench" --utk "$CARGO_TARGET_DIR/release/utk" "$@"
