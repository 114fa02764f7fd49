#!/usr/bin/env bash
# Builds the `qld` binary and the load generator from source, then runs one
# workload:  bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout.  Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's progress goes to standard error.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p qld-front --bin qld >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --qld "$CARGO_TARGET_DIR/release/qld" "$@"
