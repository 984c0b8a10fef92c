#!/usr/bin/env bash
# Builds the benchmark program and the attack server from source, then runs
# one workload (or the self-test). Run from anywhere inside the checkout:
#
#   bash perfbench/run.sh --workload grid-detr --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --self-test
#
# Build output goes to stderr; the last line of stdout is the JSON summary.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
cargo build --release --offline --quiet --manifest-path Cargo.toml -p bea-bench --bin serve_cli >&2
exec "$CARGO_TARGET_DIR/release/bea-perfbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/serve_cli" --out .bench_out "$@"
