#!/usr/bin/env bash
# Kernel micro-benchmark: reference vs blocked GEMM/im2col on the
# detectors' hot shapes. Writes
# BENCH_kernels.json at the repo root — one record per (--quick,
# --threads) pair — and fails (via --check) when the blocked convolution
# regresses below the reference one on the medium shape or the DETR
# attention matmul misses its minimum speedup.
#
# Usage: scripts/bench_kernels.sh [--quick] [--threads N]
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -p bea-bench --bench kernels -- \
    --check --out "$(pwd)/BENCH_kernels.json" "$@"
