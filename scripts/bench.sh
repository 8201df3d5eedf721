#!/usr/bin/env bash
# Regenerate BENCH_exec.json — the launch-throughput record of the clsim
# execution engine (bench/micro_exec) — reproducibly: fixed seed, pinned
# --threads=0 (sequential executor, so the frame-pool-bypass baseline is
# faithful and numbers don't depend on host core count).
#
# Usage: scripts/bench.sh [build-dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

if [[ ! -x "$build_dir/bench/micro_exec" ]]; then
  echo "building micro_exec in $build_dir ..."
  cmake --build "$build_dir" --target micro_exec -j
fi

"$build_dir/bench/micro_exec" \
  --repeats=400 \
  --threads=0 \
  --seed=1 \
  --out="$repo_root/BENCH_exec.json"

# BENCH_scan.json — the prediction-scan configs/sec trajectory
# (bench/micro_scan): the scan engine's fp64 reference vs its certified
# fp32 engine (the tuners' top-M). The binary enforces fp32 top-M equality
# with fp64, measured fp32 error within its certified bound, the same top-M
# at every thread count, plus the configs/sec gate on the fp32 top-M, the
# entry point every tuner runs (fp32 top-M >= 2x fp64 top-M at threads=1;
# the dense range's ratio is reported, not gated).
if [[ ! -x "$build_dir/bench/micro_scan" ]]; then
  echo "building micro_scan in $build_dir ..."
  cmake --build "$build_dir" --target micro_scan -j
fi

"$build_dir/bench/micro_scan" \
  --seed=1 \
  --out="$repo_root/BENCH_scan.json"

# Three-way validity audit (static analyzer vs driver vs clcheck) in smoke
# mode: exits non-zero on any static-analysis unsoundness or clcheck fault,
# which aborts this script (set -e).
if [[ ! -x "$build_dir/bench/ext_check" ]]; then
  echo "building ext_check in $build_dir ..."
  cmake --build "$build_dir" --target ext_check -j
fi

"$build_dir/bench/ext_check" \
  --smoke \
  --seed=1 \
  --out="$repo_root/BENCH_check_smoke.json"

# BENCH_serve.json — the multi-tenant tuning service under a full mixed
# load (bench/ext_serve): 4 tenants x 2 clients x 160 requests, all in
# flight at once. The binary's gates (>=95% storm cache hit rate, zero
# rejections, served-vs-direct bit-identity) abort this script on failure.
if [[ ! -x "$build_dir/bench/ext_serve" ]]; then
  echo "building ext_serve in $build_dir ..."
  cmake --build "$build_dir" --target ext_serve -j
fi

"$build_dir/bench/ext_serve" \
  --seed=1 \
  --out="$repo_root/BENCH_serve.json"
