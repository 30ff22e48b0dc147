#!/usr/bin/env bash
# bench_all.sh — one entry point for the repo's benchmark tables.
#
# Replaces the four hand-run bench_out/*.csv flows with one script that
# drives mcr_bench per table, producing schema-versioned BENCH_*.json
# artifacts (per-cell median/MAD/95% CI, phase breakdown, hardware
# counters) suitable for mcr_bench_diff regression gating. See
# docs/BENCHMARKING.md for the schema and the gating workflow.
#
# Usage:
#   tools/bench_all.sh [BUILD_DIR] [OUT_DIR]
#   tools/bench_all.sh --update-baseline [BUILD_DIR] [OUT_DIR]
#
#   BUILD_DIR  where mcr_bench lives (default: build)
#   OUT_DIR    where BENCH_*.json land (default: bench_out; with
#              --update-baseline, the repo root)
#
# --update-baseline regenerates the committed regression baselines,
# BENCH_baseline.json and BENCH_baseline_ratio.json. This is the single
# source of truth for the baseline recipe — ci.sh reruns the exact same
# recipe for the candidate side of its gate, so regenerate the
# baselines with this mode only (see docs/BENCHMARKING.md).
#
# Environment:
#   MCR_BENCH_SCALE  small | medium | full (default small; full is the
#                    paper's complete grid and takes hours)
#   MCR_BENCH_TRIALS timed repetitions per cell (default 5)
#
# Typical regression workflow:
#   tools/bench_all.sh build baseline_out         # on the base commit
#   tools/bench_all.sh build candidate_out        # on your branch
#   build/tools/mcr_bench_diff baseline_out/BENCH_table2.json \
#                              candidate_out/BENCH_table2.json
set -euo pipefail

UPDATE_BASELINE=0
if [[ "${1:-}" == "--update-baseline" ]]; then
  UPDATE_BASELINE=1
  shift
fi

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench_out}"
TRIALS="${MCR_BENCH_TRIALS:-5}"
BENCH="$BUILD_DIR/tools/mcr_bench"

if [[ ! -x "$BENCH" ]]; then
  echo "bench_all.sh: $BENCH not found — build with: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 2
fi

if [[ "$UPDATE_BASELINE" == 1 ]]; then
  # THE baseline recipe: a tiny sprand grid that finishes in seconds on
  # any machine, covering the tiled solver families (Bellman-Ford via
  # lawler, the whole Karp family, Howard) with tiling on, and KO and
  # YTO with the paper's Fibonacci heap. It runs on one
  # thread: on a host with fewer CPUs than threads a threaded run
  # measures oversubscription, not the kernels. ci.sh reruns this exact
  # recipe for its candidate artifact; change it only together with a
  # freshly regenerated committed baseline. The second artifact covers
  # the cost-to-time ratio kernels on the whole small sprand_ratio grid
  # (n up to 512, transit U[1,10]). Each cell also records its operation
  # counts, which the gate compares exactly.
  OUT_DIR="${2:-.}"
  MCR_BENCH_SCALE=small "$BENCH" --name baseline --workload sprand \
      --solvers howard,karp,karp2,lawler,dg,ho,ko,yto --max-n 256 \
      --trials "$TRIALS" --threads 1 --tile-arcs 1024 --out "$OUT_DIR/BENCH_baseline.json"
  MCR_BENCH_SCALE=small "$BENCH" --name baseline_ratio --workload sprand_ratio \
      --solvers howard_ratio,yto_ratio \
      --trials "$TRIALS" --threads 1 --tile-arcs 1024 --out "$OUT_DIR/BENCH_baseline_ratio.json"
  echo "baselines written to $OUT_DIR"
  exit 0
fi
mkdir -p "$OUT_DIR"

run_table() {
  local name="$1" workload="$2" solvers="$3"
  echo "=== $name ($workload: $solvers) ==="
  "$BENCH" --name "$name" --workload "$workload" --solvers "$solvers" \
           --trials "$TRIALS" --out "$OUT_DIR/BENCH_$name.json"
  echo
}

# Table 2: the ten MCM algorithms on the SPRAND grid.
run_table table2 sprand "burns,ko,yto,howard,ho,karp,dg,lawler,karp2,oa1"

# Circuits: the LGSynth-style register graphs (paper §4.5 discussion).
run_table circuits circuit "burns,ko,yto,howard,ho,karp,dg,lawler,karp2,oa1"

# Ratio: cost-to-time ratio solvers on transit-weighted SPRAND (exp. R1).
run_table ratio sprand_ratio "howard_ratio,yto_ratio,burns_ratio,lawler_ratio,cycle_cancel_ratio"

# Extensions: the §5 improved-variant study (exp. X1).
run_table extensions sprand "lawler,lawler_improved,cycle_cancel,howard,howard_naive_init"

echo "artifacts in $OUT_DIR:"
ls -l "$OUT_DIR"/BENCH_*.json
echo "compare two runs with: $BUILD_DIR/tools/mcr_bench_diff OLD.json NEW.json"
