#!/usr/bin/env bash
# One-shot correctness gate, suitable as a CI entrypoint:
#   1. tools/lint.py (repo-local static rules)
#   2. release preset:    configure + build + kernel equivalence tests
#      (tier1 tests matching Kernels|Hnsw — the vectorized-vs-reference
#      suite on the optimized, runtime-dispatched build), then every tier1
#      test in one process, which ctest's process-per-test hides state
#      leaking between tests from
#   3. asan-ubsan preset: configure + build + ctest -L tier1
#   4. tsan preset:       configure + build + ctest -L tier1
#   5. clang-threadsafety preset: clang -Wthread-safety -Werror compile of
#      the whole tree + ctest -L tier1 — the compile-time locking gate
#      (skipped with a notice when clang++ is not installed)
#   6. serving bench smoke: bench_serving in UNIMATCH_BENCH_SMOKE mode —
#      hard-gates request correctness + the under-load snapshot swap,
#      records (never gates) latency, since runners may be single-core
#   7. quant bench smoke: bench_quant in UNIMATCH_BENCH_SMOKE mode —
#      hard-gates recall@10 >= 0.95 (int8 flat and IVF-PQ vs the exact
#      f32 scan) and >= 3x int8 table compression; latency is recorded
#      in BENCH_quant.json, never gated
#   8. batch-exec bench smoke: bench_batch_exec in UNIMATCH_BENCH_SMOKE
#      mode — hard-gates MultiSearch/Search bitwise parity across all six
#      ANN backends, zero pool acquires per steady-state query, and a
#      >= 2x batch-32 speedup for the flat and quantized-flat scans;
#      graph/IVF speedups are recorded warn-only in BENCH_batch_exec.json
#   9. perfbench correctness: perfbench/run.py --selftest, then one short
#      large_catalog run that must end with "correct": true and
#      "failed": 0 (exact answers against a brute-force key, equal NDCG
#      across training passes)
#
# Usage: tools/check.sh [--jobs N] [--skip-release] [--skip-tsan]
#                       [--skip-asan] [--skip-threadsafety] [--skip-bench]
# Runs from any cwd; exits non-zero on the first failing stage.

set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
RUN_RELEASE=1
RUN_ASAN=1
RUN_TSAN=1
RUN_THREADSAFETY=1
RUN_BENCH=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs) JOBS="$2"; shift 2 ;;
    --skip-release) RUN_RELEASE=0; shift ;;
    --skip-asan) RUN_ASAN=0; shift ;;
    --skip-tsan) RUN_TSAN=0; shift ;;
    --skip-threadsafety) RUN_THREADSAFETY=0; shift ;;
    --skip-bench) RUN_BENCH=0; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

stage() { printf '\n==== %s ====\n' "$*"; }

stage "lint (tools/lint.py)"
python3 tools/lint.py --self-test
python3 tools/lint.py

run_preset() {
  local preset="$1"
  stage "configure [$preset]"
  cmake --preset "$preset"
  stage "build [$preset]"
  cmake --build --preset "$preset" -j "$JOBS"
  stage "ctest -L tier1 [$preset]"
  ctest --test-dir "build-$preset" -L tier1 --output-on-failure -j "$JOBS"
}

if [[ "$RUN_RELEASE" == 1 ]]; then
  stage "configure [release]"
  cmake --preset release
  stage "build [release]"
  cmake --build --preset release -j "$JOBS" --target unimatch_tests
  stage "kernel equivalence tests [release]"
  ctest --test-dir build -L tier1 -R 'Kernels|Hnsw' --output-on-failure \
    -j "$JOBS"
  stage "tier1 in one process [release]"
  build/tests/unimatch_tests '--gtest_filter=-OptimaFixture.*'
fi

[[ "$RUN_ASAN" == 1 ]] && run_preset asan-ubsan
[[ "$RUN_TSAN" == 1 ]] && run_preset tsan

if [[ "$RUN_THREADSAFETY" == 1 ]]; then
  if command -v clang++ >/dev/null 2>&1; then
    run_preset clang-threadsafety
  else
    stage "clang-threadsafety SKIPPED (clang++ not installed)"
    echo "The -Wthread-safety annotations only compile as checks under" \
         "Clang; install clang or rely on the CI matrix leg."
  fi
fi

if [[ "$RUN_BENCH" == 1 ]]; then
  stage "serving bench smoke (bench_serving)"
  cmake --preset release
  cmake --build --preset release -j "$JOBS" --target bench_serving
  # Hard gate: any error response, or any failed request during the
  # under-load snapshot swap, exits non-zero. Latency/QPS are recorded in
  # BENCH_serving.json but never gated here (runners may be single-core).
  (cd build/bench && UNIMATCH_BENCH_SMOKE=1 ./bench_serving)

  stage "quant bench smoke (bench_quant)"
  cmake --build --preset release -j "$JOBS" --target bench_quant
  # Hard gate: exits non-zero unless int8 flat AND IVF-PQ reach recall@10
  # >= 0.95 against the exact f32 scan and the int8 table is >= 3x smaller
  # per row. Latency lands in BENCH_quant.json but is never gated here.
  (cd build/bench && UNIMATCH_BENCH_SMOKE=1 ./bench_quant)

  stage "batch-exec bench smoke (bench_batch_exec)"
  cmake --build --preset release -j "$JOBS" --target bench_batch_exec
  # Hard gates: bitwise MultiSearch/Search parity on every backend, zero
  # pool acquires per steady-state query, and >= 2x batch-32 QPS for the
  # flat + quantized-flat scans. Graph/IVF speedups are warn-only.
  (cd build/bench && UNIMATCH_BENCH_SMOKE=1 ./bench_batch_exec)

  stage "perfbench correctness (perfbench/run.py)"
  python3 perfbench/run.py --selftest
  # Hard gate: the last stdout line is the run's JSON result; it must say
  # "correct": true and "failed": 0.
  python3 perfbench/run.py --workload large_catalog --seed 1 --seconds 5 |
    tail -n 1 | python3 -c '
import json, sys
r = json.load(sys.stdin)
if r["correct"] is not True or r["failed"] != 0:
    sys.exit("perfbench large_catalog: correct=%s failed=%s"
             % (r["correct"], r["failed"]))
print("perfbench large_catalog: correct, 0 failed")
'
fi

stage "all checks passed"
