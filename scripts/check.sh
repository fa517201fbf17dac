#!/usr/bin/env bash
# Correctness gate: static analysis + the full test suite under
# ASan+UBSan + the concurrency tests under TSan. Exits nonzero if any
# stage fails. Run from anywhere; builds live in build-asan/ and
# build-tsan/ next to the primary build/ tree.
#
#   scripts/check.sh            # everything
#   JOBS=4 scripts/check.sh     # cap build parallelism
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
failures=0

# --- Stage 0: repo invariants (walrus-lint, docs, bench table) + format ---
# Dependency-free, so these never skip: the lint, the doc-link check and
# the trajectory-table check run anywhere bash and Python 3 do, and
# check_format.sh degrades to a no-op without clang-format.
echo "== walrus-lint =="
if ! python3 scripts/walrus_lint.py --self-test; then
  echo "check.sh: FAIL: walrus-lint self-test" >&2
  failures=1
fi
if ! python3 scripts/walrus_lint.py; then
  echo "check.sh: FAIL: walrus-lint findings" >&2
  failures=1
fi
echo "== doc links =="
if ! scripts/check_docs.sh; then
  echo "check.sh: FAIL: broken doc references" >&2
  failures=1
fi
echo "== benchmark trajectory table =="
if ! python3 scripts/bench_report.py --check; then
  echo "check.sh: FAIL: BENCH_*.json schemas or EXPERIMENTS.md table" >&2
  failures=1
fi
echo "== clang-format (changed files) =="
if ! scripts/check_format.sh; then
  echo "check.sh: FAIL: formatting drift in changed files" >&2
  failures=1
fi

# --- Stage 1: clang-tidy (skipped when the binary is unavailable) --------
if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy =="
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  mapfile -t sources < <(find src -name '*.cc' | sort)
  if ! clang-tidy -p build --quiet "${sources[@]}"; then
    echo "check.sh: FAIL: clang-tidy reported findings" >&2
    failures=1
  fi
else
  echo "== clang-tidy not installed; skipping static analysis =="
fi

# --- Stage 2: full test suite under AddressSanitizer + UBSan -------------
echo "== tests under ASan+UBSan =="
cmake -B build-asan -S . \
  -DWALRUS_SANITIZE="address;undefined" \
  -DWALRUS_BUILD_BENCHMARKS=OFF \
  -DWALRUS_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-asan -j "$JOBS"
if ! ctest --test-dir build-asan --output-on-failure -j "$JOBS" >/dev/null; then
  echo "check.sh: FAIL: tests under ASan+UBSan" >&2
  failures=1
fi

# --- Stage 3: concurrency tests under ThreadSanitizer --------------------
echo "== concurrency tests under TSan =="
cmake -B build-tsan -S . \
  -DWALRUS_SANITIZE=thread \
  -DWALRUS_BUILD_BENCHMARKS=OFF \
  -DWALRUS_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j "$JOBS"
if ! ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R 'ThreadPool|ParallelIndex|QueryBatch|PagedConcurrency|WalrusServer|MalformedFrame|MetricsConcurrency|ShardedIndex|BatchedProbe|WalTest|WalCrashRecovery|LiveIndex|FaultInjection|ProtocolPipelineFuzz' >/dev/null; then
  echo "check.sh: FAIL: concurrency tests under TSan" >&2
  failures=1
fi

if [ "$failures" -ne 0 ]; then
  echo "check.sh: FAILED" >&2
  exit 1
fi
echo "check.sh: all stages passed"
