#!/usr/bin/env bash
# Repo verification: tier-1 build + full test suite (plus an explicit
# `ctest -L e2e_process` pass over the forked-executor suites), the kernels
# label, the engine, KV cache, vision tower and trainer tests rerun on the
# scalar kernel variant, the servebench self-test (bench-smoke), the
# static-analysis stage (vlora_lint, Clang thread-safety build, clang-tidy),
# then the concurrency-labelled tests (cluster, fault
# injection, thread pool, parallel GEMM) and the kernels-labelled tests
# (differential micro-kernel harness, ATMM dispatcher) under both
# ThreadSanitizer and AddressSanitizer+UBSan. The ASan tree also runs the
# e2e_process suites, so real executor SIGKILL recovery is exercised under
# ASan; the TSan tree deliberately does not (fork + threads is unsupported
# under TSan).
#
#   ./scripts/verify.sh              # everything
#   SKIP_TSAN=1 ./scripts/verify.sh  # skip the TSan tree
#   SKIP_ASAN=1 ./scripts/verify.sh  # skip the ASan tree
#   SKIP_STATIC=1 ./scripts/verify.sh# skip the static-analysis stage
#
# Stages that need a Clang toolchain (thread-safety build, clang-tidy) are
# skipped with a note when the tools are not installed; vlora_lint always
# runs — it is built by the tier-1 tree itself.
set -euo pipefail
cd "$(dirname "$0")/.."

CONCURRENCY_TARGETS=(cluster_test disaggregated_test fault_injection_test thread_pool_test
                     trace_test kernel_dispatch_test)
# e2e_process targets run under ASan but not TSan (fork + threads). The
# process_cluster_test target pulls in vlora_executor via add_dependencies.
E2E_PROCESS_TARGETS=(net_test process_cluster_test)
# The kernels label: the differential micro-kernel harness and the ATMM
# dispatcher tests. Run under both sanitizer trees — ASan/UBSan proves the
# packing and the in-place B reads stay in bounds, TSan re-checks
# GemmTiledParallel determinism.
KERNEL_TARGETS=(kernel_diff_test atmm_test)

# Builds and the tier-1 ctest pass an explicit job count: with the Unix
# Makefiles generator a bare `-j` means `make -j`, with no job limit, and
# CTest before 3.29 ignores a trailing `-j` with no count and runs serially.
JOBS="$(nproc)"

STAGE_NAMES=()
STAGE_RESULTS=()
record() { STAGE_NAMES+=("$1"); STAGE_RESULTS+=("$2"); }

echo "=== tier-1: configure, build, ctest ==="
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"
record "tier-1 build+tests" "pass"

echo "=== e2e: process cluster over the wire (forked executors) ==="
# Already part of the full ctest above; the explicit label pass guarantees
# the e2e_process label (and the SIGKILL-recovery coverage) stays present.
ctest --test-dir build --output-on-failure -L e2e_process
record "e2e_process tests" "pass"

echo "=== disagg: prefill/decode split lifecycle proofs ==="
# Also part of the full ctest above; the explicit label pass guarantees the
# disagg label (two-stage lifecycle, handoff faults, SLO routing) stays wired.
ctest --test-dir build --output-on-failure -L disagg
record "disagg tests" "pass"

echo "=== scalar variant: kernels label + engine tests on the portable kernels ==="
# On an AVX2 host the scalar micro-kernels (packed and in-place B), the
# scalar attention tile and the scalar LM head otherwise run only inside
# kernel_diff_test's cross-variant sweeps; this reruns them end to end. The
# KV cache, vision tower and trainer suites reach the key-panel layout
# through the scalar tile too.
VLORA_KERNEL_VARIANT=scalar ctest --test-dir build --output-on-failure -L kernels
VLORA_KERNEL_VARIANT=scalar ctest --test-dir build --output-on-failure \
  -R '^(engine_test|engine_edge_test|kv_cache_test|vision_tower_test|lora_trainer_test)$'
record "scalar-variant tests" "pass"

echo "=== trace-overhead guard (fails above 5%) ==="
./build/bench/bench_trace_overhead
record "trace-overhead guard" "pass"

echo "=== bench-smoke: servebench self-test ==="
# servebench/ builds its own copy of src/ (into .bench_build/) and compiles
# against the public cluster API, so a src/ change that breaks the benchmark
# fails here. Every workload runs for one second, untraced and traced.
python3 servebench/selftest.py
record "bench-smoke" "pass"

if [[ "${SKIP_STATIC:-0}" != "1" ]]; then
  echo "=== static-analysis: vlora_lint ==="
  ./build/tools/vlora_lint src tests bench examples tools
  record "vlora_lint" "pass"

  echo "=== static-analysis: lock-order pass ==="
  ./build/tools/vlora_lint --lock-order src
  record "lock-order pass" "pass"

  echo "=== static-analysis: hot-path purity pass ==="
  ./build/tools/vlora_lint --hot-path tools/hot_paths.toml src
  record "hot-path pass" "pass"

  if command -v clang-format >/dev/null 2>&1; then
    echo "=== static-analysis: clang-format (advisory) ==="
    # Report-only: formatting drift prints but never fails verification
    # (style config lives in .clang-format).
    if find src tests tools bench examples -name '*.h' -o -name '*.cc' |
        xargs clang-format --dry-run -Werror >/dev/null 2>&1; then
      record "clang-format" "pass"
    else
      echo "--- clang-format reports drift (advisory only; run clang-format -i) ---"
      find src tests tools bench examples \( -name '*.h' -o -name '*.cc' \) -print0 |
        xargs -0 clang-format --dry-run 2>&1 | head -40 || true
      record "clang-format" "drift (advisory)"
    fi
  else
    echo "--- clang-format not found; skipping format check (.clang-format) ---"
    record "clang-format" "skip (no clang-format)"
  fi

  if command -v clang++ >/dev/null 2>&1; then
    echo "=== static-analysis: clang -Werror=thread-safety ==="
    cmake -B build-ts -S . -DCMAKE_CXX_COMPILER=clang++ -DVLORA_THREAD_SAFETY=ON
    cmake --build build-ts -j "$JOBS"
    record "thread-safety build" "pass"
  else
    echo "--- clang++ not found; skipping thread-safety build (annotations are"
    echo "    no-ops under GCC — install clang to check them) ---"
    record "thread-safety build" "skip (no clang++)"
  fi

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "=== static-analysis: clang-tidy over src/ ==="
    # compile_commands.json comes from whichever tree configured last with
    # the export flag; generate one against the tier-1 build.
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    find src tools -name '*.cc' -print0 |
      xargs -0 clang-tidy -p build --quiet
    record "clang-tidy" "pass"
  else
    echo "--- clang-tidy not found; skipping (config lives in .clang-tidy) ---"
    record "clang-tidy" "skip (no clang-tidy)"
  fi
else
  record "static-analysis" "skip (SKIP_STATIC=1)"
fi

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  echo "=== ThreadSanitizer: concurrency + kernel tests ==="
  cmake -B build-tsan -S . -DVLORA_SANITIZE=tsan
  cmake --build build-tsan -j "$JOBS" --target "${CONCURRENCY_TARGETS[@]}" "${KERNEL_TARGETS[@]}"
  ctest --test-dir build-tsan --output-on-failure -L "concurrency|kernels"
  record "TSan concurrency+kernel tests" "pass"
else
  record "TSan concurrency tests" "skip (SKIP_TSAN=1)"
fi

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  echo "=== AddressSanitizer+UBSan: concurrency + e2e_process + kernel tests ==="
  cmake -B build-asan -S . -DVLORA_SANITIZE=asan
  cmake --build build-asan -j "$JOBS" --target "${CONCURRENCY_TARGETS[@]}" "${E2E_PROCESS_TARGETS[@]}" \
    "${KERNEL_TARGETS[@]}"
  ctest --test-dir build-asan --output-on-failure -L "concurrency|e2e_process|kernels"
  record "ASan+UBSan conc+e2e+kernel tests" "pass"
else
  record "ASan+UBSan concurrency+e2e tests" "skip (SKIP_ASAN=1)"
fi

echo
echo "=== verify.sh stage summary ==="
for i in "${!STAGE_NAMES[@]}"; do
  printf '  %-28s %s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}"
done
echo "verify.sh: all executed checks passed"
