#!/usr/bin/env bash
# Full verification pass: configure, build, run the test suite, run it again
# under AddressSanitizer and UndefinedBehaviorSanitizer, run the
# ThreadSanitizer stage, then run every experiment binary from a Release
# build and check the committed bench-results/ artifacts against them.
# Exits non-zero on the first failure. This is what CI would run. Every
# ctest invocation carries a per-test timeout so a hung exploration fails
# loudly instead of stalling the whole pass.
#
#   scripts/check.sh              full pass (tier-1 + sanitizers + benches)
#   scripts/check.sh --quick      tier-1 only: build + test suite, nothing else
#   scripts/check.sh --soak-smoke multi-instance service gate only: ~5 s of
#                                 bench_f8_soak's agreement-as-a-service
#                                 stage under AddressSanitizer with the
#                                 audit sampler at 100% — the bench
#                                 self-gates on zero violations, >=1000
#                                 concurrent live instances per shard, and
#                                 fully drained shard tables at exit
#   scripts/check.sh --tsan       the full pass's ThreadSanitizer stage only:
#                                 the explorer (serial and parallel walks,
#                                 source-set reports, checkpoints, tickers
#                                 in parallel searches), the fiber layer,
#                                 the sharded service (inboxes, the dedup
#                                 memo's rotations, stop/drain/join) and the
#                                 per-thread allocation counters' registry
#
# Wall-clock performance is gated by perfbench (BENCHMARK.json), not here.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=full
for arg in "$@"; do
  case "${arg}" in
    --quick) MODE=quick ;;
    --soak-smoke) MODE=soak ;;
    --tsan) MODE=tsan ;;
    *)
      echo "usage: scripts/check.sh [--quick|--soak-smoke|--tsan]" >&2
      exit 2
      ;;
  esac
done

# Configures build directory $1 with -fsanitize=$2 plus any further flags.
configure_sanitized() {
  local dir="$1" san="$2"
  shift 2
  cmake -B "${dir}" -G Ninja \
    -DCMAKE_CXX_FLAGS="-fsanitize=${san}${*:+ $*} -fno-omit-frame-pointer -g -O1" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=${san}"
}

# --- ThreadSanitizer: guard the explorer's walker and work queue, --------
# cancellation paths and source-set reports (units hand their demands on
# the decisions above their roots back to the walker), tickers fed from
# parallel searches, the fiber layer's TSan integration, the sharded
# service's inboxes, dedup memo and stop()/drain/join teardown, and the
# per-thread allocation counters (stepper_test counts carves on plain
# threads and search workers, read after they exit). The same
# suites run un-sanitized in tier-1; this stage is the data-race gate (CI
# runs it as `--tsan`).
tsan_stage() {
  local tests=(fiber_test explorer_test parallel_explorer_test reduction_test
    checkpoint_resume_test equivalence_pin_test observer_test
    sharded_service_test stepper_test)
  configure_sanitized build-tsan thread
  cmake --build build-tsan --target "${tests[@]}"
  for t in "${tests[@]}"; do
    echo "== tsan: ${t}"
    "build-tsan/tests/${t}"
  done
}

if [[ "${MODE}" == "tsan" ]]; then
  tsan_stage
  echo "TSAN PASSED"
  exit 0
fi

# --- Soak smoke: the multi-instance service gate -------------------------
# ~5 s of agreement-as-a-service traffic (thousands of concurrent 1sWRN /
# GAC / set-consensus instances over one InstanceTable) under ASan, with
# every decided instance audited (audit-percent 100). The bench self-gates:
# zero audit violations, the >=1000 concurrent-live-instance high-water
# mark, and zero live instances left in the table at exit (block recycling,
# not monotone arena growth). The legacy randomized-schedule stage is
# skipped (0 runs) — this gate is about the instance layer, and the full pass
# still soaks the legacy workloads from the Release bench stage. Results
# land in a scratch directory so checked-in bench-results/ stay untouched.
if [[ "${MODE}" == "soak" ]]; then
  configure_sanitized build-asan address
  cmake --build build-asan --target bench_f8_soak
  ROOT="$(pwd)"
  SCRATCH="$(mktemp -d)"
  trap 'rm -rf "${SCRATCH}"' EXIT
  (cd "${SCRATCH}" && "${ROOT}/build-asan/bench/bench_f8_soak" 0 5 100)
  echo "SOAK SMOKE PASSED"
  exit 0
fi

# Per-test wall-clock budget (seconds). Generous: the slowest tier-1 test
# finishes in well under a minute on a laptop. (Each discovered test also
# carries its own 120 s ctest TIMEOUT from tests/CMakeLists.txt.)
CTEST_TIMEOUT=300

# --- Default (Debug-ish) build + full test suite -------------------------
cmake -B build -G Ninja
cmake --build build

ctest --test-dir build --output-on-failure --timeout "${CTEST_TIMEOUT}"

if [[ "${MODE}" == "quick" ]]; then
  echo "QUICK CHECKS PASSED (tier-1 only; sanitizers and benches skipped)"
  exit 0
fi

# --- AddressSanitizer and UndefinedBehaviorSanitizer: the whole suite. ---
# The fiber layer hand-switches stacks with swapcontext, which ASan can
# only follow through the __sanitizer_*_switch_fiber annotations in
# src/runtime/fiber.cpp — ASan keeps those annotations honest and catches
# stack misuse / lifetime bugs everywhere else. The footprint/sleep-set
# layer leans on bit shifts over 64-bit masks and on mixed-radix counter
# arithmetic; UBSan guards the shift widths and signed overflow.
for san in asan ubsan; do
  if [[ "${san}" == "asan" ]]; then
    configure_sanitized build-asan address
  else
    configure_sanitized build-ubsan undefined -fno-sanitize-recover=all
  fi
  cmake --build "build-${san}"
  ctest --test-dir "build-${san}" --output-on-failure \
    --timeout "${CTEST_TIMEOUT}"
done

# --- ThreadSanitizer: the stage `--tsan` runs (see tsan_stage above). ----
tsan_stage

# --- Benches: every experiment binary from a Release build, run in a -----
# temp directory; each self-gates on its claims, and every artifact value
# must equal the committed bench-results/ (scripts/refresh_bench_results.sh
# names the few cells compared by key only). The second pass at one worker
# thread pins that no artifact depends on the thread count. The pass never
# writes the tree (that is refresh_bench_results.sh without --check).
scripts/refresh_bench_results.sh --check
SUBC_BENCH_THREADS=1 scripts/refresh_bench_results.sh --check
echo "ALL CHECKS PASSED"
