#!/usr/bin/env bash
# Full verification pass: configure, build, run the test suite, run the
# AddressSanitizer, UndefinedBehaviorSanitizer and ThreadSanitizer
# configurations, then run every experiment binary from a Release build.
# Exits non-zero on the first failure. This is what CI would run. Every
# ctest invocation carries a per-test timeout so a hung exploration fails
# loudly instead of stalling the whole pass.
#
#   scripts/check.sh              full pass (tier-1 + sanitizers + benches)
#   scripts/check.sh --quick      tier-1 only: build + test suite, nothing else
#   scripts/check.sh --stepper-smoke engine-equivalence gate only: the
#                                 equivalence pin and stepped-engine suites
#                                 under Debug + AddressSanitizer — proves
#                                 fiber and stepped kernels explore
#                                 bit-identically before anything ships
#   scripts/check.sh --crash-smoke crash-exploration gate only: exhaustive
#                                 f=1 over Algorithm 5's doorway scenario
#                                 must verify linearizable, and the
#                                 doorway-ablated variant must report a
#                                 violation — both deterministic
#   scripts/check.sh --recovery-smoke crash-recovery gate only: the
#                                 recovery-exploration suite (restartable
#                                 processes, durable vs volatile objects,
#                                 the recoverable-consensus machine-check)
#                                 plus the recovery-axis equivalence pins,
#                                 under Debug + AddressSanitizer — restart
#                                 re-carves fiber stacks and stepped state
#                                 blocks, exactly what ASan must watch
#   scripts/check.sh --stateful-smoke stateful-exploration gate only: the
#                                 hashing/visited-set suite, the stateful
#                                 explorer suite, and the stateful half of
#                                 the equivalence pins, all under Debug +
#                                 AddressSanitizer — proves stateful cuts
#                                 stay sound and both engines fingerprint
#                                 identically before anything ships
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

QUICK=0
STEPPER_SMOKE=0
CRASH_SMOKE=0
RECOVERY_SMOKE=0
STATEFUL_SMOKE=0
SOAK_SMOKE=0
TSAN=0
for arg in "$@"; do
  case "${arg}" in
    --quick) QUICK=1 ;;
    --stepper-smoke) STEPPER_SMOKE=1 ;;
    --crash-smoke) CRASH_SMOKE=1 ;;
    --recovery-smoke) RECOVERY_SMOKE=1 ;;
    --stateful-smoke) STATEFUL_SMOKE=1 ;;
    --soak-smoke) SOAK_SMOKE=1 ;;
    --tsan) TSAN=1 ;;
    *)
      echo "usage: scripts/check.sh [--quick|--stepper-smoke|--crash-smoke|--recovery-smoke|--stateful-smoke|--soak-smoke|--tsan]" >&2
      exit 2
      ;;
  esac
done

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
  cmake -B build-tsan -G Ninja \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -g -O1" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan --target "${tests[@]}"
  for t in "${tests[@]}"; do
    echo "== tsan: ${t}"
    "build-tsan/tests/${t}"
  done
}

if [[ "${TSAN}" == "1" ]]; then
  tsan_stage
  echo "TSAN PASSED"
  exit 0
fi

# --- Stepper smoke: the engine-equivalence gate --------------------------
# The stepped engine is only admissible because it is *provably* the same
# search: the pin suite replays both engines across the {reduction,
# threads, crash} grid and requires bit-identical Results, and the stepper
# suite covers mixed-engine worlds, the fiber-fallback rule, replay/shrink
# and state-block teardown. Run under ASan so the duff's-device state
# blocks and the arena carving get lifetime-checked at the same time.
if [[ "${STEPPER_SMOKE}" == "1" ]]; then
  cmake -B build-asan -G Ninja \
    -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer -g -O1" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"
  cmake --build build-asan --target equivalence_pin_test stepper_test
  build-asan/tests/equivalence_pin_test
  build-asan/tests/stepper_test
  echo "STEPPER SMOKE PASSED"
  exit 0
fi

# --- Crash smoke: the exhaustive crash-exploration gate ------------------
# Two deterministic facts stand in for the whole robustness story: with
# f = 1 every single-crash placement over Algorithm 5's doorway scenario
# yields a linearizable history, and ablating the doorway makes the same
# exhaustive search convict the algorithm with a concrete counterexample.
# Both run under the step-quota watchdog, so a livelocked regression fails
# structurally instead of hanging the stage.
if [[ "${CRASH_SMOKE}" == "1" ]]; then
  cmake -B build -G Ninja
  cmake --build build --target crash_exploration_test
  build/tests/crash_exploration_test --gtest_filter='CrashExploration.Algorithm5LinearizableOverAllSingleCrashPlacements:CrashExploration.DoorwayAblationConvictedDeterministically'
  echo "CRASH SMOKE PASSED"
  exit 0
fi

# --- Recovery smoke: the crash-recovery gate ------------------------------
# Restart re-enters a crashed process from the top — destroying and
# re-carving its fiber stack or restoring its stepped state block from the
# pristine snapshot — while durable object state persists and volatile
# state is wiped by crash-event hooks. All of that is lifetime-sensitive,
# so the gate runs the recovery suite (restartable processes, the
# durability axis, replay/shrink/jsonl of recovery decisions, the
# recoverable-consensus machine-check) and the checkpoint suite's recovery
# campaign under ASan, plus the full equivalence pins whose f=1 r=1 axis
# requires both engines to restart bit-identically.
if [[ "${RECOVERY_SMOKE}" == "1" ]]; then
  cmake -B build-asan -G Ninja \
    -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer -g -O1" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"
  cmake --build build-asan --target recovery_exploration_test \
    checkpoint_resume_test equivalence_pin_test
  build-asan/tests/recovery_exploration_test
  build-asan/tests/checkpoint_resume_test \
    --gtest_filter='CheckpointResume.RecoveryExplorationCampaignResumes:CheckpointResume.DecisionStringsRoundTripIncludingCrashFlags'
  build-asan/tests/equivalence_pin_test --gtest_filter='-*Stateful*'
  echo "RECOVERY SMOKE PASSED"
  exit 0
fi

# --- Stateful smoke: the stateful-exploration soundness gate -------------
# Stateful cuts are only admissible because they are provably the same
# verdict: the hashing suite pins the fingerprint primitives and attacks
# the visited set's open addressing, the stateful suite covers soundness
# (violations found, replayed, shrunk; unported worlds degrade to zero
# cuts) and the knob/checkpoint rules, and the stateful equivalence pins
# require both engines to fingerprint bit-identically. Run under ASan so
# the concurrent visited set gets lifetime-checked at the same time.
if [[ "${STATEFUL_SMOKE}" == "1" ]]; then
  cmake -B build-asan -G Ninja \
    -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer -g -O1" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"
  cmake --build build-asan --target hashing_test stateful_exploration_test \
    equivalence_pin_test
  build-asan/tests/hashing_test
  build-asan/tests/stateful_exploration_test
  build-asan/tests/equivalence_pin_test --gtest_filter='*Stateful*'
  echo "STATEFUL SMOKE PASSED"
  exit 0
fi

# --- Soak smoke: the multi-instance service gate -------------------------
# ~5 s of agreement-as-a-service traffic (thousands of concurrent 1sWRN /
# GAC / set-consensus instances over one InstanceTable) under ASan, with
# every decided instance audited (audit-percent 100). The bench self-gates:
# zero audit violations, the >=1000 concurrent-live-instance high-water
# mark, and zero live instances left in the table at exit (block recycling,
# not monotone arena growth). The legacy randomized-schedule stage is
# skipped (0 s) — this gate is about the instance layer, and the full pass
# still soaks the legacy workloads from the Release bench stage. Results
# land in a scratch directory so checked-in bench-results/ stay untouched.
if [[ "${SOAK_SMOKE}" == "1" ]]; then
  cmake -B build-asan -G Ninja \
    -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer -g -O1" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"
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

if [[ "${QUICK}" == "1" ]]; then
  echo "QUICK CHECKS PASSED (tier-1 only; sanitizers and benches skipped)"
  exit 0
fi

# --- AddressSanitizer: the whole suite. The fiber layer hand-switches ----
# stacks with swapcontext, which ASan can only follow through the
# __sanitizer_*_switch_fiber annotations in src/runtime/fiber.cpp — this
# stage is what keeps those annotations honest, and catches stack misuse /
# lifetime bugs everywhere else.
cmake -B build-asan -G Ninja \
  -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer -g -O1" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"
cmake --build build-asan

ctest --test-dir build-asan --output-on-failure --timeout "${CTEST_TIMEOUT}"

# --- UndefinedBehaviorSanitizer: the whole suite. The footprint/sleep-set -
# layer leans on bit shifts over 64-bit masks and on mixed-radix counter
# arithmetic; UBSan guards the shift widths and signed overflow.
cmake -B build-ubsan -G Ninja \
  -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=all -fno-omit-frame-pointer -g -O1" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=undefined"
cmake --build build-ubsan

ctest --test-dir build-ubsan --output-on-failure --timeout "${CTEST_TIMEOUT}"

# --- ThreadSanitizer: the stage `--tsan` runs (see tsan_stage above). ----
tsan_stage

# --- Benches: Release build, JSON artifacts land in bench-results/ -------
cmake -B build-release -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build build-release

mkdir -p bench-results
cd bench-results
for bench in ../build-release/bench/bench_*; do
  echo "== ${bench}"
  "${bench}"
done
cd ..
echo "ALL CHECKS PASSED"
