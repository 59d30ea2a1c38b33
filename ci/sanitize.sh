#!/usr/bin/env bash
# Sanitizer sweep over the memcpy-heavy and kernel-contract suites.
#
# Builds the tree under EXA_SANITIZE and runs the targeted ctest labels
# (ROADMAP's CI item): migration and refluxing are memcpy-heavy
# (rebalance, amr), the debug-backend reruns replay every kernel in
# shuffled zone order, and the resilience suite hands staged checkpoint
# buffers to a background drain thread — under TSan that covers the
# main-thread/drain-thread handshake the runtime checkers cannot see.
# The async-comm and determinism labels cover the split-phase halo
# delivery and the fused-launch reruns at 1, 2 and 4 OpenMP threads.
# The combination is where sanitizers catch what the runtime checkers
# cannot, and vice versa. A seeded multi-fault campaign smoke test runs
# last: rank failures + halo corruption + a checkpoint bit flip through
# the full recover/replay path under the sanitizer.
#
# Usage:
#   ci/sanitize.sh                  # ASan+UBSan (default)
#   ci/sanitize.sh thread           # TSan (cannot combine with address)
#   ci/sanitize.sh "address;leak"   # any EXA_SANITIZE list
set -euo pipefail

SAN="${1:-address;undefined}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-sanitize-${SAN//;/-}"

# Repeated `ctest -L` flags AND together; one regex is the union.
LABELS='rebalance|debug-backend|amr|burn|resilience|ensemble|gravity|async-comm|determinism'

# TSan runs OpenMP single-threaded: libgomp is not TSan-instrumented, so
# its team synchronisation reads as races. Every recorded TSan run used
# this setting, and each run says so. (The determinism reruns set their
# own OMP_NUM_THREADS per test.)
if [[ "${SAN}" == *thread* ]]; then
    export OMP_NUM_THREADS=1
    echo "ci/sanitize.sh: ${SAN}: exported OMP_NUM_THREADS=1"
fi

cmake -B "${BUILD}" -S "${ROOT}" -DEXA_SANITIZE="${SAN}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD}" -j "$(nproc)"
ctest --test-dir "${BUILD}" --output-on-failure -j "$(nproc)" -L "${LABELS}"

# Seeded 3-fault campaign smoke test: the supervised Sedov campaign
# (rank-failure + halo-payload-corrupt + checkpoint-bit-flip) end to end
# under the sanitizer, exercising kill/shrink/restore/replay and the
# async drain thread outside the gtest harness.
"${BUILD}/tests/test_resilience" \
    --gtest_filter='ResilienceTest.CampaignSurvivesMultiFaultSchedule'
