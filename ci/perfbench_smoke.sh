#!/usr/bin/env bash
# Benchmark build check: builds perfbench/exabench against the current
# sources and runs every workload at toy sizes (perfbench/selftest.py).
# Tier-1 ctest never compiles exabench, so an API change that breaks the
# benchmark would otherwise pass unseen.
#
# Needs an otherwise idle host: the OpenMP workloads slow down sharply
# when their threads share cores with other jobs, and run.py kills a
# pass that overruns its wall budget.
#
# Usage:
#   ci/perfbench_smoke.sh
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "${ROOT}"
python3 perfbench/selftest.py
