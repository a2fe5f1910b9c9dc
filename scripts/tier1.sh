#!/bin/sh
# Tier-1 verification: full build + test suite, then the thread-safety gate —
# a ThreadSanitizer build of the experiment executor, PDES engine, MPI
# point-to-point, and resilience tests (the suites that exercise the parallel
# campaign machinery, the sharded engine, and the failure-notification bus
# end to end). The TSan suites run three times: as-is, with
# EXASIM_SIM_WORKERS=4 so every engine run inside them is forced onto
# multiple worker threads, and with the adaptive scheduler on top so the
# widened-window/work-stealing paths are exercised under the race detector. A fourth, scoped repeat runs test_storage with
# EXASIM_CKPT_MODE=staged on 4 workers — the tiered writer's occupancy
# windows and drain bookkeeping under the race detector. The ASan leg runs
# pooled and EXASIM_NO_POOL=1, including the checkpoint store and runner
# suites (the shared restore plan outlives ranks whose fibers a failure
# unwinds) and the MPI edge-case, collective and ULFM suites (parked request
# and unexpected-message slots are poisoned, so a stale Request* or a
# revoked/timed-out receive left in a match queue reports like a
# use-after-free). The mc leg runs the model-checker suite
# (test_mc — a tiny scenario lattice end to end) under TSan, as-is and with
# EXASIM_JOBS=4 so the campaign executor fans scenario evaluations across
# worker threads under the race detector.
#
# Usage: scripts/tier1.sh [release|tsan|asan|mc|all] [jobs]
#   scripts/tier1.sh              # all legs, jobs = nproc
#   scripts/tier1.sh tsan         # one leg (what each CI job runs)
#   scripts/tier1.sh all 8        # all legs with 8 build jobs
#   scripts/tier1.sh 8            # back-compat: numeric first arg = jobs
set -eu

cd "$(dirname "$0")/.."

LEG="${1:-all}"
# Back-compat: a bare number as the first argument selects the job count.
case "$LEG" in
  ''|*[!0-9]*) ;;
  *) JOBS="$LEG"; LEG=all ;;
esac
JOBS="${JOBS:-${2:-$(nproc 2>/dev/null || echo 2)}}"

run_release() {
  echo "== tier 1: build + ctest =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  (cd build && ctest --output-on-failure -j "$JOBS")

  echo "== tier 1: examples smoke =="
  for ex in quickstart failure_modes checkpoint_restart ulfm_recovery \
            topology_comparison soft_errors; do
    if [ -x "build/examples/$ex" ]; then
      echo "-- examples/$ex"
      "./build/examples/$ex" >/dev/null
    fi
  done
}

run_tsan() {
  echo "== tier 1: ThreadSanitizer (test_exp + test_pdes + test_vmpi_p2p + test_resilience + test_storage) =="
  cmake -B build-tsan -S . -DEXASIM_TSAN=ON >/dev/null
  cmake --build build-tsan -j "$JOBS" --target test_exp test_pdes test_vmpi_p2p test_resilience test_storage
  (cd build-tsan && ctest --output-on-failure -R 'test_exp|test_pdes|test_vmpi_p2p|test_resilience|test_storage')

  echo "== tier 1: ThreadSanitizer, forced multi-worker engine =="
  (cd build-tsan && EXASIM_SIM_WORKERS=4 ctest --output-on-failure -R 'test_pdes|test_vmpi_p2p|test_resilience')

  echo "== tier 1: ThreadSanitizer, adaptive scheduler + stealing =="
  (cd build-tsan && EXASIM_SIM_WORKERS=4 EXASIM_SCHEDULER=adaptive \
    ctest --output-on-failure -R 'test_pdes|test_vmpi_p2p|test_resilience')

  echo "== tier 1: ThreadSanitizer, staged checkpointing on the sharded engine =="
  # Scoped to test_storage: the staged env default would change the simulated
  # times that other suites pin exactly.
  (cd build-tsan && EXASIM_SIM_WORKERS=4 EXASIM_CKPT_MODE=staged \
    ctest --output-on-failure -R 'test_storage')
}

run_asan() {
  echo "== tier 1: AddressSanitizer (pool/fiber/engine/vmpi/resilience/storage/runner suites) =="
  # Validates the hot-path memory pools: parked payload blocks, request and
  # unexpected-message slots, and recycled fiber stacks are shadow-poisoned,
  # so stale pointers into any of them trip ASan even though the memory
  # never went back to the system allocator. Runs both pooled and --no-pool
  # configurations via EXASIM_NO_POOL.
  cmake -B build-asan -S . -DEXASIM_ASAN=ON >/dev/null
  cmake --build build-asan -j "$JOBS" --target test_util test_fiber test_pdes test_vmpi_p2p \
    test_vmpi_edge test_vmpi_coll test_ulfm test_resilience test_storage test_runner
  ASAN_SUITES='test_util|test_fiber|test_pdes|test_vmpi_p2p|test_vmpi_edge|test_vmpi_coll|test_ulfm|test_resilience|test_storage|test_runner'
  (cd build-asan && ctest --output-on-failure -R "$ASAN_SUITES")
  (cd build-asan && EXASIM_NO_POOL=1 ctest --output-on-failure -R "$ASAN_SUITES")
}

run_mc() {
  echo "== tier 1: ThreadSanitizer, model checker (tiny lattice, serial + EXASIM_JOBS=4) =="
  cmake -B build-tsan -S . -DEXASIM_TSAN=ON >/dev/null
  cmake --build build-tsan -j "$JOBS" --target test_mc
  (cd build-tsan && ctest --output-on-failure -R 'test_mc')
  (cd build-tsan && EXASIM_JOBS=4 ctest --output-on-failure -R 'test_mc')
}

case "$LEG" in
  release) run_release ;;
  tsan)    run_tsan ;;
  asan)    run_asan ;;
  mc)      run_mc ;;
  all)     run_release; run_tsan; run_asan; run_mc ;;
  *) echo "tier1.sh: unknown leg '$LEG' (want release|tsan|asan|mc|all)" >&2; exit 2 ;;
esac

echo "tier 1 OK ($LEG)"
