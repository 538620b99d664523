#!/usr/bin/env sh
# Sanitizer lanes over the robustness-critical tests.
#
# ASan lane (default): the bulk-load pipeline, the fault-injection matrix,
# the durability layer (snapshots, WAL, crash recovery), the integrity
# checker and corruption fuzzers, the structural-index tests, the
# overload/cancellation lifecycle, the concurrent serving tests
# (`concurrency`: cached results are shared_ptrs handed to client threads
# at admission while eviction and invalidation drop the cache's own
# reference), the SQL executor's own tests (`sql`: sql_test and
# sql_metamorphic_test, whose random joins reach NOT and three-valued
# AND/OR over NULL through every planned access path) and a short torture
# campaign — every code path that handles torn/corrupt input, label
# arithmetic, predicate evaluation, mid-query unwinding, or result
# lifetimes across threads.  The full suite under ASan is slow; these
# labels are where the sanitizer earns its keep.
#
# TSan lane (`thread`): the differential query fuzzer, the concurrent
# serving tests — readers racing loads and checkpoints, the worker pool,
# the caches, and shared ExecStats — plus the MVCC snapshot-isolation
# harness (DESIGN.md §15), which is load-bearing HERE: its oracle only
# proves epochs are handed off race-free if TSan watches the readers
# fingerprint pinned versions while the writer commits beside them.
# Also the structural-index tests, whose bulk label merge and
# range-scan counters are shared state, and the overload tests
# (admission racing shutdown, abandon-cancel).  After the labels, the
# lane sweeps mvcc_test over 32 XMLREL_FUZZ_SEED values, so a
# timing-dependent oracle miss cannot hide behind one seed.
#
# UBSan lane (`undefined`): the planner's selectivity/cost arithmetic
# (double math over row counts, bitmask subset walks), the structural
# interval label arithmetic, the query fuzzer, the SQL executor tests
# (sql_test and sql_metamorphic_test: integer arithmetic, three-valued
# predicate evaluation, pk probes with real keys) and the
# integrity checker (which sums attacker-controlled label spans) — the
# code where a silent overflow would skew a plan rather than crash.
#
# Both ASan and TSan lanes also carry the planner label: statistics are
# folded on the commit path and read by concurrent planning threads.
#
# Usage: scripts/sanitize_lane.sh [address|thread|undefined] [build-dir]
#        (defaults: address, build-asan / build-tsan / build-ubsan)
set -eu

cd "$(dirname "$0")/.."
LANE=${1:-address}

case "$LANE" in
  address)
    BUILD_DIR=${2:-build-asan}
    LABELS='bulk|fault|durability|integrity|index|overload|concurrency|planner|mvcc|sql|torture'
    # Keep the sanitized torture leg short; scripts/torture.sh owns the
    # long campaign on the plain build.
    XMLREL_TORTURE_ITERS=${XMLREL_TORTURE_ITERS:-10}
    export XMLREL_TORTURE_ITERS
    ;;
  thread)
    BUILD_DIR=${2:-build-tsan}
    LABELS='query|concurrency|mvcc|index|overload|planner'
    ;;
  undefined)
    BUILD_DIR=${2:-build-ubsan}
    LABELS='planner|index|query|integrity|mvcc|sql'
    ;;
  *)
    echo "usage: $0 [address|thread|undefined] [build-dir]" >&2
    exit 2
    ;;
esac

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DXMLREL_SANITIZE="$LANE"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -L "$LABELS" \
      --output-on-failure -j "$(nproc)"

if [ "$LANE" = thread ]; then
  seed=20260809
  while [ "$seed" -lt 20260841 ]; do
    if ! XMLREL_FUZZ_SEED=$seed "$BUILD_DIR/tests/mvcc_test" > /dev/null; then
      echo "mvcc_test failed with XMLREL_FUZZ_SEED=$seed" >&2
      exit 1
    fi
    seed=$((seed + 1))
  done
  echo "mvcc_test passed 32 seeds"
fi
