#!/usr/bin/env bash
# Tier-1 verification flow, plus optional sanitizer stages.
#
#   scripts/check.sh            # configure, build, run the full test suite
#                               # (then each label suite — obs, optimizer,
#                               # workloads, ... — explicitly, so a label
#                               # regression is caught even if the full run
#                               # is filtered down later), the generator
#                               # and tree pins again in a Release tree
#                               # (build-release/), a build of the whole
#                               # tree with the observability kill switch
#                               # on and warnings fatal (build-obs-off/,
#                               # Release), the bench gates and
#                               # perfbench/selftest.py
#   TSAN=1 scripts/check.sh     # additionally build with -DAIMAI_SANITIZE=thread
#                               # and run the concurrency-sensitive suites
#                               # (obs, robustness, parallel, tuner,
#                               # inference, service, resilience, learning)
#                               # under ThreadSanitizer with an 8-thread pool
#   ASAN=1 scripts/check.sh     # additionally run the full suite under
#                               # ASan+UBSan (-DAIMAI_SANITIZE=ON), then
#                               # the exec, stats, traffic, ml,
#                               # inference, optimizer and workloads label
#                               # suites explicitly
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . >/dev/null
cmake --build build -j
ctest --test-dir build --output-on-failure -j
# The observability suite must stay selectable by label.
ctest --test-dir build -L obs --output-on-failure -j
# So must the concurrency suite (the TSan stage below depends on it).
ctest --test-dir build -L parallel --output-on-failure -j
# And the inference fast-path suite (every tree model serves what its own
# Save() tokens say, checked by a test-local walker over those tokens;
# zero-allocation wrappers, the feature memo).
ctest --test-dir build -L inference --output-on-failure -j
# And the optimizer suite (golden plan hashes over a query x configuration
# sweep of every workload family, so no enumerator change moves one bit of
# a plan).
ctest --test-dir build -L optimizer --output-on-failure -j
# And the workload-generator suite (golden table fingerprints and template
# query names of every family, spec validation in the registry).
ctest --test-dir build -L workloads --output-on-failure -j
# And the tree-learner suite (golden Save() hashes and prediction pins of
# every tree model, every truncated model file failing to load, the
# column-major bin matrix every tree of a fit reads).
ctest --test-dir build -L ml --output-on-failure -j
# And the execution-engine suite (vectorized-vs-row bit-identity of
# results, actual cardinalities, and derived costs).
ctest --test-dir build -L exec --output-on-failure -j
# And the column-statistics suite (the O(n) histogram build equals the
# sort-based oracle bit for bit on every generated workload column).
ctest --test-dir build -L stats --output-on-failure -j
# And the service runtime suite (multi-session determinism, hot swap,
# drain/checkpoint/resume).
ctest --test-dir build -L service --output-on-failure -j
# And the fault-tolerance suite (watchdog, journal recovery, tenant
# isolation, validated publish + rollback, chaos accounting).
ctest --test-dir build -L resilience --output-on-failure -j
# And the online learning loop (feedback harvest, drift-triggered
# background retrain, per-tenant adapted publish, runner-count
# bit-identity).
ctest --test-dir build -L learning --output-on-failure -j
# And the TPC-H-scale workload family (SF-proportional row counts,
# serial/parallel fill bit-identity, sorted dictionaries past 10^6
# entries, FK integrity).
ctest --test-dir build -L tpch_sf --output-on-failure -j
# And the open-loop traffic suite (arrival/schedule determinism, shed
# accounting balance, SLO deadline escalation, runner-count
# bit-identity, JobQueue aging).
ctest --test-dir build -L traffic --output-on-failure -j
# The generator and tree pins must also hold at the build type perfbench
# measures: golden table fingerprints, the ZipfSampler / bucket-correlated
# dictionary oracles, golden model Save() hashes and prediction pins, the
# token walker over every tree model's saved trees and the index bulk-load
# oracles (the bucket pass slices key values in floating point), rebuilt
# and rerun in a Release tree.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j --target common_test workloads_test \
  tpch_sf_test ml_tree_test inference_test btree_test
for t in common_test workloads_test tpch_sf_test ml_tree_test \
  inference_test btree_test; do
  "build-release/tests/$t"
done
# Observability kill switch: with -DAIMAI_OBS_DISABLE=ON the AIMAI_*
# macros compile to nothing, so a variable read only inside one becomes
# unused and -Werror stops src/. The whole tree (library, aimai_cli,
# every test and bench binary) must still build; nothing runs, because
# the obs-asserting tests expect the instrumentation to be on. This is
# also the warning-clean gate for the Release tree: -Werror here makes
# every warning in tests/, bench/ and examples/ fatal too (src/ keeps its
# own flags, where GCC 12's false-positive -Wrestrict stays non-fatal).
cmake -B build-obs-off -S . -DCMAKE_BUILD_TYPE=Release \
  -DAIMAI_OBS_DISABLE=ON -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build-obs-off -j
# Every gated bench writes BENCH_<name>.json through bench/report: it must
# parse as strict JSON (no NaN/Infinity constants) and start from the
# build header (build type, C++ flags, compiler, thread count).
check_bench_json() {
  python3 - "build/bench/BENCH_$1.json" <<'PY'
import json, sys

def reject(constant):
    raise ValueError(f"{sys.argv[1]}: non-finite number {constant}")

with open(sys.argv[1]) as f:
    report = json.load(f, parse_constant=reject)
if not isinstance(report.get("build"), dict):
    sys.exit(f"{sys.argv[1]}: no build header")
PY
}
# Chaos determinism stage: the same suite under an explicit fault-schedule
# seed — every fired injection must be accounted for at a non-default seed
# too (recovered + quarantined + shed == injected).
AIMAI_CHAOS_SEED=1337 ctest --test-dir build -L resilience \
  -R ChaosTest --output-on-failure
# Resilience overhead gate: watchdog + deadlines + journal must cost < 2%
# on a fault-free job stream, as the median CPU-time ratio over 401
# alternating baseline/resilient pairs (exits non-zero over the bar;
# emits BENCH_resilience.json).
(cd build/bench && AIMAI_QUICK=1 ./bench_resilience)
check_bench_json resilience
# Learning gates: harvest overhead < 2% (the same paired median) with
# bit-identical recommendations, retrain completes, adapted holdout
# F1 >= offline (exits non-zero over a bar; emits BENCH_learning.json).
(cd build/bench && AIMAI_QUICK=1 ./bench_learning)
check_bench_json learning
# Scale-factor gate: tpch_sf generation must be deterministic (same seed
# => identical per-table ContentFingerprints, pooled fill bit-identical
# to serial) while a tuning round runs per query family (exits non-zero
# on a determinism break; emits BENCH_tpch_scale.json).
(cd build/bench && AIMAI_QUICK=1 ./bench_tpch_scale)
check_bench_json tpch_scale
# Vectorized execution gate: the columnar pipeline must beat the row
# engine >= 3x on Q1/Q6-shaped lineitem plans while producing
# bit-identical results, cardinalities, costs, and tuning
# recommendations (exits non-zero otherwise; emits BENCH_exec.json).
(cd build/bench && AIMAI_QUICK=1 ./bench_exec)
check_bench_json exec
# Traffic gate: 1024 open-loop sessions with a flash-crowd overload
# window — shed accounting must balance exactly (engine, per tenant,
# and admission controller) and the steady phase at half capacity must
# hold its SLO-miss rate (exits non-zero otherwise; emits
# BENCH_traffic.json atomically).
(cd build/bench && AIMAI_QUICK=1 ./bench_traffic)
check_bench_json traffic
# End-to-end benchmark self-test: builds perfbench (Release, its own
# .bench_build/ tree) against the current src/ and checks every
# workload's quick-run digests and metric names. Tier-1 ctest never
# compiles perfbench, so an API break there would otherwise go unseen.
python3 perfbench/selftest.py

if [[ "${ASAN:-0}" == "1" ]]; then
  cmake -B build-san -S . -DAIMAI_SANITIZE=ON >/dev/null
  cmake --build build-san -j
  ctest --test-dir build-san --output-on-failure -j
  # The SF-scale generator suite must also be label-selectable under
  # ASan+UBSan (multi-million-element fills are where container misuse
  # would hide).
  ctest --test-dir build-san -L tpch_sf --output-on-failure -j
  # The batch kernels and arena allocator run the full exec parity suite
  # under ASan+UBSan (raw-pointer sweeps over column backing arrays).
  ctest --test-dir build-san -L exec --output-on-failure -j
  # The histogram build sweeps raw column arrays and probes its hash
  # set's raw slot array.
  ctest --test-dir build-san -L stats --output-on-failure -j
  # The traffic engine suite runs its overload/accounting paths under
  # ASan+UBSan too (per-tenant maps mutated from the dispatch thread).
  ctest --test-dir build-san -L traffic --output-on-failure -j
  # The tree learners index one shared bin matrix by global row id
  # (out-of-range bootstrap ids would read past a column).
  ctest --test-dir build-san -L 'ml|inference' --output-on-failure -j
  # The join search indexes its flat DP table by subset mask.
  ctest --test-dir build-san -L optimizer --output-on-failure -j
  # The generators fill raw column arrays through per-column Rng streams.
  ctest --test-dir build-san -L workloads --output-on-failure -j
fi

if [[ "${TSAN:-0}" == "1" ]]; then
  cmake -B build-tsan -S . -DAIMAI_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j
  # AIMAI_THREADS=8 forces the shared pool wide so the tuner suites
  # exercise real fan-out under TSan even on small CI machines. The
  # service suite runs >= 4 concurrent sessions (16 in the big guard)
  # over the shared cache domain, registry, and runner fleet here.
  # resilience runs here too: the watchdog thread, runner fleet, and
  # journal interleave under injected faults with TSan watching.
  AIMAI_THREADS=8 ctest --test-dir build-tsan \
    -L 'obs|robustness|parallel|tuner|inference|service|resilience|learning|exec|traffic' \
    --output-on-failure -j
fi

echo "check.sh: all requested stages passed"
