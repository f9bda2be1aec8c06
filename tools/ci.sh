#!/usr/bin/env bash
# Correctness-tooling CI matrix for autocat.
#
# Runs, in order:
#   1. Release build + full ctest (includes the autocat_lint gate and the
#      SQL fuzz-corpus replay)
#   2. The paper-evaluation gate (also available alone as --figures): the
#      deterministic figure/table binaries against their golden outputs
#   3. Debug + AddressSanitizer build + full ctest
#   4. Debug + UndefinedBehaviorSanitizer build + full ctest
#   5. Debug + ThreadSanitizer build + full ctest (the parallel engine's
#      pool, hot paths, and determinism suite under real interleavings)
#   6. The static-analysis leg (also available alone as --analyze):
#      clang thread-safety analysis over the annotated tree, the
#      concurrency lint rules (autocat_lint), and clang-tidy with the
#      concurrency-* checks. Clang-dependent stages skip with a notice
#      when the toolchain is absent (the ctest gates skip the same way
#      via exit code 77); the lint stage always runs.
#
# Usage: tools/ci.sh [--fast|--serve|--pipeline|--bench-smoke|--workload|--store|--kernels|--figures|--analyze]
#   --fast   run only the Release leg (useful as a pre-push smoke test)
#   --serve  run only the serving-layer suite (src/serve/ + histogram +
#            Database + the views and result tables that select from a
#            shadow)
#            under ASan and TSan, including three pool workers driving
#            cold and cached requests over a generated table and a
#            four-thread scenario-harness replay — the targeted gate for
#            cache/admission concurrency work
#   --pipeline
#            run the cold-path pipeline and request-coalescing suites
#            (the filter -> materialize -> attribute-index chain against
#            its sequential reference at threads 1/2/7/16, the zone
#            prover's verdicts and the pipeline's pruning counters,
#            served responses against the row oracle, the coalescing
#            registry, the service burst tests, and the Database's
#            column-backed install and views) in Release and under
#            ASan, UBSan and TSan, plus bench_pipeline (cold ms/op) at
#            --smoke sizes — the targeted gate for cold-path, scheduler
#            and coalescing work. The TSan pass of this leg also runs in
#            the default matrix.
#   --bench-smoke
#            build and run bench_exec_filter and bench_pipeline at tiny
#            sizes (--smoke) under ASan and TSan — the targeted gate for
#            the columnar engine's kernels, views and the cold pipeline,
#            exercised through the real benchmark drivers rather than
#            unit fixtures (the threaded serve path is gated by
#            ServiceTest.ConcurrentColdAndHitTrafficMatchesSequential in
#            the --serve leg)
#   --workload
#            run the workload-harness suites (session/traffic/scenario
#            generators, the scenario harness with its drift-recovery
#            gate, loadgen flag parsing, admission bursts, and the
#            determinism proofs) in Release and under TSan, plus the
#            scenario benchmark at --smoke sizes — the targeted gate for
#            workload-synthesis and adaptive-serving work. The TSan pass
#            of this leg also runs in the default matrix.
#   --store  run the persistent segment-store suite (coding/segment
#            decoders, mapped file + buffer manager, external-sort
#            writer, corruption rejection, the store-vs-memory
#            equivalence gate, simgen flag parsing, and the decoder
#            fuzz-corpus replay) in Release and under ASan and TSan —
#            the targeted gate for on-disk-format work. The ASan and
#            TSan passes of this leg also run in the default matrix.
#   --kernels
#            run the zone-map + filter-kernel suites (exact zone
#            metadata, the zone prover's refuse-or-exact verdicts against
#            row truth, cold-pipeline pruning counters, posting lists and
#            the posting-sourced filter against the row oracle, and the
#            cold pipeline over the profiles of the fuzz corpus and
#            randomized queries against the row oracle at threads
#            1/2/7/16) in Release and under ASan and UBSan, plus
#            bench_exec_filter at --smoke sizes — the targeted gate for
#            filter-kernel and zone-map work (DESIGN.md section 15). The ASan and UBSan
#            passes of this leg also run in the default matrix.
#   --figures
#            build Release and run the 11 deterministic paper-evaluation
#            binaries (Figures 4/5, 7-12 and Tables 1-4): each must exit 0
#            (its own shape check HOLDS) and print exactly its golden
#            output in tests/golden/figures/ — the gate that every
#            technique's trees, hence the paper's figures, are unchanged.
#            Also runs in the default matrix.
#   --analyze
#            run only the static-analysis leg — the targeted gate for
#            concurrency-discipline work (DESIGN.md section 11)

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
FAST=0
SERVE=0
PIPELINE=0
BENCH_SMOKE=0
WORKLOAD=0
STORE=0
KERNELS=0
FIGURES=0
ANALYZE=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
elif [[ "${1:-}" == "--serve" ]]; then
  SERVE=1
elif [[ "${1:-}" == "--pipeline" ]]; then
  PIPELINE=1
elif [[ "${1:-}" == "--bench-smoke" ]]; then
  BENCH_SMOKE=1
elif [[ "${1:-}" == "--workload" ]]; then
  WORKLOAD=1
elif [[ "${1:-}" == "--store" ]]; then
  STORE=1
elif [[ "${1:-}" == "--kernels" ]]; then
  KERNELS=1
elif [[ "${1:-}" == "--figures" ]]; then
  FIGURES=1
elif [[ "${1:-}" == "--analyze" ]]; then
  ANALYZE=1
fi

# Every serving-layer test suite, plus the histogram the metrics build on,
# the Database whose column-backed tables requests read under the shared
# lock, the views and result tables that select from those shadows, the
# builder tables and CSV reader they are built from, the executor that
# answers with a selection over a shadow and its row filter, and the
# scenario harness replaying four requests at a time.
SERVE_FILTER='^(ServiceTest|SignatureTest|SignatureCacheTest|CachedCategorizationTest|AdmissionTest|ServiceMetricsTest|HistogramTest|DatabaseTest|SelectionTableTest|TableViewTest|TableViewDeathTest|TableTest|CsvTest|ExecutorTest|FilterTableTest)\.|^WorkloadHarnessTest\.FourThreadReplayAnswersEveryRequest$'

serve_leg() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [serve/$name] configure ===="
  cmake -B "$ROOT/$dir" -S "$ROOT" "$@"
  echo "==== [serve/$name] build ===="
  cmake --build "$ROOT/$dir" -j "$JOBS" \
    --target autocat_serve_tests autocat_common_tests autocat_sql_tests \
             autocat_columnar_tests autocat_workloadgen_tests
  echo "==== [serve/$name] ctest ===="
  (cd "$ROOT/$dir" && ctest --output-on-failure -j "$JOBS" \
    -R "$SERVE_FILTER")
}

# The pipeline/coalescing gate: the cold path's equivalence suite
# against a sequential Filter -> builder copy of the selected rows ->
# rescan reference
# (bit-identical results, byte accounting and attribute indexes at
# thread counts 1/2/7/16), the zone prover with the pipeline's verdict
# counters, the posting-list candidate source against MatchesRow at
# thread counts 1/2/7/16 with its work counters, the coalescing registry
# units, the service-level oracle and burst/epoch-invalidation tests, and
# every categorization technique built from presorted runs against a
# per-node sort/group reference at thread counts 1/2/7/16 (over a
# built shadow and a mapped segment store), the per-node partitioners
# that read the same key orders, the result
# tables that select from a shadow against builder copies of their rows,
# the views over them (a foreign shadow refused), the Database installing
# every table column-backed (its row oracle bit-identical to the row
# table's), and the release of a replaced table version's shadow (stale
# cache entries dropped at the epoch bump, stale inserts refused).
PIPELINE_FILTER='^(PipelineEquivalenceTest|CategorizeRunsTest|PartitionNumericTest|PartitionEquiWidthTest|PartitionCategoricalTest|PartitionArbitraryTest|ZoneProverTest|PostingListTest|PostingSourceTest|CoalescingRegistryTest|ServiceCoalescingTest|SelectionTableTest|TableViewTest|TableViewDeathTest|DatabaseTest)\.|^ServiceTest\.(PutTableReleasesTheReplacedShadow|RebuildWorkloadDropsStaleEntriesAtOnce)$|^SignatureCacheTest\.(BumpEpochRemovesStaleEntriesBeforeReturning|StaleInsertIsRefusedAndCounted)$'

pipeline_leg() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [pipeline/$name] configure ===="
  cmake -B "$ROOT/$dir" -S "$ROOT" "$@"
  echo "==== [pipeline/$name] build ===="
  cmake --build "$ROOT/$dir" -j "$JOBS" \
    --target autocat_columnar_tests autocat_kernel_tests \
             autocat_serve_tests autocat_sql_tests autocat_core_tests \
             bench_pipeline
  echo "==== [pipeline/$name] ctest ===="
  (cd "$ROOT/$dir" && ctest --output-on-failure -j "$JOBS" \
    -R "$PIPELINE_FILTER")
  echo "==== [pipeline/$name] bench_pipeline --smoke ===="
  "$ROOT/$dir/bench/bench_pipeline" --smoke --benchmark_min_time=0.01
}

# The workload-harness gate: scenario/session/traffic generation, the
# scenario harness (including the drift-recovery acceptance gate), strict
# loadgen flag parsing, the scripted admission burst, and the
# bit-identical-at-any-thread-count determinism proofs.
WORKLOAD_FILTER='^(SessionGeneratorTest|TrafficStreamTest|ScenarioSpecTest|WorkloadHarnessTest|LoadgenFlagsTest|ParallelDeterminismTest|AdmissionTest)\.'

workload_leg() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [workload/$name] configure ===="
  cmake -B "$ROOT/$dir" -S "$ROOT" "$@"
  echo "==== [workload/$name] build ===="
  cmake --build "$ROOT/$dir" -j "$JOBS" \
    --target autocat_workloadgen_tests autocat_tooling_tests \
             autocat_parallel_tests autocat_serve_tests \
             bench_workload_scenarios
  echo "==== [workload/$name] ctest ===="
  (cd "$ROOT/$dir" && ctest --output-on-failure -j "$JOBS" \
    -R "$WORKLOAD_FILTER")
  echo "==== [workload/$name] bench_workload_scenarios --smoke ===="
  "$ROOT/$dir/bench/bench_workload_scenarios" --smoke \
    --benchmark_min_time=0.01
}

# The segment-store gate: every Store* suite in tests/store_test.cc and
# the store-vs-memory equivalence tests, the strict simgen flag parser,
# and the decoder fuzz corpus replayed as a plain ctest entry.
STORE_FILTER='^(StoreCodingTest|StoreSegmentTest|StoreMappedFileTest|StoreBufferManagerTest|StoreSorterTest|StoreWriterTest|StoreRoundTripTest|StoreCorruptionTest|StoreEquivalenceTest|SimgenFlagsTest)\.|^store_fuzz_corpus_replay$'

store_leg() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [store/$name] configure ===="
  cmake -B "$ROOT/$dir" -S "$ROOT" "$@"
  echo "==== [store/$name] build ===="
  cmake --build "$ROOT/$dir" -j "$JOBS" \
    --target autocat_store_tests autocat_tooling_tests \
             autocat_store_fuzz_replay
  echo "==== [store/$name] ctest ===="
  (cd "$ROOT/$dir" && ctest --output-on-failure -j "$JOBS" \
    -R "$STORE_FILTER")
}

# The zone-map + filter-kernel gate: zone metadata construction, the
# zone prover's refuse-or-exact verdicts (randomized, NULL/NaN edges,
# clustered pruning bite, cold-pipeline counters), the CSR posting lists
# and the posting-sourced filter against MatchesRow, the cold pipeline
# over the profiles of the fuzz corpus and of randomized queries against
# MatchesRow at threads 1/2/7/16 (PipelineEquivalenceTest), and the
# columnar equivalence suite, where the profile compiler is held total
# and exact against MatchesRow (randomized profiles and edge values) and
# a mixed-type column dies in Build.
KERNELS_FILTER='^(ZoneMapTest|ZoneProverTest|PostingListTest|PostingSourceTest|PipelineEquivalenceTest|StoreRoundTripTest|ColumnarEquivalenceTest|ColumnarEquivalenceDeathTest)\.'

kernels_leg() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [kernels/$name] configure ===="
  cmake -B "$ROOT/$dir" -S "$ROOT" "$@"
  echo "==== [kernels/$name] build ===="
  cmake --build "$ROOT/$dir" -j "$JOBS" \
    --target autocat_kernel_tests autocat_store_tests \
    autocat_columnar_tests bench_exec_filter
  echo "==== [kernels/$name] ctest ===="
  (cd "$ROOT/$dir" && ctest --output-on-failure -j "$JOBS" \
    -R "$KERNELS_FILTER")
  echo "==== [kernels/$name] bench_exec_filter --smoke ===="
  "$ROOT/$dir/bench/bench_exec_filter" --smoke --benchmark_min_time=0.01
}

# The paper-evaluation gate: the deterministic figure and table binaries
# (bench_fig13_execution_time reports wall time and is left out). Their
# stdout is compared byte for byte with the goldens; to re-record after a
# deliberate change to the evaluation, copy build-ci-release/figures/*.txt
# over tests/golden/figures/.
FIGURE_BINARIES=(
  bench_fig4_fig5_counts bench_fig7_correlation bench_fig8_fractional_cost
  bench_fig9_cost_all_tasks bench_fig10_relevant_found
  bench_fig11_normalized_cost bench_fig12_cost_one_tasks
  bench_table1_subset_correlation bench_table2_user_correlation
  bench_table3_vs_no_categorization bench_table4_survey
)

figures_leg() {
  local dir="build-ci-release"
  local out="$ROOT/$dir/figures"
  echo "==== [figures] configure ===="
  cmake -B "$ROOT/$dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
  echo "==== [figures] build ===="
  cmake --build "$ROOT/$dir" -j "$JOBS" --target "${FIGURE_BINARIES[@]}"
  echo "==== [figures] run (up to $JOBS at a time) ===="
  mkdir -p "$out"
  # Their outputs do not depend on the thread count, so they may share
  # the cores; xargs exits non-zero when any run does.
  printf '%s\n' "${FIGURE_BINARIES[@]}" |
    xargs -P "$JOBS" -I{} sh -c '"$1/bench/$2" > "$3/$2.txt" || {
      echo "$2: exit $?" >&2; exit 1; }' _ "$ROOT/$dir" {} "$out"
  echo "==== [figures] diff against tests/golden/figures ===="
  local b failed=0
  for b in "${FIGURE_BINARIES[@]}"; do
    diff -u "$ROOT/tests/golden/figures/$b.txt" "$out/$b.txt" || failed=1
  done
  return "$failed"
}

bench_smoke_leg() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [bench-smoke/$name] configure ===="
  cmake -B "$ROOT/$dir" -S "$ROOT" "$@"
  echo "==== [bench-smoke/$name] build ===="
  cmake --build "$ROOT/$dir" -j "$JOBS" \
    --target bench_exec_filter bench_pipeline
  echo "==== [bench-smoke/$name] bench_exec_filter ===="
  "$ROOT/$dir/bench/bench_exec_filter" --smoke --benchmark_min_time=0.01
  echo "==== [bench-smoke/$name] bench_pipeline ===="
  "$ROOT/$dir/bench/bench_pipeline" --smoke --benchmark_min_time=0.01
}

# The static-analysis leg: thread-safety annotations (clang), the
# concurrency lint rules, and clang-tidy's concurrency checks. Needs a
# Release build dir for the lint binary and the compile database.
analyze_leg() {
  local dir="build-ci-release"
  echo "==== [analyze] configure + build lint ===="
  cmake -B "$ROOT/$dir" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$ROOT/$dir" -j "$JOBS" --target autocat_lint

  echo "==== [analyze] thread-safety ===="
  if "$ROOT/tools/run_thread_safety.sh" "$ROOT"; then
    echo "thread-safety: clean"
  else
    local rc=$?
    if [[ "$rc" == "77" ]]; then
      echo "thread-safety: clang++ not installed, skipped"
    else
      echo "thread-safety: FAILED (exit $rc)" >&2
      exit "$rc"
    fi
  fi

  echo "==== [analyze] autocat_lint (concurrency rules) ===="
  "$ROOT/$dir/tools/autocat_lint" --root "$ROOT" src tools

  echo "==== [analyze] clang-tidy (incl. concurrency-*) ===="
  if "$ROOT/tools/run_clang_tidy.sh" "$ROOT" "$ROOT/$dir"; then
    echo "clang-tidy: clean"
  else
    local rc=$?
    if [[ "$rc" == "77" ]]; then
      echo "clang-tidy: not installed, skipped"
    else
      echo "clang-tidy: FAILED (exit $rc)" >&2
      exit "$rc"
    fi
  fi
}

if [[ "$ANALYZE" == "1" ]]; then
  analyze_leg
  echo "==== analyze leg passed ===="
  exit 0
fi

if [[ "$FIGURES" == "1" ]]; then
  figures_leg
  echo "==== figures leg passed ===="
  exit 0
fi

if [[ "$BENCH_SMOKE" == "1" ]]; then
  bench_smoke_leg asan build-ci-asan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=address
  bench_smoke_leg tsan build-ci-tsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=thread
  echo "==== bench-smoke legs passed ===="
  exit 0
fi

if [[ "$WORKLOAD" == "1" ]]; then
  workload_leg release build-ci-release -DCMAKE_BUILD_TYPE=Release
  workload_leg tsan build-ci-tsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=thread
  echo "==== workload legs passed ===="
  exit 0
fi

if [[ "$STORE" == "1" ]]; then
  store_leg release build-ci-release -DCMAKE_BUILD_TYPE=Release
  store_leg asan build-ci-asan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=address
  store_leg tsan build-ci-tsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=thread
  echo "==== store legs passed ===="
  exit 0
fi

if [[ "$KERNELS" == "1" ]]; then
  kernels_leg release build-ci-release -DCMAKE_BUILD_TYPE=Release
  kernels_leg asan build-ci-asan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=address
  kernels_leg ubsan build-ci-ubsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=undefined
  echo "==== kernels legs passed ===="
  exit 0
fi

if [[ "$SERVE" == "1" ]]; then
  serve_leg asan build-ci-asan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=address
  serve_leg tsan build-ci-tsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=thread
  echo "==== serve legs passed ===="
  exit 0
fi

if [[ "$PIPELINE" == "1" ]]; then
  pipeline_leg release build-ci-release -DCMAKE_BUILD_TYPE=Release
  pipeline_leg asan build-ci-asan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=address
  pipeline_leg ubsan build-ci-ubsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=undefined
  pipeline_leg tsan build-ci-tsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=thread
  echo "==== pipeline legs passed ===="
  exit 0
fi

run_leg() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [$name] configure ===="
  cmake -B "$ROOT/$dir" -S "$ROOT" "$@"
  echo "==== [$name] build ===="
  cmake --build "$ROOT/$dir" -j "$JOBS"
  echo "==== [$name] ctest ===="
  (cd "$ROOT/$dir" && ctest --output-on-failure -j "$JOBS")
}

run_leg release build-ci-release -DCMAKE_BUILD_TYPE=Release

if [[ "$FAST" == "0" ]]; then
  # The paper-evaluation gate reuses the Release build dir.
  figures_leg
  run_leg asan build-ci-asan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=address
  run_leg ubsan build-ci-ubsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=undefined
  run_leg tsan build-ci-tsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=thread
  # The workload gate's TSan pass: the full leg above already ran these
  # suites, so this reuses the build dir and adds only the scenario
  # benchmark under TSan (the harness through the benchmark driver, at
  # threads = 1; the threaded serve path is gated by
  # ServiceTest.ConcurrentColdAndHitTrafficMatchesSequential in the
  # full leg and in --serve).
  workload_leg tsan build-ci-tsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=thread
  # The pipeline/coalescing gate's TSan pass: same build-dir reuse; adds
  # bench_pipeline --smoke under TSan (the filter's morsel fan-out
  # through the real benchmark driver).
  pipeline_leg tsan build-ci-tsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=thread
  # The store gate's sanitizer passes (the full ASan/TSan legs above ran
  # the suites already; these reuse the build dirs and pin the filter so
  # a future split of the full matrix keeps the store gate explicit).
  store_leg asan build-ci-asan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=address
  store_leg tsan build-ci-tsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=thread
  # The kernel gate's sanitizer passes (build-dir reuse as above; adds
  # bench_exec_filter --smoke under ASan/UBSan through the real driver).
  kernels_leg asan build-ci-asan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=address
  kernels_leg ubsan build-ci-ubsan \
    -DCMAKE_BUILD_TYPE=Debug -DAUTOCAT_SANITIZE=undefined
fi

analyze_leg

echo "==== CI matrix passed ===="
