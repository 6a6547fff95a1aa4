#!/usr/bin/env bash
#===-- scripts/verify.sh - Full local verification gate ------------------===//
#
# Part of the LIGER reproduction project.
#
# Runs, in order:
#   1. tier-1: build + full ctest in the primary build tree
#      (LIGER_VERIFY_BUILD_DIR, default ./build);
#   2. sanitized gradcheck: ASan+UBSan build (build-asan) running the
#      autodiff grad-check, arena, grad-sink, and checkpoint suites, the
#      equivalence suites that pin the fused ops against the reference
#      graphs in tests/ReferenceGraphs and the batched ops against
#      per-lane loops, the gradient kernels against their per-element
#      accumulation replays, and the activation-kernel suite (the AVX2 tanh
#      and sigmoid against libm at every length 0..33, unaligned and in
#      place, so a vector access past a buffer's end is caught);
#   3. sanitized trace cache + parallel corpus: the LGTR fuzz suite
#      (truncation and byte flips at every offset, and every payload
#      flip and cut behind a resealed checksum, which reach the
#      version-4 varint, bitmap and delta reader), the trace-collector
#      suite (its probe memo keeps a pointer into an unordered_map
#      across a probe), the byte-codec suite under all three file
#      formats (BinaryIOTest, varints included), the
#      thread-determinism corpus suites and the golden
#      interpreter/collector/corpus digests under ASan+UBSan;
#   3b. sanitized hardening: the bounded-execution suites (parser depth
#      budget, lexer byte totality, interpreter memory budget), the
#      wrapping-int and slot-layout suites of the interpreter and symx,
#      both executors' own suites (step recording, untraced callees,
#      the recording cap, symbolic paths) and the symbolic witnesses
#      replayed through the interpreter, plus a liger_fuzz smoke burst
#      and the regression-corpus replay, all under ASan+UBSan
#      (DESIGN.md §12);
#   3c. sanitized serving: the forward-only runtime suites (bitwise
#      inference equivalence in cold/warm/reverse rounds, the
#      prefix-bound decoder against the graph decode oracle for LIGER,
#      DYPRO and code2seq, embedding-store token ids, kind tag and
#      rebind, LGWI truncation/corruption/mmap fuzz, shared trace-cache
#      concurrency, stats() during concurrent handle()) and a
#      liger_serve --smoke burst under ASan+UBSan (DESIGN.md §13);
#   3c'. thread-sanitized trace cache and training: a ThreadSanitizer
#      build (build-tsan, flags on the command line, no CMake option) of
#      testgen_tests, serve_tests, dataset_tests and eval_tests, running
#      the trace cache suite, the shared-cache and stats() concurrency
#      suites, the corpus trace-cache suite (one memory-only cache hit
#      from four workers, which parse entries outside the cache's lock
#      into states that share heap payloads, freed on whichever thread
#      drops them), and threaded training: the lockstep and per-sample
#      epoch equivalence tests and the lockstep LIGER digest, whose
#      shard workers run the gradient kernels on pool threads; TSan
#      exits 66 on any report, which fails the step;
#   3d. sanitized lockstep training and the drift gate: the threaded
#      batched-epoch equivalence suites (losses and final weights
#      bitwise-identical at 1, 2 and 4 threads), the golden digest of
#      every name model and classifier at a tiny scale
#      (ExperimentDigestTest: training, evaluation through the
#      forward-only runtime, fusion statistics), the batched-loss
#      equivalence suite (each lane's lossBatch value bitwise against
#      the same sample's batch of one, gradients against the
#      per-sample sum), the LIGER model suite (every LIGER graph,
#      ablations and classifier included, runs the lockstep walk), the
#      DYPRO, code2seq and code2vec suites (DYPRO's encoder bitwise
#      against its string-keyed oracle) and the seeded parameter
#      layouts under ASan+UBSan (DESIGN.md §14);
#   4. scalar fallback: LIGER_NATIVE_SIMD=OFF build (build-scalar) +
#      full ctest, so the portable kernels stay green alongside the
#      AVX2 ones (there the activation kernels are the libm calls
#      themselves, so ActivationKernelTest holds trivially);
#   5. kernel benches in smoke mode on both the SIMD and the scalar
#      build (sanity that the bench harness, the fused ops, and the
#      batched matmul/cell/attention paths still run; timings are not
#      checked here);
#   6. trace pipeline bench in smoke mode (off/cold/warm determinism
#      checks at a tiny scale; exits non-zero on any mismatch);
#   6b. epoch-throughput bench in smoke mode: per-sample, batched, and
#      batched-threaded modes at a tiny scale; exits non-zero if the
#      batched losses diverge across thread counts;
#   7. serve smoke on the SIMD build: liger_serve --smoke starts the
#      engine, answers a burst including hostile and deadline-starved
#      methods, and shuts down cleanly.
#
# The smoke steps (6, 7, and 3c's serve burst) share one on-disk trace
# cache ($BUILD/verify-trace-cache, wiped once up front) — the same
# concurrent-reader contract the figure benches rely on (DESIGN.md
# §13.3).
#
# Invoke directly or via `cmake --build build --target liger_verify`.
#
#===----------------------------------------------------------------------===//

set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${LIGER_VERIFY_BUILD_DIR:-$REPO/build}"
JOBS="$(nproc 2>/dev/null || echo 4)"
CACHE="$BUILD/verify-trace-cache"
rm -rf "$CACHE"

step() { printf '\n=== verify: %s ===\n' "$*"; }

step "tier-1 build + ctest ($BUILD)"
cmake -B "$BUILD" -S "$REPO"
cmake --build "$BUILD" -j "$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

step "sanitized gradcheck build (build-asan)"
cmake -B "$REPO/build-asan" -S "$REPO" -DLIGER_SANITIZE=ON
cmake --build "$REPO/build-asan" -j "$JOBS" \
  --target support_tests nn_tests testgen_tests dataset_tests interp_tests \
           lang_tests symx_tests property_tests eval_tests models_tests \
           serve_tests liger_fuzz liger_serve
"$REPO/build-asan/tests/nn_tests" \
  --gtest_filter='GradCheckTest.*:GraphArenaTest.*:GradSinkTest.*:CheckpointTest.*:ParamStoreTest.*:FusedEquivalenceTest.*:AttentionEquivalenceTest.*:BatchedKernelEquivalenceTest.*:BackwardKernelOrderTest.*:ActivationKernelTest.*'

step "sanitized trace cache + parallel corpus (build-asan)"
"$REPO/build-asan/tests/testgen_tests" \
  --gtest_filter='TraceCacheTest.*:TraceCollectorTest.*'
"$REPO/build-asan/tests/support_tests" --gtest_filter='BinaryIOTest.*'
"$REPO/build-asan/tests/dataset_tests" \
  --gtest_filter='CorpusParallelEquivalenceTest.*:CorpusTraceCacheTest.*:GoldenDigestTest.*'

step "sanitized hardening: depth/memory budgets + fuzz smoke (build-asan)"
"$REPO/build-asan/tests/interp_tests" \
  --gtest_filter='InterpTest.*:InterpHardeningTest.*:InterpIntSemanticsTest.*:FrameLayoutTest.*:InterpCycleTest.*'
"$REPO/build-asan/tests/symx_tests" \
  --gtest_filter='SymxIntSemanticsTest.*:SymExecTest.*'
"$REPO/build-asan/tests/property_tests" \
  --gtest_filter='Subjects/SymxReplayP.*'
"$REPO/build-asan/tests/lang_tests" \
  --gtest_filter='ParserDepthTest.*:LexerHardeningTest.*'
"$REPO/build-asan/tools/liger_fuzz" --smoke --replay "$REPO/tests/fuzz-corpus"

step "sanitized serving: inference equivalence + embedding store + shared cache + serve smoke (build-asan)"
# Every serve_tests suite: InferenceEquivalenceTest, ValueTokenIdsTest,
# InferenceStoreTest, WeightImageTest, ServeStatusTest,
# ServeStatsConcurrencyTest, ServeDeadlineTest, ServeSharedCacheTest,
# TraceCacheConcurrencyTest.
"$REPO/build-asan/tests/serve_tests"
"$REPO/build-asan/tools/liger_serve" --smoke --trace-cache-dir="$CACHE"

step "thread-sanitized trace cache + lockstep training workers (build-tsan)"
# LIGER_SANITIZE is ASan+UBSan only; TSan needs a tree of its own.
# TSan exits 66 on any report, so a race fails this step.
cmake -B "$REPO/build-tsan" -S "$REPO" \
  -DCMAKE_CXX_FLAGS="-g -fsanitize=thread" \
  -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread
cmake --build "$REPO/build-tsan" -j "$JOBS" \
  --target testgen_tests serve_tests dataset_tests eval_tests
"$REPO/build-tsan/tests/testgen_tests" --gtest_filter='TraceCacheTest.*'
"$REPO/build-tsan/tests/serve_tests" \
  --gtest_filter='TraceCacheConcurrencyTest.*:ServeSharedCacheTest.*:ServeStatsConcurrencyTest.*'
"$REPO/build-tsan/tests/dataset_tests" --gtest_filter='CorpusTraceCacheTest.*'
# Shard workers build and differentiate their graphs on pool threads,
# through the gradient kernels, into per-shard sinks.
"$REPO/build-tsan/tests/eval_tests" \
  --gtest_filter='TrainingIntegrationTest.LockstepThreadedEpochIsBitwise:TrainingIntegrationTest.ParallelEpochMatchesSerialBitwise:ExperimentDigestTest.LockstepLiger'

step "sanitized lockstep training + drift gate: threaded batched-epoch, experiment digest, batched-loss equivalence, baselines (build-asan)"
"$REPO/build-asan/tests/eval_tests" \
  --gtest_filter='TrainingIntegrationTest.LockstepThreadedEpochIsBitwise:TrainingIntegrationTest.ParallelEpochMatchesSerialBitwise:ExperimentDigestTest.*'
"$REPO/build-asan/tests/models_tests" \
  --gtest_filter='BatchedLossEquivalenceTest.*:LigerTest.*:DyproTest.*:DyproEquivalenceTest.*:Code2SeqTest.*:Code2VecTest.*:ParamLayoutTest.*'

step "scalar fallback build + ctest (build-scalar, LIGER_NATIVE_SIMD=OFF)"
cmake -B "$REPO/build-scalar" -S "$REPO" -DLIGER_NATIVE_SIMD=OFF
cmake --build "$REPO/build-scalar" -j "$JOBS"
ctest --test-dir "$REPO/build-scalar" --output-on-failure -j "$JOBS"

step "kernel benches (smoke)"
"$BUILD/bench/micro_substrates" --kernels-only --smoke
# Same smoke through the portable kernels: the scalar build drives the
# batched matmul/cell/attention benches down the non-AVX2 path.
"$REPO/build-scalar/bench/micro_substrates" --kernels-only --smoke

step "trace pipeline bench (smoke)"
# Run from inside the build tree so the smoke-scale BENCH_pipeline.json
# lands there, not over the checked-in full-scale result at the repo
# root. The bench manages cold/warm subdirectories under the shared
# verify cache itself.
(cd "$BUILD" && ./bench/pipeline_throughput --methods=6 \
   --trace-cache-dir="$CACHE")

step "epoch throughput bench (smoke: per-sample / batched / batched-threaded)"
# Also run from inside the build tree so the smoke-scale
# BENCH_epoch.json does not clobber the checked-in full-scale result.
# Exits non-zero if the batched and batched-threaded final losses are
# not bitwise-identical.
(cd "$BUILD" && ./bench/epoch_throughput --smoke)

step "serve smoke (SIMD build, shared verify cache)"
# Second consumer of the shared cache dir this run (after the
# sanitized smoke above): repeated entries must hit, fresh hostile
# entries must miss, and the deadline-starved request must surface as
# deadline-exceeded either way.
"$BUILD/tools/liger_serve" --smoke --trace-cache-dir="$CACHE"

step "all gates passed"
