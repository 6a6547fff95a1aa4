//===-- bench/BenchCommon.h - Shared bench harness helpers ------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Output helpers shared by the table/figure reproduction binaries.
/// Every bench prints (1) the experiment banner with the effective
/// scale, (2) the regenerated rows, and (3) the paper's reported
/// numbers next to ours, because the reproduction contract is matching
/// *shape* (orderings, trends, crossovers), not absolute values — our
/// substrate is a synthetic corpus on CPU, not Java-large on V100s.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_BENCH_BENCHCOMMON_H
#define LIGER_BENCH_BENCHCOMMON_H

#include "eval/Experiments.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "testgen/TraceCache.h"

#include <cstdio>
#include <memory>

namespace liger {

/// Whether this binary was compiled optimized; the throughput benches
/// record it in their JSON so numbers from an assertion-enabled build
/// are recognizable.
#if defined(NDEBUG) && defined(__OPTIMIZE__)
inline constexpr const char *BenchBuildType = "optimized";
#else
inline constexpr const char *BenchBuildType = "unoptimized";
#endif

/// Default cache-mode directory shared by the figure benches (and the
/// verify.sh smoke steps): the Table 1 / fig6–fig11 sweeps regenerate
/// the same corpora, so pointing them at one Full-mode directory pays
/// trace construction exactly once per (method, options) across the
/// whole sweep. Explicit --trace-cache / --trace-cache-dir flags win;
/// --trace-cache=off still disables caching entirely.
inline void applySharedTraceCacheDefault(ExperimentScale &Scale) {
  if (Scale.CacheFlagsExplicit || Scale.Cache)
    return;
  Scale.CacheMode = TraceCacheMode::Full;
  Scale.TraceCacheDir = "liger-trace-cache";
  Scale.Cache =
      std::make_shared<TraceCache>(Scale.CacheMode, Scale.TraceCacheDir);
}

/// Prints the standard banner with the effective scale. Also switches
/// stdout to line buffering so progress lines appear promptly when the
/// bench output is piped to a file.
inline void printBanner(const char *Title, const ExperimentScale &Scale) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("==============================================================="
              "=\n");
  std::printf("%s\n", Title);
  std::printf("scale: methods=%zu/%zu coset/class=%zu epochs=%zu hidden=%zu "
              "embed=%zu paths=%u execs=%u lr=%.4f seed=%llu\n",
              Scale.MethodsMed, Scale.MethodsLarge, Scale.CosetPerClass,
              Scale.Epochs, Scale.Hidden, Scale.EmbedDim, Scale.TargetPaths,
              Scale.ExecutionsPerPath,
              static_cast<double>(Scale.LearningRate),
              static_cast<unsigned long long>(Scale.Seed));
  std::printf("(override with --methods= --epochs= --hidden= --paths= "
              "--execs= --lr= --seed= --verbose)\n");
  std::printf("==============================================================="
              "=\n\n");
}

/// Renders "P/R/F1" as one compact cell.
inline std::string prfCell(const PrfScores &Scores) {
  return formatDouble(Scores.Precision, 2) + " / " +
         formatDouble(Scores.Recall, 2) + " / " +
         formatDouble(Scores.F1, 2);
}

/// Prints the shape-check epilogue shared by all benches.
inline void printShapeNote() {
  std::printf("\nNOTE: absolute numbers are not comparable to the paper "
              "(synthetic corpus, CPU-scale\nmodels); the reproduction "
              "target is the *shape* — who wins, rough factors, and "
              "trends.\n");
}

} // namespace liger

#endif // LIGER_BENCH_BENCHCOMMON_H
