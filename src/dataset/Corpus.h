//===-- dataset/Corpus.h - Synthetic corpora generation ---------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generators for the two corpora (Java-med/Java-large and COSET
/// substitutes — see DESIGN.md §2 for the substitution argument):
///
///  - Method-name corpus: tasks × variants × identifier mutations
///    (informative / generic / misleading names) × optional dead code,
///    labelled with camelCase names composed from task synonym sets.
///    The generation pipeline reproduces Table 1's filters: methods
///    that do not compile, reference unavailable externals, time out
///    under test generation, or are too small are counted and dropped.
///
///  - COSET-like corpus: the 10 problems in the task library flagged as
///    CosetProblem, labelled by algorithm class; programs that crash or
///    produce no executions are removed (§6.2: "we remove programs that
///    fail to pass all test cases").
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_DATASET_CORPUS_H
#define LIGER_DATASET_CORPUS_H

#include "dataset/Tasks.h"
#include "models/Common.h"
#include "testgen/TraceCollector.h"

namespace liger {

class TraceCache;

/// Fewest trace-level statements a method needs to be kept: the
/// corpus drops smaller ones as "too small to be considered" (Table 1),
/// and the service rejects them the same way.
constexpr size_t MinMethodStatements = 3;

/// Counts the trace-level statements under \p S: every statement but a
/// block, which counts only its children. Null counts 0.
size_t countStatements(const Stmt *S);

/// Generation options for the method-name corpus.
struct CorpusOptions {
  /// Number of *raw* methods to generate (before filtering).
  size_t NumMethods = 240;
  /// Methods per synthetic "project" (split unit; the paper splits by
  /// project, §6.1).
  size_t MethodsPerProject = 8;
  /// Worker threads for trace construction (<= 1 runs inline). Each
  /// raw method draws its randomness from a seed derived from
  /// (Seed, method index), and results are assembled in index order,
  /// so the corpus is bitwise-identical for any thread count.
  size_t Threads = 1;
  /// Optional trace cache shared by all workers (null: no caching).
  TraceCache *Cache = nullptr;
  /// Probability that a renameable identifier is replaced by a generic
  /// name (a, b, x, tmp1...).
  double GenericNameProb = 0.25;
  /// Probability that a renameable identifier is replaced by a
  /// *misleading* name mined from other tasks' vocabularies.
  double MisleadingNameProb = 0.25;
  /// Probability of injecting one dead declaration at body start.
  double DeadCodeProb = 0.35;
  /// Trace collection settings (per kept method).
  TestGenOptions TraceGen;
  uint64_t Seed = 1;

  // Defect injection rates reproducing the Table 1 filter pipeline
  // (all zero by default: every method passes).
  double SyntaxDefectRate = 0.0;
  double ExternalRefRate = 0.0;
  double NonTerminationRate = 0.0;
  double TooSmallRate = 0.0;
};

/// Filter-pipeline counts (drives the Table 1 bench), plus trace-cache
/// counters and per-phase timings aggregated over every method that
/// reached trace construction.
struct CorpusStats {
  size_t Requested = 0;
  size_t ParseFailures = 0;       ///< "do not compile"
  size_t ExternalRefFailures = 0; ///< "reference external packages"
  size_t TestgenTimeouts = 0;     ///< "take too long for Randoop"
  size_t TestgenMemoryBombs = 0;  ///< every run blew the memory budget
  size_t TooSmall = 0;            ///< "too small to be considered"
  size_t NoTraces = 0;            ///< no successful execution at all
  size_t Kept = 0;

  /// Trace-cache outcomes (one per method that ran the pipeline; the
  /// three sum to the number of collectTracesCached invocations).
  size_t CacheHits = 0;
  size_t CacheMisses = 0;
  size_t CacheBypassed = 0;

  /// Work counters summed across methods: discovery attempts (restored
  /// from the entry on a cache hit) and the interpreter runs performed
  /// (0 for a hit). See CollectStats.
  size_t Attempts = 0;
  size_t Executions = 0;

  /// Summed wall-clock seconds per pipeline phase across methods.
  /// With several workers these can exceed elapsed time (they are CPU
  /// phase totals, not a wall-clock breakdown).
  double PhaseExploreSeconds = 0;
  double PhaseSymbolicSeconds = 0;
  double PhaseMutateSeconds = 0;
  double PhaseRecordSeconds = 0;
  double PhaseReplaySeconds = 0;
};

/// Generates the method-name corpus.
std::vector<MethodSample> generateMethodCorpus(const CorpusOptions &Options,
                                               CorpusStats *Stats = nullptr);

/// Generation options for the COSET-like corpus.
struct CosetOptions {
  /// Programs per (problem, algorithm) class.
  size_t ProgramsPerClass = 12;
  double GenericNameProb = 0.35;
  double MisleadingNameProb = 0.25;
  double DeadCodeProb = 0.35;
  TestGenOptions TraceGen;
  uint64_t Seed = 2;
  /// Worker threads, parallel over (problem, algorithm) classes; same
  /// determinism contract as CorpusOptions::Threads.
  size_t Threads = 1;
  /// Optional trace cache shared by all workers (null: no caching).
  TraceCache *Cache = nullptr;
};

/// Generates the COSET-like corpus; \p ClassNames receives the label
/// names ("sortArray/bubble", ...) indexed by ClassId.
std::vector<MethodSample>
generateCosetCorpus(const CosetOptions &Options,
                    std::vector<std::string> &ClassNames,
                    CorpusStats *Stats = nullptr);

/// A stable fingerprint of everything downstream training consumes
/// from \p Samples: method names, labels, projects, and the full
/// blended traces (statement ids, branch outcomes, every recorded
/// state and input value). Two corpora with equal fingerprints train
/// identically; used to verify thread-count and cache invariance.
uint64_t corpusFingerprint(const std::vector<MethodSample> &Samples);

/// A three-way split.
struct SplitCorpus {
  std::vector<MethodSample> Train;
  std::vector<MethodSample> Valid;
  std::vector<MethodSample> Test;
};

/// Splits by project (all methods of one project land in one part),
/// with approximate fractions \p ValidFrac and \p TestFrac.
SplitCorpus splitByProject(std::vector<MethodSample> Samples,
                           double ValidFrac, double TestFrac, uint64_t Seed);

} // namespace liger

#endif // LIGER_DATASET_CORPUS_H
