//===-- testgen/TraceCollector.h - Feedback-directed trace harvest -*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end trace collection pipeline of §6.1: random inputs are
/// executed, executions are grouped by program path, each retained path
/// becomes one blended trace with up to ExecutionsPerPath concrete
/// traces (the paper collects "on average 20 symbolic traces, each ...
/// coupled with 5 concrete executions"). Feedback direction: inputs
/// that discover a new path are kept and mutated to find same-path
/// siblings; optionally the bounded symbolic executor seeds paths that
/// random testing missed.
///
/// The pipeline runs in four phases — random exploration, symbolic
/// seeding, mutation, state recording — each timed into CollectStats.
/// collectTracesCached() additionally consults a TraceCache keyed on
/// (instantiated source, method name, options, seed): a hit rebinds the
/// cached traces to the re-parsed AST, skipping the discovery phases
/// and the interpreter entirely. See DESIGN.md §10.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_TESTGEN_TRACECOLLECTOR_H
#define LIGER_TESTGEN_TRACECOLLECTOR_H

#include "testgen/InputGen.h"
#include "trace/Trace.h"

namespace liger {

class TraceCache;

/// Pipeline configuration.
struct TestGenOptions {
  InputGenOptions Input;
  InterpOptions Interp;
  /// Stop discovering once this many distinct paths have traces.
  unsigned TargetPaths = 20;
  /// Concrete executions retained per path.
  unsigned ExecutionsPerPath = 5;
  /// Random-input attempts before giving up on new paths.
  unsigned MaxAttempts = 300;
  /// Mutation attempts per path to fill same-path executions.
  unsigned MutationAttemptsPerPath = 12;
  /// Also seed paths from the bounded symbolic executor.
  bool UseSymbolicSeeding = true;
  uint64_t Seed = 1;
  /// Dataset-scope tag ("med", "large", "coset", ...) hashed into the
  /// trace-cache key and nothing else: two corpora sharing one cache
  /// directory never serve each other's entries even when a method's
  /// source and every pipeline knob coincide, so per-dataset eviction
  /// and invalidation stay independent. Empty = unscoped.
  std::string Scope;
};

/// Outcome statistics (drives the Table 1 filter pipeline), plus the
/// per-phase timings and cache counters the throughput bench reports.
///
/// The discovery counters (Attempts..SymbolicSeeds) are part of the
/// pipeline's deterministic output: a cache hit restores the values the
/// original discovery produced, so filter decisions (allTimedOut) and
/// corpus funnel counts are identical between cold and warm runs. The
/// Seconds fields are wall-clock observability only and are never
/// compared.
struct CollectStats {
  unsigned Attempts = 0;
  unsigned OkRuns = 0;
  unsigned Faults = 0;
  unsigned Timeouts = 0;
  unsigned MemoryExceeded = 0;
  unsigned SymbolicSeeds = 0;

  /// Interpreter runs this call performed: Attempts less the phase-1
  /// repeats answered from the probe memo, plus phase 4's recordings;
  /// 0 on a cache hit. Observability only, like the Seconds fields: it
  /// is not part of the cached entry.
  unsigned Executions = 0;

  /// Cache outcome for this method: exactly one of the three is 1.
  /// Bypassed means the pipeline ran with caching disabled.
  unsigned CacheHits = 0;
  unsigned CacheMisses = 0;
  unsigned CacheBypasses = 0;

  /// Wall-clock seconds per phase (zero for phases that did not run).
  double ExploreSeconds = 0;  ///< Phase 1: random exploration.
  double SymbolicSeconds = 0; ///< Phase 2: symbolic seeding.
  double MutateSeconds = 0;   ///< Phase 3: same-path mutation.
  double RecordSeconds = 0;   ///< Phase 4: state-recording runs.
  double ReplaySeconds = 0;   ///< Cache-hit replay: parsing the entry.

  /// True when every single run timed out (the "takes too long" filter).
  bool allTimedOut() const { return Attempts > 0 && Timeouts == Attempts; }

  /// True when every single run blew the memory budget (the allocation-
  /// bomb filter; DESIGN.md §12).
  bool allMemoryExceeded() const {
    return Attempts > 0 && MemoryExceeded == Attempts;
  }
};

/// Collects blended traces for \p Fn. The returned MethodTraces holds
/// pointers into \p P, which must outlive it.
MethodTraces collectTraces(const Program &P, const FunctionDecl &Fn,
                           const TestGenOptions &Options = {},
                           CollectStats *Stats = nullptr);

/// Like collectTraces, but consults \p Cache (when non-null and not in
/// Off mode) under the key derived from (\p SourceText, Fn.Name,
/// \p Options). Misses run the full pipeline and store an entry;
/// corrupt or stale entries are silently treated as misses. The result
/// is bitwise-identical to collectTraces for any cache state.
MethodTraces collectTracesCached(const Program &P, const FunctionDecl &Fn,
                                 const std::string &SourceText,
                                 const TestGenOptions &Options,
                                 TraceCache *Cache,
                                 CollectStats *Stats = nullptr);

} // namespace liger

#endif // LIGER_TESTGEN_TRACECOLLECTOR_H
