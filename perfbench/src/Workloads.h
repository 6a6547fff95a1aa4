//===-- perfbench/src/Workloads.h - The benchmark's workloads ---*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads, each run in its own process:
///
///  - train:  trainNameModel on the mini-med corpus, lockstep shards on
///            a thread pool (models + nn; eval drives it);
///  - corpus: generateMethodCorpus over Table-1-shaped raw corpora, cold
///            then warm against an on-disk TraceCache (lang, interp,
///            symx, testgen);
///  - serve:  closed-loop clients calling ServeEngine::handle() on a
///            seeded stream of novel, repeated and invalid requests.
///
/// Every workload repeats its set-up, measures for the given number of
/// seconds, and checks its outputs. With tracing on it measures half
/// the time untraced and half through a copy of its loop that opens
/// a span around each call into a module, so the same run also gives
/// the tracing overhead.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Report.h"

#include <cstdint>
#include <string>

namespace perfbench {

struct RunOptions {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory owned by this run (caches, the span file).
  std::string WorkDir;
};

void runTrain(const RunOptions &Options, Report &Out);
void runCorpus(const RunOptions &Options, Report &Out);
void runServe(const RunOptions &Options, Report &Out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
