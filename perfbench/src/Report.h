//===-- perfbench/src/Report.h - Raw measurements of one run ----*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What one workload process measured, written as one JSON file for
/// perfbench/run.py: set-up times, latency samples, scalar values, and
/// the checked operations with their failures. The process only
/// measures; percentiles, self times and the final metrics are derived
/// by run.py from this file and the span file.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Threads a workload may keep busy: min(4, CPUs this process may run on).
size_t benchThreads();

/// CPUs this process may run on (its affinity mask).
size_t availableCpus();

/// Seed for part \p Part (index \p Index) of a run with seed \p Seed.
uint64_t deriveSeed(uint64_t Seed, const char *Part, uint64_t Index = 0);

/// Peak resident set size of this process, in MiB, since it started or
/// since the last resetPeakRss().
double peakRssMb();

/// Restarts the peak at the current resident set size, so a workload can
/// measure the peak of one repetition; false where the kernel does not
/// support it (the peak then covers the whole process).
bool resetPeakRss();

/// Outcome tally of checked operations. Each worker thread keeps its own
/// and the caller merges them after joining.
struct Checks {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Examples; ///< First few failure messages.

  /// Counts one operation; \p What describes it when \p Ok is false.
  void check(bool Ok, const std::string &What);
  void merge(const Checks &Other);
};

/// Everything one run measured.
class Report {
public:
  Checks Outcomes;

  /// One set-up repetition, in seconds.
  void addSetup(double Seconds) { Setup.push_back(Seconds); }
  /// Latency-style samples under \p Name (milliseconds).
  std::vector<double> &series(const std::string &Name) { return Series[Name]; }
  /// A scalar measurement or count.
  void value(const std::string &Name, double V) { Values[Name] = V; }
  /// A descriptive string (build type, span file, ...).
  void info(const std::string &Name, const std::string &V) { Infos[Name] = V; }

  /// Writes the report as JSON; false on I/O error.
  bool write(const std::string &Path) const;

private:
  std::vector<double> Setup;
  std::map<std::string, std::vector<double>> Series;
  std::map<std::string, double> Values;
  std::map<std::string, std::string> Infos;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
