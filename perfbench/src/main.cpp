//===-- perfbench/src/main.cpp - One workload run -------------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload and writes its raw measurements as JSON:
//
//   perfbench_workload --workload=train|corpus|serve --seed=N
//                      --seconds=S --trace=0|1 --work-dir=DIR --out=FILE
//
// perfbench/run.py builds this binary, runs it, and turns the file into
// metrics. Unoptimized builds are refused: their numbers say nothing
// about the program.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <malloc.h>
#include <string>

using namespace perfbench;

namespace {

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool OptimizedBuild = true;
#else
constexpr bool OptimizedBuild = false;
#endif

int usage(const char *Problem) {
  std::fprintf(stderr,
               "perfbench_workload: %s\nusage: perfbench_workload "
               "--workload=train|corpus|serve --seed=N --seconds=S "
               "--trace=0|1 --work-dir=DIR --out=FILE\n",
               Problem);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, OutPath;
  RunOptions Options;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    size_t Eq = A.find('=');
    if (A.rfind("--", 0) != 0 || Eq == std::string::npos)
      return usage(("bad argument " + A).c_str());
    std::string Key = A.substr(2, Eq - 2), Val = A.substr(Eq + 1);
    char *End = nullptr;
    if (Key == "workload")
      Workload = Val;
    else if (Key == "seed")
      Options.Seed = std::strtoull(Val.c_str(), &End, 10);
    else if (Key == "seconds")
      Options.Seconds = std::strtod(Val.c_str(), &End);
    else if (Key == "trace")
      Options.Trace = Val == "1";
    else if (Key == "work-dir")
      Options.WorkDir = Val;
    else if (Key == "out")
      OutPath = Val;
    else
      return usage(("unknown flag " + A).c_str());
    if (End && *End)
      return usage(("bad number in " + A).c_str());
  }
  if (OutPath.empty() || Options.WorkDir.empty() || !(Options.Seconds > 0))
    return usage("--out, --work-dir and a positive --seconds are required");
  if (!OptimizedBuild) {
    std::fprintf(stderr, "perfbench_workload: refusing to measure a build "
                         "without optimization; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n");
    return 2;
  }
  // Keep freed memory in the process. The corpus and serve workloads
  // free hundreds of MiB per repetition; returned to the kernel, it must
  // be faulted in again, and in a virtual machine that hands free pages
  // back to its host that costs whatever the host's load makes it, which
  // is noise, not the program.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);

  std::error_code Ec;
  std::filesystem::create_directories(Options.WorkDir, Ec);

  Report Out;
  Out.info("workload", Workload);
  Out.info("build_type", PERFBENCH_BUILD_TYPE);
  Out.value("cpus", static_cast<double>(availableCpus()));
  Out.value("threads", static_cast<double>(benchThreads()));
  Out.value("seed", static_cast<double>(Options.Seed));
  if (Workload == "train")
    runTrain(Options, Out);
  else if (Workload == "corpus")
    runCorpus(Options, Out);
  else if (Workload == "serve")
    runServe(Options, Out);
  else
    return usage(("unknown workload '" + Workload + "'").c_str());
  Out.value("process_peak_rss_mb", peakRssMb());

  if (!Out.write(OutPath)) {
    std::fprintf(stderr, "perfbench_workload: cannot write %s\n",
                 OutPath.c_str());
    return 1;
  }
  return 0;
}
