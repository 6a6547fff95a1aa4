//===-- perfbench/src/Report.cpp - Raw measurements of one run ------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include "support/Hash.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sched.h>
#include <thread>

using namespace perfbench;

size_t perfbench::availableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

size_t perfbench::benchThreads() {
  return std::min<size_t>(4, availableCpus());
}

uint64_t perfbench::deriveSeed(uint64_t Seed, const char *Part,
                               uint64_t Index) {
  liger::StableHash H;
  H.addString(Part);
  H.addU64(Seed);
  H.addU64(Index);
  return H.digest();
}

double perfbench::peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  return 0;
}

bool perfbench::resetPeakRss() {
  std::FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return false;
  bool Ok = std::fputs("5", F) >= 0;
  return std::fclose(F) == 0 && Ok;
}

void Checks::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Examples.size() < 8)
    Examples.push_back(What);
}

void Checks::merge(const Checks &Other) {
  Attempted += Other.Attempted;
  Failed += Other.Failed;
  for (const std::string &E : Other.Examples)
    if (Examples.size() < 8)
      Examples.push_back(E);
}

namespace {

std::string quote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string number(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string numbers(const std::vector<double> &V) {
  std::string Out = "[";
  for (size_t I = 0; I < V.size(); ++I)
    Out += (I ? "," : "") + number(V[I]);
  return Out + "]";
}

} // namespace

bool Report::write(const std::string &Path) const {
  std::string Out = "{\n  \"setup_s\": " + numbers(Setup) + ",\n";
  Out += "  \"attempted\": " + std::to_string(Outcomes.Attempted) + ",\n";
  Out += "  \"failed\": " + std::to_string(Outcomes.Failed) + ",\n";
  Out += "  \"failure_examples\": [";
  for (size_t I = 0; I < Outcomes.Examples.size(); ++I)
    Out += (I ? ", " : "") + quote(Outcomes.Examples[I]);
  Out += "],\n  \"series\": {";
  bool First = true;
  for (const auto &[Name, V] : Series) {
    Out += (First ? "\n    " : ",\n    ") + quote(Name) + ": " + numbers(V);
    First = false;
  }
  Out += "\n  },\n  \"values\": {";
  First = true;
  for (const auto &[Name, V] : Values) {
    Out += (First ? "\n    " : ",\n    ") + quote(Name) + ": " + number(V);
    First = false;
  }
  Out += "\n  },\n  \"info\": {";
  First = true;
  for (const auto &[Name, V] : Infos) {
    Out += (First ? "\n    " : ",\n    ") + quote(Name) + ": " + quote(V);
    First = false;
  }
  Out += "\n  }\n}\n";

  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Out.data(), 1, Out.size(), F) == Out.size();
  return std::fclose(F) == 0 && Ok;
}
