//===-- testgen/Coverage.cpp - Coverage metrics and trace reduction -------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "testgen/Coverage.h"

#include "support/Error.h"

#include <functional>

using namespace liger;

std::set<unsigned> liger::allStatementLines(const FunctionDecl &Fn) {
  std::set<unsigned> Lines;
  std::function<void(const Stmt *)> Walk = [&](const Stmt *S) {
    if (!S)
      return;
    if (S->kind() != StmtKind::Block)
      Lines.insert(S->loc().Line);
    forEachChildStmt(S, Walk);
  };
  Walk(Fn.Body);
  Lines.erase(0); // drop unknown locations
  return Lines;
}

double liger::lineCoverageRatio(const MethodTraces &Traces) {
  LIGER_CHECK(Traces.Fn, "traces must reference their function");
  std::set<unsigned> All = allStatementLines(*Traces.Fn);
  if (All.empty())
    return 1.0;
  std::set<unsigned> Covered = Traces.coveredLines();
  size_t Hit = 0;
  for (unsigned Line : Covered)
    if (All.count(Line))
      ++Hit;
  return static_cast<double>(Hit) / static_cast<double>(All.size());
}

std::vector<size_t>
liger::minimalLineCoveringPaths(const MethodTraces &Traces) {
  std::set<unsigned> Target = Traces.coveredLines();
  std::vector<std::set<unsigned>> PathLines;
  PathLines.reserve(Traces.Paths.size());
  for (const BlendedTrace &Path : Traces.Paths)
    PathLines.push_back(Path.Symbolic.coveredLines());

  std::vector<size_t> Chosen;
  std::set<unsigned> Covered;
  std::vector<bool> Used(Traces.Paths.size(), false);
  while (Covered != Target) {
    // Pick the path covering the most uncovered lines; break ties by
    // index for determinism.
    size_t Best = Traces.Paths.size();
    size_t BestGain = 0;
    for (size_t I = 0; I < PathLines.size(); ++I) {
      if (Used[I])
        continue;
      size_t Gain = 0;
      for (unsigned Line : PathLines[I])
        if (!Covered.count(Line))
          ++Gain;
      if (Gain > BestGain) {
        BestGain = Gain;
        Best = I;
      }
    }
    LIGER_CHECK(Best < Traces.Paths.size(),
                "target coverage must be reachable from its own union");
    Used[Best] = true;
    Chosen.push_back(Best);
    Covered.insert(PathLines[Best].begin(), PathLines[Best].end());
  }
  return Chosen;
}

MethodTraces liger::selectPaths(const MethodTraces &Traces,
                                const std::vector<size_t> &Indices) {
  MethodTraces Out;
  Out.Fn = Traces.Fn;
  Out.VarNames = Traces.VarNames;
  for (size_t Index : Indices) {
    LIGER_CHECK(Index < Traces.Paths.size(), "path index out of range");
    Out.Paths.push_back(Traces.Paths[Index]);
  }
  return Out;
}

MethodTraces liger::reduceConcreteTraces(const MethodTraces &Traces,
                                         size_t K, Rng &R) {
  MethodTraces Out;
  Out.Fn = Traces.Fn;
  Out.VarNames = Traces.VarNames;
  for (const BlendedTrace &Path : Traces.Paths) {
    BlendedTrace Reduced;
    Reduced.Symbolic = Path.Symbolic;
    size_t Keep = std::min(K, Path.Concrete.size());
    std::vector<size_t> Order(Path.Concrete.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    R.shuffle(Order);
    Order.resize(Keep);
    for (size_t I : Order) {
      Reduced.Concrete.push_back(Path.Concrete[I]);
      Reduced.Inputs.push_back(Path.Inputs[I]);
    }
    Out.Paths.push_back(std::move(Reduced));
  }
  return Out;
}

MethodTraces liger::reduceSymbolicTraces(const MethodTraces &Traces,
                                         size_t KeepCount, Rng &R) {
  std::vector<size_t> Minimal = minimalLineCoveringPaths(Traces);
  std::vector<size_t> Keep;

  if (KeepCount < Minimal.size()) {
    // Below the coverage-preserving floor: keep a random subset of the
    // minimal set (coverage necessarily drops).
    Keep = Minimal;
    R.shuffle(Keep);
    Keep.resize(KeepCount);
  } else {
    Keep = Minimal;
    // Fill with random non-minimal paths.
    std::vector<size_t> Extras;
    for (size_t I = 0; I < Traces.Paths.size(); ++I)
      if (std::find(Minimal.begin(), Minimal.end(), I) == Minimal.end())
        Extras.push_back(I);
    R.shuffle(Extras);
    for (size_t I : Extras) {
      if (Keep.size() >= KeepCount)
        break;
      Keep.push_back(I);
    }
  }
  return selectPaths(Traces, Keep);
}
