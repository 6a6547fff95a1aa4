//===-- symx/Solver.cpp - Enumerative path-condition solver ---------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "symx/Solver.h"

using namespace liger;

namespace {

/// Returns the number of violated constraints (faulting evaluation
/// counts as violated). Resets \p Memo for \p A and leaves it filled.
unsigned countViolations(const std::vector<SymExprPtr> &Constraints,
                         const Assignment &A, SymEvalMemo &Memo) {
  Memo.clear();
  unsigned Violated = 0;
  for (const SymExprPtr &C : Constraints) {
    std::optional<bool> V = C->evalBool(A.Ints, A.Bools, &Memo);
    if (!V || !*V)
      ++Violated;
  }
  return Violated;
}

/// Deterministic "nice" probes that satisfy many common path shapes:
/// all-zero, all-one, ramps, alternating signs, extremes.
std::vector<Assignment> heuristicProbes(unsigned NumInts, unsigned NumBools,
                                        const SolverOptions &Options) {
  std::vector<Assignment> Probes;
  auto Make = [&](auto IntOf, bool BoolVal) {
    Assignment A;
    A.Ints.resize(NumInts);
    for (unsigned I = 0; I < NumInts; ++I) {
      int64_t V = IntOf(I);
      A.Ints[I] = std::max(Options.IntLo, std::min(Options.IntHi, V));
    }
    A.Bools.assign(NumBools, BoolVal);
    Probes.push_back(std::move(A));
  };
  for (bool B : {false, true}) {
    Make([](unsigned) -> int64_t { return 0; }, B);
    Make([](unsigned) -> int64_t { return 1; }, B);
    Make([](unsigned I) -> int64_t { return static_cast<int64_t>(I); }, B);
    Make([](unsigned I) -> int64_t { return -static_cast<int64_t>(I); }, B);
    Make([](unsigned I) -> int64_t { return static_cast<int64_t>(I) % 2; },
         B);
    Make([&](unsigned I) -> int64_t {
      return I % 2 ? Options.IntLo : Options.IntHi;
    }, B);
    Make([&](unsigned I) -> int64_t {
      return static_cast<int64_t>(NumInts - I);
    }, B);
  }
  return Probes;
}

std::optional<Assignment>
search(const std::vector<SymExprPtr> &Constraints, unsigned NumInts,
       unsigned NumBools, const SolverOptions &Options, unsigned Budget) {
  for (const SymExprPtr &C : Constraints)
    LIGER_CHECK(C->isBoolTyped(), "constraints must be boolean");

  // Trivially satisfiable?
  Assignment Zero;
  Zero.Ints.assign(NumInts, 0);
  Zero.Bools.assign(NumBools, false);
  if (Constraints.empty())
    return Zero;

  SymEvalMemo Memo;
  unsigned Steps = 0;
  for (Assignment &Probe : heuristicProbes(NumInts, NumBools, Options)) {
    if (++Steps > Budget)
      return std::nullopt;
    if (countViolations(Constraints, Probe, Memo) == 0)
      return Probe;
  }

  // WalkSAT-style restarts: random assignment, then greedy/random moves
  // on variables of violated constraints.
  Rng R(Options.Seed);
  const unsigned StepsPerRestart = 60;
  while (Steps < Budget) {
    ++Steps; // each restart costs at least one step (ground-false
             // constraints would otherwise loop forever)
    Assignment A;
    A.Ints.resize(NumInts);
    for (unsigned I = 0; I < NumInts; ++I)
      A.Ints[I] = R.nextInt(Options.IntLo, Options.IntHi);
    A.Bools.resize(NumBools);
    for (unsigned I = 0; I < NumBools; ++I)
      A.Bools[I] = R.nextBool();

    for (unsigned Local = 0; Local < StepsPerRestart && Steps < Budget;
         ++Local, ++Steps) {
      unsigned Violated = countViolations(Constraints, A, Memo);
      if (Violated == 0)
        return A;
      // Pick a violated constraint and perturb one of its variables.
      unsigned Target = static_cast<unsigned>(R.nextBelow(Violated));
      const SymExpr *Chosen = nullptr;
      for (const SymExprPtr &C : Constraints) {
        std::optional<bool> V = C->evalBool(A.Ints, A.Bools, &Memo);
        if (!V || !*V) {
          if (Target == 0) {
            Chosen = C.get();
            break;
          }
          --Target;
        }
      }
      LIGER_CHECK(Chosen, "violated constraint must exist");
      std::vector<unsigned> IntSlots, BoolSlots;
      Chosen->collectSlots(IntSlots, BoolSlots);
      if (IntSlots.empty() && BoolSlots.empty())
        break; // ground-false constraint: this restart cannot fix it
      size_t Pick = R.nextBelow(IntSlots.size() + BoolSlots.size());
      if (Pick < IntSlots.size())
        A.Ints[IntSlots[Pick]] = R.nextInt(Options.IntLo, Options.IntHi);
      else
        A.Bools[BoolSlots[Pick - IntSlots.size()]] = R.nextBool();
    }
  }
  return std::nullopt;
}

} // namespace

std::optional<Assignment>
liger::solveConstraints(const std::vector<SymExprPtr> &Constraints,
                        unsigned NumIntSlots, unsigned NumBoolSlots,
                        const SolverOptions &Options) {
  return search(Constraints, NumIntSlots, NumBoolSlots, Options,
                Options.MaxSteps);
}

bool liger::quickFeasible(const std::vector<SymExprPtr> &Constraints,
                          unsigned NumIntSlots, unsigned NumBoolSlots,
                          const SolverOptions &Options, unsigned Budget) {
  return search(Constraints, NumIntSlots, NumBoolSlots, Options, Budget)
      .has_value();
}
