//===-- symx/SymExec.h - Bounded symbolic executor --------------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounded symbolic execution of MiniLang functions (§5.1.1: "we
/// symbolically execute P to obtain U distinct paths ... by solving φ_i
/// we obtain concrete traces"). The engine enumerates program paths by
/// depth-first search over *decision prefixes* and re-executes from the
/// start for each prefix — no symbolic-state cloning. Decision points:
///
///   - control-flow conditions whose value is symbolic (outcomes: T/F),
///   - short-circuit && / || with a symbolic left operand,
///   - array reads/writes with a symbolic index (fan-out over in-bounds
///     indices, each guarded by the constraint index == k),
///   - `new T[n]` with symbolic n (fan-out over small lengths).
///
/// Input model: int and bool parameters are symbolic scalars; arrays of
/// int/bool have concrete lengths (one "shape" per configured length)
/// with symbolic elements; strings and string arrays are concrete,
/// drawn from configured candidates. Faulting paths (division by zero,
/// out-of-bounds with concrete index) are dropped; symbolic divisors
/// get an implicit `!= 0` constraint; symbolic indices only explore
/// in-bounds arms — i.e. the executor enumerates non-faulting paths.
///
/// Every returned path carries a concrete *witness input* found by the
/// solver, and the invariant — checked by the property tests — that the
/// concrete interpreter run on the witness follows exactly the path's
/// symbolic trace. Both executors run one statement walk, environment
/// and call protocol (interp/StmtWalk.h), so they record the same steps
/// wherever their values agree.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_SYMX_SYMEXEC_H
#define LIGER_SYMX_SYMEXEC_H

#include "symx/Solver.h"
#include "trace/Trace.h"

#include <string>
#include <vector>

namespace liger {

/// One enumerated program path.
struct SymbolicPath {
  /// The steps along the path, recorded by the statement walk the
  /// interpreter runs, so its key is the interpreter's on the witness.
  SymbolicTrace Trace;
  /// The path condition φ: conjunction of boolean symbolic expressions.
  std::vector<SymExprPtr> PathCondition;
  /// Concrete inputs that realize the path (solver witness).
  std::vector<Value> WitnessInputs;

  /// Renders φ as "(c1) && (c2) && ...".
  std::string conditionStr() const;
};

/// Symbolic execution configuration.
struct SymxOptions {
  SolverOptions Solver;
  /// Stop after this many completed, witnessed paths.
  size_t MaxPaths = 24;
  /// Per-run statement budget (bounds loop unrolling).
  size_t MaxSteps = 600;
  /// Per-run budget for concretely-carried bytes (strings are tracked
  /// as real std::strings, so unrolled `s = s + s` would otherwise
  /// double a real allocation each step; arrays allocate real element
  /// vectors). Monotone like InterpOptions::MaxMemoryBytes; runs that
  /// blow it are dropped like StepLimit runs (DESIGN.md §12).
  uint64_t MaxConcreteBytes = 4u << 20;
  /// Cap on fan-out at one choice point (symbolic indices/lengths).
  unsigned MaxChoiceOutcomes = 8;
  /// Global cap on re-executions (runOnce calls) across all shapes of
  /// one enumeratePaths call. MaxPaths alone does not bound work:
  /// only *completed, witnessed, novel* paths count toward it, while
  /// chained symbolic-index choices explore an exponential prefix
  /// tree whose arms all dedup to the same path key (or all fault).
  /// This is the DFS's own fuel (DESIGN.md §12).
  size_t MaxRuns = 2000;
  /// Concrete lengths tried for each array parameter (one shape each).
  std::vector<size_t> ArrayLengths = {4};
  /// Concrete candidates tried for each string parameter.
  std::vector<std::string> StringCandidates = {"ab"};
  /// Cap on the number of input shapes (cartesian combinations).
  size_t MaxShapes = 4;
};

/// Enumerates witnessed paths of \p Fn. The returned paths have
/// pairwise distinct path keys.
std::vector<SymbolicPath> enumeratePaths(const Program &P,
                                         const FunctionDecl &Fn,
                                         const SymxOptions &Options = {});

} // namespace liger

#endif // LIGER_SYMX_SYMEXEC_H
