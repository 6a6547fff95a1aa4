//===-- trace/Trace.h - Execution, symbolic, state, blended traces -*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's trace formalism (§2 and §5.1):
///
///  - Execution trace (Def. 2.1): s0 -> (e_i -> s_i)*, produced by the
///    interpreter as an ExecResult.
///  - Symbolic trace  (Def. 2.2): the statement projection (e_i ...).
///  - State trace     (Def. 2.3): the state projection (s_i ...).
///  - Blended trace   (Def. 5.1): a symbolic trace paired with the state
///    traces of several executions that traverse the same program path.
///
/// This module turns raw ExecResults into those structures, groups
/// executions by path (the paper's "we group concrete executions that
/// traverse the same program path"), and computes line/path coverage.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_TRACE_TRACE_H
#define LIGER_TRACE_TRACE_H

#include "interp/Interpreter.h"

#include <set>
#include <string>
#include <vector>

namespace liger {

/// A program state: values aligned with the owning trace's VarNames.
struct ProgramState {
  std::vector<Value> Values;

  /// Renders as the paper's Fig. 2 notation:
  /// {A: [8, 5, 1], left: 0, right: ⊥}.
  std::string str(const std::vector<std::string> &VarNames) const;
};

/// One statement of a symbolic trace (with its branch outcome when it is
/// a control-flow condition — the outcome is what distinguishes paths):
/// exactly an interpreter step, which carries no state.
using SymbolicStep = ExecStep;

/// Def. 2.2: the sequence of statements visited along one program path.
struct SymbolicTrace {
  std::vector<SymbolicStep> Steps;

  /// The identity of the program path this trace follows: a fixed-width
  /// binary encoding of its (statement id, branch outcome) pairs, so
  /// equal keys mean equal sequences. Compare keys; never store or
  /// print them.
  std::string pathKey() const;

  /// The set of source lines the path covers.
  std::set<unsigned> coveredLines() const;

  size_t length() const { return Steps.size(); }
};

/// Def. 2.3: the sequence of program states of one execution, including
/// the initial state s0 (States.size() == Steps.size() + 1 relative to
/// the corresponding symbolic trace).
struct StateTrace {
  ProgramState Initial;
  std::vector<ProgramState> States;
};

/// Def. 5.1: one symbolic trace plus the state traces of the concrete
/// executions that traverse the same path, with the inputs that realized
/// them.
struct BlendedTrace {
  SymbolicTrace Symbolic;
  std::vector<StateTrace> Concrete;
  std::vector<std::vector<Value>> Inputs;

  size_t numConcrete() const { return Concrete.size(); }
};

/// All traces collected for one method: the unit the models consume.
/// Holds non-owning pointers into the method's Program, which must
/// outlive it.
struct MethodTraces {
  const FunctionDecl *Fn = nullptr;
  std::vector<std::string> VarNames;
  std::vector<BlendedTrace> Paths;

  /// Union of lines covered by all retained paths.
  std::set<unsigned> coveredLines() const;

  /// Total number of concrete executions across paths.
  size_t totalExecutions() const;
};

/// Extracts the symbolic projection of an execution.
SymbolicTrace extractSymbolicTrace(const ExecResult &Result);

/// Extracts the state projection of an execution, moving its recorded
/// states out (pass a copy to keep them).
StateTrace extractStateTrace(ExecResult Result);

/// Path identity of a raw execution (the key SymbolicTrace::pathKey
/// gives its symbolic projection), built straight from its steps.
std::string pathKeyOf(const ExecResult &Result);

/// Groups executions of one method by program path, producing one
/// BlendedTrace per distinct path. Executions must all come from the
/// same function. \p Inputs[i] are the arguments of Results[i]. Each
/// kept execution's recorded states and inputs move into its path.
MethodTraces groupByPath(const FunctionDecl &Fn,
                         std::vector<ExecResult> Results,
                         std::vector<std::vector<Value>> Inputs);

/// Renders a blended trace for human inspection (one line per step:
/// statement text followed by each execution's state).
std::string renderBlendedTrace(const BlendedTrace &Trace,
                               const std::vector<std::string> &VarNames,
                               size_t MaxSteps = 64);

} // namespace liger

#endif // LIGER_TRACE_TRACE_H
