//===-- trace/Trace.cpp - Execution, symbolic, state, blended traces ------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include "lang/AstPrinter.h"
#include "support/Error.h"

#include <cstring>
#include <map>

using namespace liger;

std::string ProgramState::str(
    const std::vector<std::string> &VarNames) const {
  LIGER_CHECK(VarNames.size() == Values.size(),
              "state arity must match variable tuple");
  std::string Out = "{";
  for (size_t I = 0; I < Values.size(); ++I) {
    if (I)
      Out += "; ";
    Out += VarNames[I] + ": " + Values[I].str();
  }
  Out += "}";
  return Out;
}

namespace {

/// Bytes per step in a path key: the 32-bit statement id, then the kind.
constexpr size_t PathKeyStepBytes = sizeof(NodeId) + 1;

/// The path key of \p Steps. Every step takes PathKeyStepBytes, so
/// equal keys mean equal (statement id, kind) sequences for every id.
std::string pathKeyOfSteps(const std::vector<ExecStep> &Steps) {
  std::string Key(Steps.size() * PathKeyStepBytes, '\0');
  char *Out = Key.data();
  for (const ExecStep &Step : Steps) {
    NodeId Id = Step.Statement->id();
    std::memcpy(Out, &Id, sizeof(Id));
    Out[sizeof(Id)] = static_cast<char>(Step.Kind);
    Out += PathKeyStepBytes;
  }
  return Key;
}

} // namespace

std::string SymbolicTrace::pathKey() const { return pathKeyOfSteps(Steps); }

std::set<unsigned> SymbolicTrace::coveredLines() const {
  std::set<unsigned> Lines;
  for (const SymbolicStep &Step : Steps)
    if (Step.Statement->loc().isValid())
      Lines.insert(Step.Statement->loc().Line);
  return Lines;
}

std::set<unsigned> MethodTraces::coveredLines() const {
  std::set<unsigned> Lines;
  for (const BlendedTrace &Path : Paths) {
    std::set<unsigned> PathLines = Path.Symbolic.coveredLines();
    Lines.insert(PathLines.begin(), PathLines.end());
  }
  return Lines;
}

size_t MethodTraces::totalExecutions() const {
  size_t Total = 0;
  for (const BlendedTrace &Path : Paths)
    Total += Path.numConcrete();
  return Total;
}

SymbolicTrace liger::extractSymbolicTrace(const ExecResult &Result) {
  return SymbolicTrace{Result.Steps};
}

StateTrace liger::extractStateTrace(ExecResult Result) {
  StateTrace Trace;
  Trace.Initial.Values = std::move(Result.InitialState);
  LIGER_CHECK(Result.States.empty() ||
                  Result.States.size() == Result.Steps.size(),
              "recorded states must be parallel to steps");
  // One state per step; a run that recorded no states gets empty ones.
  Trace.States.resize(Result.Steps.size());
  for (size_t I = 0; I < Result.States.size(); ++I)
    Trace.States[I].Values = std::move(Result.States[I]);
  return Trace;
}

std::string liger::pathKeyOf(const ExecResult &Result) {
  return pathKeyOfSteps(Result.Steps);
}

MethodTraces liger::groupByPath(const FunctionDecl &Fn,
                                std::vector<ExecResult> Results,
                                std::vector<std::vector<Value>> Inputs) {
  LIGER_CHECK(Results.size() == Inputs.size(),
              "one input vector per execution");
  MethodTraces Traces;
  Traces.Fn = &Fn;
  Traces.VarNames = collectVariableTuple(Fn);

  // Preserve first-seen order of paths for determinism.
  std::map<std::string, size_t> PathIndex;
  for (size_t I = 0; I < Results.size(); ++I) {
    ExecResult &Result = Results[I];
    if (!Result.ok())
      continue; // failed or timed-out executions contribute no traces
    std::string Key = pathKeyOf(Result);
    auto It = PathIndex.find(Key);
    size_t Index;
    if (It == PathIndex.end()) {
      Index = Traces.Paths.size();
      PathIndex.emplace(std::move(Key), Index);
      BlendedTrace Blended;
      Blended.Symbolic = extractSymbolicTrace(Result);
      Traces.Paths.push_back(std::move(Blended));
    } else {
      Index = It->second;
    }
    Traces.Paths[Index].Concrete.push_back(
        extractStateTrace(std::move(Result)));
    Traces.Paths[Index].Inputs.push_back(std::move(Inputs[I]));
  }
  return Traces;
}

std::string liger::renderBlendedTrace(const BlendedTrace &Trace,
                                      const std::vector<std::string> &VarNames,
                                      size_t MaxSteps) {
  std::string Out;
  size_t Limit = std::min(MaxSteps, Trace.Symbolic.Steps.size());
  for (size_t Step = 0; Step < Limit; ++Step) {
    const SymbolicStep &Sym = Trace.Symbolic.Steps[Step];
    Out += printStmtHead(Sym.Statement);
    if (Sym.Kind == StepKind::CondTrue)
      Out += "  [true]";
    else if (Sym.Kind == StepKind::CondFalse)
      Out += "  [false]";
    Out += '\n';
    for (const StateTrace &States : Trace.Concrete) {
      if (Step < States.States.size() && !States.States[Step].Values.empty()) {
        Out += "    ";
        Out += States.States[Step].str(VarNames);
        Out += '\n';
      }
    }
  }
  if (Trace.Symbolic.Steps.size() > Limit)
    Out += "    ... (" +
           std::to_string(Trace.Symbolic.Steps.size() - Limit) +
           " more steps)\n";
  return Out;
}
