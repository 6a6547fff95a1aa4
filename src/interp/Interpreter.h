//===-- interp/Interpreter.h - Instrumented concrete interpreter -*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tree-walking interpreter for MiniLang with statement-level
/// instrumentation. Executing a function on concrete inputs yields an
/// ExecResult: the visited trace-level statements (Def. 2.2's symbolic
/// trace is their projection) together with a deep-copied snapshot of
/// the program state after each statement (Def. 2.3's state trace).
///
/// The trace-level statements are: declarations, assignments, returns,
/// break/continue, call statements, and the *conditions* of if/while/for
/// (recorded with their boolean outcome, which is what identifies the
/// program path).
///
/// Execution is fuel-bounded (infinite loops become OutOfFuel — the
/// Table 1 "takes too long" filter; a loop whose state repeats is
/// detected and skipped to the end of its budget, with the result of
/// running it in full), memory-bounded (allocation bombs
/// like `s = s + s` in a loop become MemoryLimit before they can OOM
/// the process), and total: runtime errors (division by zero, index out
/// of range, type-confused operands when the type checker was bypassed,
/// ...) produce a RuntimeError status, not a crash. Integer arithmetic
/// wraps like Java's `long` (interp/IntOps.h). The bounded-execution
/// contract is documented in DESIGN.md §12.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_INTERP_INTERPRETER_H
#define LIGER_INTERP_INTERPRETER_H

#include "interp/Value.h"
#include "lang/Ast.h"

#include <cstdint>
#include <string>
#include <vector>

namespace liger {

/// How execution of a function ended.
enum class ExecStatus {
  Ok,           ///< Function returned (or fell off the end of a void body).
  OutOfFuel,    ///< Statement budget exhausted (likely non-termination).
  RuntimeError, ///< Division by zero, index out of range, etc.
  MemoryLimit,  ///< Allocation budget exhausted (likely a memory bomb).
};

/// Classification of a recorded trace step.
enum class StepKind {
  Plain,     ///< Declaration, assignment, return, call, break, continue.
  CondTrue,  ///< A control-flow condition that evaluated to true.
  CondFalse, ///< A control-flow condition that evaluated to false.
};

/// One recorded trace step: a statement and, for a control-flow
/// condition, its outcome. The state after it is ExecResult::States.
struct ExecStep {
  const Stmt *Statement = nullptr;
  StepKind Kind = StepKind::Plain;
};

/// Result of executing one function on one input vector.
struct ExecResult {
  ExecStatus Status = ExecStatus::Ok;
  std::string ErrorMessage;
  Value ReturnValue;
  /// The fixed variable tuple: parameters first, then every local in
  /// source order. All state snapshots are aligned with this order.
  std::vector<std::string> VarNames;
  /// Program state before the first statement (the paper's s0).
  std::vector<Value> InitialState;
  std::vector<ExecStep> Steps;
  /// States[i] is the program state after Steps[i], deep-copied values
  /// aligned with VarNames. Parallel to Steps when states are recorded
  /// (InterpOptions::RecordStates), empty otherwise.
  std::vector<std::vector<Value>> States;
  uint64_t FuelUsed = 0;

  bool ok() const { return Status == ExecStatus::Ok; }
};

/// Interpreter options.
struct InterpOptions {
  /// Maximum number of executed statements (across calls) before
  /// OutOfFuel. Chosen so that every reasonable corpus method finishes.
  uint64_t Fuel = 20000;
  /// When false, ExecResult::States and InitialState stay empty
  /// (cheaper; used by the coverage-only feedback loop in testgen).
  bool RecordStates = true;
  /// Hard cap on recorded steps to bound trace memory; execution
  /// continues uninstrumented past the cap.
  size_t MaxRecordedSteps = 4096;
  /// Cumulative allocation budget in modelled bytes (Value::approxBytes
  /// of every string/array/struct the execution creates, plus the
  /// snapshot cost of each recorded step). Accounting is monotone —
  /// bytes are charged at allocation and never refunded — so it bounds
  /// both peak memory and allocation churn; exceeding it terminates the
  /// execution with ExecStatus::MemoryLimit. Snapshot costs are charged
  /// whether or not RecordStates is set, keeping the terminal status a
  /// pure function of (program, inputs, budgets) — the determinism the
  /// trace collector's probe-then-record pipeline relies on.
  uint64_t MaxMemoryBytes = 64ull << 20;
};

/// Returns the fixed variable tuple of \p Fn: parameters then every
/// declared local in source order (first occurrence of each name).
std::vector<std::string> collectVariableTuple(const FunctionDecl &Fn);

/// The variables of \p Fn and of every function of its program,
/// resolved once to integer slots (DESIGN.md §12.2). Every distinct
/// variable name of the program gets one slot, and every VarExpr,
/// DeclStmt and parameter records the slot of its name; slots
/// [0, varNames().size()) are the traced function's variable tuple in
/// tuple order. Resolution is by name only, so it needs no type check;
/// execution binds and unbinds slots as scopes open and close, so
/// scoping stays dynamic (a callee sees its caller's live bindings).
///
/// Immutable once built and safe to share between threads. Holds
/// pointers into the program, which must outlive it. Build one per
/// function and reuse it for all of its executions.
class FrameLayout {
public:
  /// \p Fn must be one of \p P's functions.
  FrameLayout(const Program &P, const FunctionDecl &Fn);

  const Program &program() const { return *P; }
  const FunctionDecl &function() const { return *Fn; }
  /// The traced function's variable tuple (collectVariableTuple(Fn)).
  const std::vector<std::string> &varNames() const { return VarNames; }
  /// Number of distinct variable names in the program.
  size_t numSlots() const { return NumSlots; }

  /// Slot of a VarExpr or DeclStmt reachable from the program.
  uint32_t slot(NodeId Id) const { return NodeSlots[Id]; }
  /// Slots of \p F's parameters, in declaration order; \p F is one of
  /// the program's functions.
  const std::vector<uint32_t> &paramSlots(const FunctionDecl &F) const;

private:
  const Program *P;
  const FunctionDecl *Fn;
  std::vector<std::string> VarNames;
  size_t NumSlots = 0;
  std::vector<uint32_t> NodeSlots;
  /// Parallel to P->Functions.
  std::vector<std::vector<uint32_t>> ParamSlots;
};

/// Executes the layout's function on \p Args (must match the parameter
/// count; type agreement is the caller's responsibility — corpus inputs
/// are generated from the signature).
ExecResult execute(const FrameLayout &Layout, const std::vector<Value> &Args,
                   const InterpOptions &Options = {});

/// Executes \p Fn from \p P on \p Args, building its FrameLayout first.
/// Callers that execute one function many times should build the
/// layout once and use the overload above.
ExecResult execute(const Program &P, const FunctionDecl &Fn,
                   const std::vector<Value> &Args,
                   const InterpOptions &Options = {});

} // namespace liger

#endif // LIGER_INTERP_INTERPRETER_H
