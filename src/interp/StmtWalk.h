//===-- interp/StmtWalk.h - The executor core of both executors -*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executor core of the concrete interpreter and the symbolic
/// executor (symx/SymExec). A symbolic path's key must equal the key of
/// the interpreter's run on the path's witness (DESIGN.md §5), so all
/// that decides which steps a run records exists once, here:
///
///   - the statement walk: control flow, where a unit of the step
///     budget is burned, scopes, and which step each statement records;
///   - the environment: FrameLayout slots with shallow binding;
///   - the user-function call: a frame binding the callee's parameters,
///     its body, its return value and the call depth. Only the traced
///     activation (call depth 0) records steps; callees record nothing.
///
/// An executor derives from StmtWalk<Executor, ValueType> (static
/// dispatch: the walk is the interpreter's hottest loop) and supplies
/// what differs between the two, declaring StmtWalk a friend:
///
///   bool burn();          one unit of the step budget; false once spent
///   bool stopped() const; the run has ended (sticky)
///   V evalExpr(const Expr *E);
///   void execAssign(const AssignStmt *S);
///   bool zeroValue(const Type &Ty, const char *Use, V &Out);
///   bool decide(const V &Cond, bool &Taken, const char *What);
///                         the outcome of a condition; false stops here
///   void record(const Stmt *S, StepKind Kind);
///                         a step of the traced activation
///
/// It may hide two defaults: keepLastKnown(Slot, Dying), which receives
/// a traced variable's final value when its scope closes, and the
/// loop-head hook, enterLoop() and loopHead(State &), which runs at the
/// head of every while/for iteration before the iteration's budget unit
/// is burned.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_INTERP_STMTWALK_H
#define LIGER_INTERP_STMTWALK_H

#include "interp/Interpreter.h"
#include "lang/Ast.h"
#include "support/Error.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace liger {

template <class Exec, class V> class StmtWalk {
protected:
  /// Non-local control flow signal bubbling out of statement execution.
  enum class Flow { Normal, Break, Continue, Return };

  explicit StmtWalk(const FrameLayout &Layout)
      : Layout(Layout), Cells(Layout.numSlots()) {}

  //===--------------------------------------------------------------------===//
  // Environment
  //===--------------------------------------------------------------------===//

  // Shallow binding: each slot's cell holds the innermost live binding
  // of its name, tagged with the depth of the frame that made it. A
  // declaration that shadows a binding from an outer frame (or from a
  // caller: scoping is dynamic) saves the old cell on Shadowed;
  // popping the frame restores it. Lookup is one index, and a frame
  // costs nothing unless it declares.

  struct SlotCell {
    V Val;
    uint32_t Depth = 0; ///< Frame depth of the binding; 0 = unbound.
  };
  struct ShadowedCell {
    uint32_t Slot;
    uint32_t Depth;
    V Val;
  };

  void pushFrame() { FrameMarks.push_back(Shadowed.size()); }

  /// Unbinds the innermost frame's declarations. In the traced
  /// activation a dying variable's final value goes to keepLastKnown.
  void popFrame() {
    size_t Mark = FrameMarks.back();
    FrameMarks.pop_back();
    while (Shadowed.size() > Mark) {
      ShadowedCell &Old = Shadowed.back();
      SlotCell &C = Cells[Old.Slot];
      if (CallDepth == 0)
        exec().keepLastKnown(Old.Slot, std::move(C.Val));
      C.Val = std::move(Old.Val);
      C.Depth = Old.Depth;
      Shadowed.pop_back();
    }
  }

  /// Binds \p Slot in the innermost frame; redeclaring a name in the
  /// same frame overwrites its binding.
  void declare(uint32_t Slot, V Val) {
    SlotCell &C = Cells[Slot];
    uint32_t Depth = static_cast<uint32_t>(FrameMarks.size());
    if (C.Depth != Depth) {
      Shadowed.push_back({Slot, C.Depth, std::move(C.Val)});
      C.Depth = Depth;
    }
    C.Val = std::move(Val);
  }

  /// The live binding of the variable \p Var, or null when none is.
  V *lookup(const Expr *Var) {
    SlotCell &C = Cells[Layout.slot(Var->id())];
    return C.Depth != 0 ? &C.Val : nullptr;
  }

  /// Default: a traced variable's final value is not kept.
  void keepLastKnown(uint32_t, V &&) {}

  //===--------------------------------------------------------------------===//
  // User-function calls
  //===--------------------------------------------------------------------===//

  /// Opens an activation of \p Fn: a frame binding its parameters to
  /// \p Args.
  void enterFunction(const FunctionDecl &Fn, std::vector<V> Args) {
    pushFrame();
    const std::vector<uint32_t> &Params = Layout.paramSlots(Fn);
    for (size_t I = 0; I < Params.size(); ++I)
      declare(Params[I], std::move(Args[I]));
  }

  /// Runs the body of the activation of \p Fn that enterFunction opened
  /// and closes its frame.
  Flow finishFunction(const FunctionDecl &Fn) {
    Flow F = Flow::Normal;
    if (Fn.Body && !exec().stopped())
      F = execBlock(Fn.Body);
    popFrame();
    return F;
  }

  /// Calls \p Fn on \p Args in an untraced activation and returns the
  /// value its body returned (V() if it returned none). The caller's
  /// ReturnValue survives the call.
  V callFunction(const FunctionDecl &Fn, std::vector<V> Args) {
    size_t SavedFrameCount = FrameMarks.size();
    V SavedReturn = ReturnValue;
    ++CallDepth;
    enterFunction(Fn, std::move(Args));
    Flow F = finishFunction(Fn);
    --CallDepth;
    LIGER_CHECK(FrameMarks.size() == SavedFrameCount, "unbalanced frames");
    V Result = F == Flow::Return ? std::move(ReturnValue) : V();
    ReturnValue = std::move(SavedReturn);
    return Result;
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  Flow execBlock(const BlockStmt *Block) {
    pushFrame();
    Flow F = Flow::Normal;
    for (const Stmt *S : Block->body()) {
      F = execStmt(S);
      if (F != Flow::Normal || exec().stopped())
        break;
    }
    popFrame();
    return F;
  }

  Flow execStmt(const Stmt *S) {
    if (!exec().burn())
      return Flow::Normal;
    switch (S->kind()) {
    case StmtKind::Block:
      return execBlock(cast<BlockStmt>(S));
    case StmtKind::Decl: {
      const auto *Decl = cast<DeclStmt>(S);
      V Init;
      if (Decl->init()) {
        Init = exec().evalExpr(Decl->init());
        if (exec().stopped())
          return Flow::Normal;
      } else if (!exec().zeroValue(Decl->declType(), "declaration", Init)) {
        return Flow::Normal;
      }
      declare(Layout.slot(Decl->id()), std::move(Init));
      recordStep(S, StepKind::Plain);
      return Flow::Normal;
    }
    case StmtKind::Assign:
      exec().execAssign(cast<AssignStmt>(S));
      if (!exec().stopped())
        recordStep(S, StepKind::Plain);
      return Flow::Normal;
    case StmtKind::If: {
      const auto *If = cast<IfStmt>(S);
      bool Taken = false;
      if (!condition(S, If->cond(), "if condition", Taken))
        return Flow::Normal;
      if (Taken)
        return execStmt(If->thenStmt());
      if (If->elseStmt())
        return execStmt(If->elseStmt());
      return Flow::Normal;
    }
    case StmtKind::While: {
      const auto *While = cast<WhileStmt>(S);
      return loop(S, While->cond(), While->body(), nullptr,
                  "while condition");
    }
    case StmtKind::For: {
      // The init's declarations live in a frame around the whole loop.
      const auto *For = cast<ForStmt>(S);
      pushFrame();
      if (For->init())
        execStmt(For->init());
      Flow F = exec().stopped() ? Flow::Normal
                                : loop(S, For->cond(), For->body(),
                                       For->step(), "for condition");
      popFrame();
      return F;
    }
    case StmtKind::Return: {
      const auto *Ret = cast<ReturnStmt>(S);
      if (Ret->value()) {
        ReturnValue = exec().evalExpr(Ret->value());
        if (exec().stopped())
          return Flow::Normal;
      } else {
        ReturnValue = V();
      }
      recordStep(S, StepKind::Plain);
      return Flow::Return;
    }
    case StmtKind::Break:
      recordStep(S, StepKind::Plain);
      return Flow::Break;
    case StmtKind::Continue:
      recordStep(S, StepKind::Plain);
      return Flow::Continue;
    case StmtKind::Expr:
      exec().evalExpr(cast<ExprStmt>(S)->expr());
      if (!exec().stopped())
        recordStep(S, StepKind::Plain);
      return Flow::Normal;
    }
    LIGER_UNREACHABLE("covered switch");
  }

  /// Default loop-head hook: no per-activation state, nothing to check.
  struct NoLoopState {};
  NoLoopState enterLoop() { return {}; }
  void loopHead(NoLoopState &) {}

  const FrameLayout &Layout;
  std::vector<SlotCell> Cells;        ///< One per layout slot.
  std::vector<ShadowedCell> Shadowed; ///< Undo log of shadowed cells.
  std::vector<size_t> FrameMarks;     ///< Shadowed.size() per frame.
  V ReturnValue;          ///< Set by the latest return statement.
  unsigned CallDepth = 0; ///< 0 in the traced activation.

private:
  Exec &exec() { return static_cast<Exec &>(*this); }

  /// Records \p S in the traced activation; callees record nothing.
  void recordStep(const Stmt *S, StepKind Kind) {
    if (CallDepth == 0)
      exec().record(S, Kind);
  }

  /// Evaluates and decides \p S's condition \p Cond and records the
  /// outcome; false when the run stops instead.
  bool condition(const Stmt *S, const Expr *Cond, const char *What,
                 bool &Taken) {
    V Val = exec().evalExpr(Cond);
    if (exec().stopped() || !exec().decide(Val, Taken, What))
      return false;
    recordStep(S, Taken ? StepKind::CondTrue : StepKind::CondFalse);
    return true;
  }

  /// The iterations of a while loop, or of a for loop after its init.
  /// An absent \p Cond is true and records no step.
  Flow loop(const Stmt *S, const Expr *Cond, const Stmt *Body,
            const Stmt *Step, const char *What) {
    auto State = exec().enterLoop();
    for (;;) {
      exec().loopHead(State);
      if (!exec().burn())
        return Flow::Normal;
      bool Taken = true;
      if (Cond && !condition(S, Cond, What, Taken))
        return Flow::Normal;
      if (!Taken)
        return Flow::Normal;
      Flow F = execStmt(Body);
      if (exec().stopped() || F == Flow::Break)
        return Flow::Normal;
      if (F == Flow::Return)
        return F;
      if (Step) {
        execStmt(Step);
        if (exec().stopped())
          return Flow::Normal;
      }
    }
  }
};

} // namespace liger

#endif // LIGER_INTERP_STMTWALK_H
