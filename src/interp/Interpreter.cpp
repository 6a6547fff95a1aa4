//===-- interp/Interpreter.cpp - Instrumented concrete interpreter --------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "interp/IntOps.h"
#include "interp/StmtWalk.h"
#include "support/Error.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <unordered_map>

using namespace liger;

namespace {

/// Loop cycle detectors sample no state until the run has used
/// ArmFuel = min(Fuel / 64, 2^16) statements, so a run that ends early
/// never encodes one. A loop activation then samples its state every
/// 32 + 4 statements per word of the last encoding, starting that far
/// from its entry, so encoding costs a few percent of the
/// interpretation it watches. The spacing never exceeds 4 * ArmFuel,
/// so a repeat is found within a fixed share of any budget
/// (DESIGN.md §12.2).
constexpr uint64_t CycleArmDivisor = 64;
constexpr uint64_t MaxArmFuel = uint64_t(1) << 16;
constexpr uint64_t MinSampleGap = 32;
constexpr uint64_t SampleGapPerWord = 4;
constexpr uint64_t MaxSampleGapInArms = 4;

/// The interpreter engine. One instance per top-level execute() call;
/// user-function calls reuse the engine (sharing fuel) in untraced
/// activations (interp/StmtWalk.h).
class Engine : public StmtWalk<Engine, Value> {
  using Walk = StmtWalk<Engine, Value>;
  friend Walk;

public:
  Engine(const FrameLayout &Layout, const InterpOptions &Options)
      : Walk(Layout), P(Layout.program()), Options(Options),
        FuelLeft(Options.Fuel),
        ArmFuel(std::min(Options.Fuel / CycleArmDivisor, MaxArmFuel)),
        LastKnown(Layout.varNames().size()) {}

  ExecResult run(const std::vector<Value> &Args) {
    const FunctionDecl &Fn = Layout.function();
    ExecResult Result;
    Result.VarNames = Layout.varNames();
    Trace = &Result;

    LIGER_CHECK(Args.size() == Fn.Params.size(),
                "argument count must match parameter count");
    enterFunction(Fn, Args);
    if (Options.RecordStates)
      Result.InitialState = snapshotState();

    // The initial snapshot is charged whether or not it is materialized
    // so that probe and recording runs consume the budget identically.
    chargeMemory(stateBytes());
    Flow F = finishFunction(Fn);

    if (Failed) {
      Result.Status = ExecStatus::RuntimeError;
      Result.ErrorMessage = ErrorMessage;
    } else if (MemoryExceeded) {
      Result.Status = ExecStatus::MemoryLimit;
      Result.ErrorMessage = "memory budget exceeded (" +
                            std::to_string(Options.MaxMemoryBytes) +
                            " bytes)";
    } else if (OutOfFuel) {
      Result.Status = ExecStatus::OutOfFuel;
      Result.ErrorMessage = "fuel budget exhausted (" +
                            std::to_string(Options.Fuel) + " statements)";
    } else {
      Result.Status = ExecStatus::Ok;
      if (F == Flow::Return)
        Result.ReturnValue = ReturnValue;
    }
    Result.FuelUsed = Options.Fuel - FuelLeft;
    return Result;
  }

private:
  //===--------------------------------------------------------------------===//
  // States
  //===--------------------------------------------------------------------===//

  /// Keeps a traced variable's final value when its scope closes.
  void keepLastKnown(uint32_t Slot, Value &&Dying) {
    if (Slot < LastKnown.size())
      LastKnown[Slot] = std::move(Dying);
  }

  /// The value a snapshot shows for tuple slot \p Slot: the live
  /// binding, else the last value the variable had before going out of
  /// scope (the paper's accumulated valuation), else ⊥.
  const Value &stateValue(uint32_t Slot) const {
    const SlotCell &C = Cells[Slot];
    return C.Depth != 0 ? C.Val : LastKnown[Slot];
  }

  /// Snapshot of the fixed variable tuple, deep-copied.
  std::vector<Value> snapshotState() const {
    std::vector<Value> State;
    State.reserve(LastKnown.size());
    for (uint32_t Slot = 0; Slot < LastKnown.size(); ++Slot)
      State.push_back(stateValue(Slot).deepCopy());
    return State;
  }

  /// What snapshotState() would allocate, without allocating it. Used
  /// to charge snapshot costs identically whether states are recorded
  /// or not (see InterpOptions::MaxMemoryBytes).
  uint64_t stateBytes() const {
    uint64_t Total = 0;
    for (uint32_t Slot = 0; Slot < LastKnown.size(); ++Slot)
      Total += stateValue(Slot).approxBytes();
    return Total;
  }

  //===--------------------------------------------------------------------===//
  // Errors and fuel
  //===--------------------------------------------------------------------===//

  bool fail(const std::string &Msg) {
    if (!Failed) {
      Failed = true;
      ErrorMessage = Msg;
    }
    return false;
  }

  /// Burns one unit of fuel; returns false when exhausted.
  bool burn() {
    if (FuelLeft == 0) {
      OutOfFuel = true;
      return false;
    }
    --FuelLeft;
    return true;
  }

  /// Charges \p Bytes against the monotone allocation budget; returns
  /// false (and latches MemoryExceeded) once the budget is blown.
  bool chargeMemory(uint64_t Bytes) {
    BytesCharged += Bytes;
    if (BytesCharged > Options.MaxMemoryBytes) {
      MemoryExceeded = true;
      return false;
    }
    return true;
  }

  bool stopped() const { return Failed || OutOfFuel || MemoryExceeded; }

  /// Sets \p Out to the zero value of \p Ty. Fails when \p Ty names a
  /// struct that is undeclared (\p Use says where) or has a struct-typed
  /// field: the type checker rejects both, but an un-typechecked program
  /// reaches here.
  bool zeroValue(const Type &Ty, const char *Use, Value &Out) {
    const StructDecl *SD = nullptr;
    if (Ty.isStruct()) {
      SD = P.findStruct(Ty.structName());
      if (!SD)
        return fail(std::string(Use) + " of undeclared struct type '" +
                    Ty.structName() + "'");
      for (const TypedName &Field : SD->Fields)
        if (Field.Ty.isStruct())
          return fail("struct '" + SD->Name + "' has a struct-typed field '" +
                      Field.Name + "'");
    }
    Out = Value::zeroOf(Ty, SD);
    return true;
  }

  /// Extracts an int operand or fails with a RuntimeError. Hostile
  /// input can reach the interpreter without a type check (or with one
  /// the parser's error placeholders confused), so no operand kind is
  /// ever trusted.
  bool wantInt(const Value &V, int64_t &Out, const char *What) {
    if (!V.isInt()) {
      fail(std::string(What) + " is not an integer");
      return false;
    }
    Out = V.asInt();
    return true;
  }

  /// Extracts a bool operand or fails with a RuntimeError.
  bool wantBool(const Value &V, bool &Out, const char *What) {
    if (!V.isBool()) {
      fail(std::string(What) + " is not a boolean");
      return false;
    }
    Out = V.asBool();
    return true;
  }

  /// A condition's outcome: its bool value.
  bool decide(const Value &Cond, bool &Taken, const char *What) {
    return wantBool(Cond, Taken, What);
  }

  //===--------------------------------------------------------------------===//
  // Instrumentation
  //===--------------------------------------------------------------------===//

  /// Records a step of the traced activation, up to the recording cap.
  void record(const Stmt *S, StepKind Kind) {
    if (Trace->Steps.size() >= Options.MaxRecordedSteps)
      return;
    // Snapshot cost counts against the memory budget even when states
    // are not materialized (RecordStates off), so discovery probes and
    // recording runs reach identical terminal states. A blown budget
    // leaves the already-recorded prefix intact: truncated but valid.
    if (!chargeMemory(stateBytes()))
      return;
    Trace->Steps.push_back({S, Kind});
    if (Options.RecordStates)
      Trace->States.push_back(snapshotState());
  }

  //===--------------------------------------------------------------------===//
  // Cycle detection at loop back-edges
  //===--------------------------------------------------------------------===//

  // A loop whose engine state repeats at its back-edge never leaves on
  // its own: every later cycle replays the same statements, records the
  // same steps and charges the same fuel and bytes, until a budget runs
  // out. Each while/for activation runs Brent's algorithm over an exact
  // encoding of the state and, on a repeat, skips whole cycles by their
  // measured effect; the interpreter itself then runs the final partial
  // cycle into the budget (DESIGN.md §12.2).

  /// Brent's algorithm for one loop activation, over the back-edges it
  /// samples: the encoded state at the saved sample, with the budgets
  /// and trace length it had there.
  struct CycleDetector {
    explicit CycleDetector(uint64_t FirstCheck) : NextCheck(FirstCheck) {}

    /// The next back-edge with FuelLeft <= NextCheck is sampled.
    uint64_t NextCheck;
    bool HasSaved = false;
    std::vector<uint64_t> Saved;
    uint64_t Power = 1;  ///< Samples until the saved state moves on.
    uint64_t Lambda = 0; ///< Samples since the saved one.
    uint64_t SavedFuelLeft = 0;
    uint64_t SavedBytes = 0;
    size_t SavedSteps = 0;
  };

  /// The loop-head hook's state (interp/StmtWalk.h): a detector for a
  /// loop activation starting now. Its first sample is one spacing
  /// away, and not before the run is armed.
  CycleDetector enterLoop() const {
    return CycleDetector(std::min(Options.Fuel - ArmFuel, nextSample()));
  }

  /// The FuelLeft at which a sample taken now is followed by the next.
  /// Within an activation the spacing is a function of the sampled
  /// state, so the samples of a periodic loop are periodic too.
  uint64_t nextSample() const {
    uint64_t Gap = std::min(MaxSampleGapInArms * ArmFuel,
                            MinSampleGap + SampleGapPerWord * LastEncodedWords);
    return FuelLeft > Gap ? FuelLeft - Gap : 0;
  }

  /// The loop-head hook: runs at the head of every iteration, before
  /// its fuel is burned. Between samples this is one compare.
  void loopHead(CycleDetector &D) {
    if (FuelLeft <= D.NextCheck)
      detectCycle(D);
  }

  void detectCycle(CycleDetector &D) {
    encodeState();
    LastEncodedWords = Encoding.size();
    if (D.HasSaved && Encoding == D.Saved) {
      // The loop repeats every CycleFuel statements from here on. After
      // the skip the run either ends within a cycle or goes on across
      // the recording cap, and the next repeat then shows one cycle
      // later, so the detector samples exactly there.
      uint64_t CycleFuel = D.SavedFuelLeft - FuelLeft;
      skipCycles(D);
      D.NextCheck = FuelLeft > CycleFuel ? FuelLeft - CycleFuel : 0;
      D.Power = 1;
      markSaved(D);
      return;
    }
    D.NextCheck = nextSample();
    if (D.HasSaved && ++D.Lambda < D.Power)
      return;
    D.Power = D.HasSaved ? 2 * D.Power : 1;
    std::swap(D.Saved, Encoding);
    D.HasSaved = true;
    markSaved(D);
  }

  /// Makes the current back-edge the saved sample's position.
  void markSaved(CycleDetector &D) const {
    D.Lambda = 0;
    D.SavedFuelLeft = FuelLeft;
    D.SavedBytes = BytesCharged;
    D.SavedSteps = Trace->Steps.size();
  }

  /// The state equals the saved sample's, so the cycle between them
  /// repeats until a budget stops it. Skips as many whole copies of it
  /// as end within the fuel and memory budgets and, if the cycle
  /// recorded steps, within the recording cap. Steps never pass the
  /// cap, so a cycle that reached it part-way ends at it and is not
  /// skipped (its successor records nothing), and one that started
  /// there records nothing and is skipped freely.
  void skipCycles(const CycleDetector &D) {
    std::vector<ExecStep> &Steps = Trace->Steps;
    size_t Last = Steps.size();
    // Every iteration burns fuel at its head, so CycleFuel >= 1.
    uint64_t CycleFuel = D.SavedFuelLeft - FuelLeft;
    uint64_t CycleBytes = BytesCharged - D.SavedBytes;
    size_t CycleSteps = Last - D.SavedSteps;
    uint64_t Skip = FuelLeft / CycleFuel;
    if (CycleBytes != 0)
      Skip = std::min(Skip,
                      (Options.MaxMemoryBytes - BytesCharged) / CycleBytes);
    if (CycleSteps != 0)
      Skip = std::min<uint64_t>(
          Skip, (Options.MaxRecordedSteps - Last) / CycleSteps);
    FuelLeft -= Skip * CycleFuel;
    BytesCharged += Skip * CycleBytes;
    // Each skipped step, and its state, repeats the one a cycle
    // earlier; a state is a deep copy, sharing no heap with the one it
    // repeats. With steps in the cycle, Skip * CycleSteps <=
    // MaxRecordedSteps - Last.
    size_t Appended = CycleSteps == 0 ? 0 : Skip * CycleSteps;
    Steps.reserve(Last + Appended);
    for (size_t I = 0; I < Appended; ++I)
      Steps.push_back(Steps[Steps.size() - CycleSteps]);
    if (!Options.RecordStates)
      return;
    std::vector<std::vector<Value>> &States = Trace->States;
    States.reserve(Last + Appended);
    for (size_t I = 0; I < Appended; ++I) {
      const std::vector<Value> &Earlier = States[States.size() - CycleSteps];
      std::vector<Value> Copy;
      Copy.reserve(Earlier.size());
      for (const Value &V : Earlier)
        Copy.push_back(V.deepCopy());
      States.push_back(std::move(Copy));
    }
  }

  /// Encodes everything a loop iteration can read or write: every cell
  /// with its depth tag, the shadowed cells, LastKnown and ReturnValue.
  /// Equal encodings mean equal states up to renaming heap objects. The
  /// rest is fixed for the activation's lifetime (frame marks, call
  /// depth, the C++ stack above the loop) or is the budgets the skip
  /// accounts for.
  void encodeState() {
    Encoding.clear();
    HeapIds.clear();
    for (const SlotCell &C : Cells) {
      Encoding.push_back(C.Depth);
      encodeValue(C.Val);
    }
    Encoding.push_back(Shadowed.size());
    for (const ShadowedCell &Old : Shadowed) {
      Encoding.push_back(uint64_t(Old.Slot) << 32 | Old.Depth);
      encodeValue(Old.Val);
    }
    for (const Value &V : LastKnown)
      encodeValue(V);
    encodeValue(ReturnValue);
  }

  /// Appends \p V's self-delimiting encoding. Arrays and structs are
  /// numbered in first-visit order and a revisit encodes the number, so
  /// aliasing is part of the encoding; strings are immutable and encode
  /// by content.
  void encodeValue(const Value &V) {
    constexpr uint64_t AliasTag = 0x100;
    switch (V.kind()) {
    case ValueKind::Undef:
      Encoding.push_back(static_cast<uint64_t>(V.kind()));
      return;
    case ValueKind::Int:
    case ValueKind::Bool:
      Encoding.push_back(static_cast<uint64_t>(V.kind()));
      Encoding.push_back(
          static_cast<uint64_t>(V.isInt() ? V.asInt() : V.asBool()));
      return;
    case ValueKind::String: {
      const std::string &S = V.asString();
      Encoding.push_back(static_cast<uint64_t>(V.kind()));
      Encoding.push_back(S.size());
      for (size_t I = 0; I < S.size(); I += 8) {
        uint64_t Word = 0;
        std::memcpy(&Word, S.data() + I, std::min<size_t>(8, S.size() - I));
        Encoding.push_back(Word);
      }
      return;
    }
    case ValueKind::Array:
    case ValueKind::Struct: {
      const std::vector<Value> &Elems = V.elements();
      auto [It, FirstVisit] = HeapIds.try_emplace(&Elems, HeapIds.size());
      if (!FirstVisit) {
        Encoding.push_back(AliasTag);
        Encoding.push_back(It->second);
        return;
      }
      Encoding.push_back(static_cast<uint64_t>(V.kind()));
      if (V.isStruct())
        Encoding.push_back(reinterpret_cast<uintptr_t>(V.structDecl()));
      Encoding.push_back(Elems.size());
      for (const Value &Elem : Elems)
        encodeValue(Elem);
      return;
    }
    }
    LIGER_UNREACHABLE("covered switch");
  }

  //===--------------------------------------------------------------------===//
  // Assignments and expressions
  //===--------------------------------------------------------------------===//

  void execAssign(const AssignStmt *S) {
    Value NewValue = evalExpr(S->value());
    if (stopped())
      return;

    // Resolve the target cell.
    Value *Cell = nullptr;
    if (const auto *Var = dyn_cast<VarExpr>(S->target())) {
      Cell = lookup(Var);
      if (!Cell) {
        fail("assignment to undeclared variable '" + Var->name() + "'");
        return;
      }
    } else if (const auto *Index = dyn_cast<IndexExpr>(S->target())) {
      Value Base = evalExpr(Index->base());
      Value Idx = evalExpr(Index->index());
      if (stopped())
        return;
      if (!Base.isArray()) {
        fail("cannot assign into a non-array");
        return;
      }
      int64_t I = 0;
      if (!wantInt(Idx, I, "array index"))
        return;
      std::vector<Value> &Elems = Base.elements();
      if (I < 0 || static_cast<size_t>(I) >= Elems.size()) {
        fail("array index " + std::to_string(I) + " out of range [0, " +
             std::to_string(Elems.size()) + ")");
        return;
      }
      Cell = &Elems[static_cast<size_t>(I)];
    } else if (const auto *Field = dyn_cast<FieldExpr>(S->target())) {
      Value Base = evalExpr(Field->base());
      if (stopped())
        return;
      if (!Base.isStruct()) {
        fail("cannot assign into a field of a non-struct");
        return;
      }
      int FieldIdx = Base.structDecl()->fieldIndex(Field->field());
      if (FieldIdx < 0) {
        fail("unknown field '" + Field->field() + "'");
        return;
      }
      Cell = &Base.elements()[static_cast<size_t>(FieldIdx)];
    } else {
      fail("invalid assignment target");
      return;
    }

    if (S->op() == AssignOp::Set) {
      *Cell = std::move(NewValue);
      return;
    }

    // Compound assignment: int arithmetic or string concatenation.
    if (Cell->isString() && NewValue.isString() && S->op() == AssignOp::Add) {
      // `s += s` doubles the string every statement — charge the result
      // size so the growth trips MemoryLimit, not the fuel budget.
      if (!chargeMemory(32 + Cell->asString().size() +
                        NewValue.asString().size()))
        return;
      *Cell = Value::makeString(Cell->asString() + NewValue.asString());
      return;
    }
    if (!Cell->isInt() || !NewValue.isInt()) {
      fail("invalid operand types in compound assignment");
      return;
    }
    int64_t L = Cell->asInt();
    int64_t R = NewValue.asInt();
    int64_t Out = 0;
    switch (S->op()) {
    case AssignOp::Add: Out = wrapAdd(L, R); break;
    case AssignOp::Sub: Out = wrapSub(L, R); break;
    case AssignOp::Mul: Out = wrapMul(L, R); break;
    case AssignOp::Div:
      if (R == 0) {
        fail("division by zero");
        return;
      }
      Out = wrapDiv(L, R);
      break;
    case AssignOp::Mod:
      if (R == 0) {
        fail("modulo by zero");
        return;
      }
      Out = wrapMod(L, R);
      break;
    case AssignOp::Set:
      LIGER_UNREACHABLE("Set handled above");
    }
    *Cell = Value::makeInt(Out);
  }

  Value evalExpr(const Expr *E) {
    if (stopped())
      return Value::undef();
    switch (E->kind()) {
    case ExprKind::IntLit:
      return Value::makeInt(cast<IntLitExpr>(E)->value());
    case ExprKind::BoolLit:
      return Value::makeBool(cast<BoolLitExpr>(E)->value());
    case ExprKind::StringLit:
      return Value::makeString(cast<StringLitExpr>(E)->value());
    case ExprKind::Var: {
      if (Value *V = lookup(E))
        return *V;
      fail("use of undeclared variable '" + cast<VarExpr>(E)->name() + "'");
      return Value::undef();
    }
    case ExprKind::ArrayLit: {
      std::vector<Value> Elements;
      for (const Expr *Elem : cast<ArrayLitExpr>(E)->elements()) {
        Elements.push_back(evalExpr(Elem));
        if (stopped())
          return Value::undef();
      }
      if (!chargeMemory(32 + 16 * static_cast<uint64_t>(Elements.size())))
        return Value::undef();
      return Value::makeArray(std::move(Elements));
    }
    case ExprKind::NewArray: {
      const auto *New = cast<NewArrayExpr>(E);
      Value Size = evalExpr(New->size());
      if (stopped())
        return Value::undef();
      // The size expression's value is not trusted: with the type
      // checker bypassed it can be any kind.
      int64_t N = 0;
      if (!wantInt(Size, N, "array size"))
        return Value::undef();
      if (N < 0 || N > 1000000) {
        fail("invalid array size " + std::to_string(N));
        return Value::undef();
      }
      Value Zero;
      if (!zeroValue(New->elemType(), "array", Zero))
        return Value::undef();
      if (!chargeMemory(32 + Zero.approxBytes() * static_cast<uint64_t>(N)))
        return Value::undef();
      std::vector<Value> Elements(static_cast<size_t>(N), Zero);
      return Value::makeArray(std::move(Elements));
    }
    case ExprKind::NewStruct: {
      const auto *New = cast<NewStructExpr>(E);
      const StructDecl *Decl = P.findStruct(New->structName());
      if (!Decl) {
        fail("construction of undeclared struct '" + New->structName() + "'");
        return Value::undef();
      }
      if (New->args().size() != Decl->Fields.size()) {
        fail("struct '" + New->structName() + "' expects " +
             std::to_string(Decl->Fields.size()) + " field values");
        return Value::undef();
      }
      std::vector<Value> Fields;
      for (const Expr *Arg : New->args()) {
        Fields.push_back(evalExpr(Arg));
        if (stopped())
          return Value::undef();
      }
      if (!chargeMemory(32 + 16 * static_cast<uint64_t>(Fields.size())))
        return Value::undef();
      return Value::makeStruct(Decl, std::move(Fields));
    }
    case ExprKind::Index: {
      const auto *Index = cast<IndexExpr>(E);
      Value Base = evalExpr(Index->base());
      Value Idx = evalExpr(Index->index());
      if (stopped())
        return Value::undef();
      int64_t I = 0;
      if (!wantInt(Idx, I, "index"))
        return Value::undef();
      if (Base.isArray()) {
        const std::vector<Value> &Elems = Base.elements();
        if (I < 0 || static_cast<size_t>(I) >= Elems.size()) {
          fail("array index " + std::to_string(I) + " out of range [0, " +
               std::to_string(Elems.size()) + ")");
          return Value::undef();
        }
        return Elems[static_cast<size_t>(I)];
      }
      if (Base.isString()) {
        const std::string &S = Base.asString();
        if (I < 0 || static_cast<size_t>(I) >= S.size()) {
          fail("string index " + std::to_string(I) + " out of range [0, " +
               std::to_string(S.size()) + ")");
          return Value::undef();
        }
        return Value::makeString(std::string(1, S[static_cast<size_t>(I)]));
      }
      fail("cannot index a scalar value");
      return Value::undef();
    }
    case ExprKind::Field: {
      const auto *Field = cast<FieldExpr>(E);
      Value Base = evalExpr(Field->base());
      if (stopped())
        return Value::undef();
      if (!Base.isStruct()) {
        fail("field access on a non-struct value");
        return Value::undef();
      }
      int FieldIdx = Base.structDecl()->fieldIndex(Field->field());
      if (FieldIdx < 0) {
        fail("unknown field '" + Field->field() + "'");
        return Value::undef();
      }
      return Base.elements()[static_cast<size_t>(FieldIdx)];
    }
    case ExprKind::Unary: {
      const auto *Unary = cast<UnaryExpr>(E);
      Value Operand = evalExpr(Unary->operand());
      if (stopped())
        return Value::undef();
      if (Unary->op() == UnaryOp::Neg) {
        int64_t V = 0;
        if (!wantInt(Operand, V, "negation operand"))
          return Value::undef();
        return Value::makeInt(wrapNeg(V));
      }
      bool B = false;
      if (!wantBool(Operand, B, "'!' operand"))
        return Value::undef();
      return Value::makeBool(!B);
    }
    case ExprKind::Binary:
      return evalBinary(cast<BinaryExpr>(E));
    case ExprKind::Call:
      return evalCall(cast<CallExpr>(E));
    }
    LIGER_UNREACHABLE("covered switch");
  }

  Value evalBinary(const BinaryExpr *E) {
    // Short-circuit operators first.
    if (E->op() == BinaryOp::And || E->op() == BinaryOp::Or) {
      Value L = evalExpr(E->lhs());
      if (stopped())
        return Value::undef();
      bool LeftTrue = false;
      if (!wantBool(L, LeftTrue, "logical operand"))
        return Value::undef();
      if (E->op() == BinaryOp::And && !LeftTrue)
        return Value::makeBool(false);
      if (E->op() == BinaryOp::Or && LeftTrue)
        return Value::makeBool(true);
      Value R = evalExpr(E->rhs());
      if (stopped())
        return Value::undef();
      bool RightTrue = false;
      if (!wantBool(R, RightTrue, "logical operand"))
        return Value::undef();
      return Value::makeBool(RightTrue);
    }

    Value L = evalExpr(E->lhs());
    Value R = evalExpr(E->rhs());
    if (stopped())
      return Value::undef();

    // Structural equality works on any kinds.
    if (E->op() == BinaryOp::Eq)
      return Value::makeBool(L.equals(R));
    if (E->op() == BinaryOp::Ne)
      return Value::makeBool(!L.equals(R));

    // String concatenation: like the compound-assignment form, charge
    // the result size so `s = s + s` in a loop hits the memory budget
    // instead of doubling until the process OOMs.
    if (E->op() == BinaryOp::Add && L.isString() && R.isString()) {
      if (!chargeMemory(32 + L.asString().size() + R.asString().size()))
        return Value::undef();
      return Value::makeString(L.asString() + R.asString());
    }

    // Everything else is int × int.
    int64_t LI = 0, RI = 0;
    if (!wantInt(L, LI, "arithmetic operand") ||
        !wantInt(R, RI, "arithmetic operand"))
      return Value::undef();

    switch (E->op()) {
    case BinaryOp::Add:
      return Value::makeInt(wrapAdd(LI, RI));
    case BinaryOp::Sub:
      return Value::makeInt(wrapSub(LI, RI));
    case BinaryOp::Mul:
      return Value::makeInt(wrapMul(LI, RI));
    case BinaryOp::Div:
      if (RI == 0) {
        fail("division by zero");
        return Value::undef();
      }
      return Value::makeInt(wrapDiv(LI, RI));
    case BinaryOp::Mod:
      if (RI == 0) {
        fail("modulo by zero");
        return Value::undef();
      }
      return Value::makeInt(wrapMod(LI, RI));
    case BinaryOp::Lt:
      return Value::makeBool(LI < RI);
    case BinaryOp::Le:
      return Value::makeBool(LI <= RI);
    case BinaryOp::Gt:
      return Value::makeBool(LI > RI);
    case BinaryOp::Ge:
      return Value::makeBool(LI >= RI);
    case BinaryOp::Eq:
    case BinaryOp::Ne:
    case BinaryOp::And:
    case BinaryOp::Or:
      LIGER_UNREACHABLE("handled above");
    }
    LIGER_UNREACHABLE("covered switch");
  }

  Value evalCall(const CallExpr *E) {
    std::vector<Value> Args;
    Args.reserve(E->args().size());
    for (const Expr *Arg : E->args()) {
      Args.push_back(evalExpr(Arg));
      if (stopped())
        return Value::undef();
    }

    // Builtin arity and operand kinds are re-validated here: hostile
    // ASTs reach evalCall without a type check, so Args[N] accesses
    // must be guarded.
    const std::string &Callee = E->callee();
    auto wantArity = [&](size_t N) {
      if (Args.size() == N)
        return true;
      fail("'" + Callee + "' expects " + std::to_string(N) + " argument(s)");
      return false;
    };
    if (Callee == "len") {
      if (!wantArity(1))
        return Value::undef();
      const Value &V = Args[0];
      if (V.isArray())
        return Value::makeInt(static_cast<int64_t>(V.elements().size()));
      if (V.isString())
        return Value::makeInt(static_cast<int64_t>(V.asString().size()));
      fail("'len' applied to a scalar");
      return Value::undef();
    }
    if (Callee == "substring") {
      if (!wantArity(3))
        return Value::undef();
      if (!Args[0].isString()) {
        fail("'substring' applied to a non-string");
        return Value::undef();
      }
      const std::string &S = Args[0].asString();
      int64_t Start = 0, Count = 0;
      if (!wantInt(Args[1], Start, "substring start") ||
          !wantInt(Args[2], Count, "substring count"))
        return Value::undef();
      if (Start < 0 || Count < 0 ||
          static_cast<size_t>(Start) + static_cast<size_t>(Count) > S.size()) {
        fail("substring(" + std::to_string(Start) + ", " +
             std::to_string(Count) + ") out of range for length " +
             std::to_string(S.size()));
        return Value::undef();
      }
      if (!chargeMemory(32 + static_cast<uint64_t>(Count)))
        return Value::undef();
      return Value::makeString(S.substr(static_cast<size_t>(Start),
                                        static_cast<size_t>(Count)));
    }
    if (Callee == "abs") {
      int64_t V = 0;
      if (!wantArity(1) || !wantInt(Args[0], V, "'abs' argument"))
        return Value::undef();
      return Value::makeInt(wrapAbs(V));
    }
    if (Callee == "min" || Callee == "max") {
      int64_t A = 0, B = 0;
      if (!wantArity(2) || !wantInt(Args[0], A, "'min'/'max' argument") ||
          !wantInt(Args[1], B, "'min'/'max' argument"))
        return Value::undef();
      return Value::makeInt(Callee == "min" ? std::min(A, B) : std::max(A, B));
    }

    // User function: an untraced activation sharing the budgets.
    const FunctionDecl *Fn = P.findFunction(Callee);
    if (!Fn) {
      fail("call to undeclared function '" + Callee + "'");
      return Value::undef();
    }
    if (CallDepth >= MaxCallDepth) {
      fail("call depth limit exceeded (possible unbounded recursion)");
      return Value::undef();
    }
    if (Args.size() != Fn->Params.size()) {
      fail("function '" + Callee + "' expects " +
           std::to_string(Fn->Params.size()) + " argument(s)");
      return Value::undef();
    }

    Value Result = callFunction(*Fn, std::move(Args));
    if (!Fn->ReturnType.isVoid() && Result.isUndef() && !stopped())
      fail("function '" + Callee + "' finished without returning a value");
    return Result;
  }

  const Program &P;
  const InterpOptions &Options;
  uint64_t FuelLeft;
  /// Fuel a run uses before its loops sample their state.
  const uint64_t ArmFuel;

  std::vector<Value> LastKnown; ///< Per tuple slot.
  ExecResult *Trace = nullptr;

  bool Failed = false;
  bool OutOfFuel = false;
  bool MemoryExceeded = false;
  uint64_t BytesCharged = 0;
  std::string ErrorMessage;

  static constexpr unsigned MaxCallDepth = 64;

  std::vector<uint64_t> Encoding; ///< encodeState()'s output.
  size_t LastEncodedWords = 0;     ///< Size of the latest encoding.
  /// First-visit numbers of the arrays and structs encodeState() met,
  /// keyed by their shared element storage.
  std::unordered_map<const std::vector<Value> *, uint64_t> HeapIds;
};

} // namespace

std::vector<std::string> liger::collectVariableTuple(const FunctionDecl &Fn) {
  std::vector<std::string> Names;
  auto Add = [&Names](const std::string &Name) {
    for (const std::string &Existing : Names)
      if (Existing == Name)
        return;
    Names.push_back(Name);
  };
  for (const TypedName &Param : Fn.Params)
    Add(Param.Name);

  // Walk statements collecting declarations in source order.
  std::function<void(const Stmt *)> Walk = [&](const Stmt *S) {
    if (!S)
      return;
    if (const auto *Decl = dyn_cast<DeclStmt>(S))
      Add(Decl->name());
    forEachChildStmt(S, Walk);
  };
  Walk(Fn.Body);
  return Names;
}

FrameLayout::FrameLayout(const Program &P, const FunctionDecl &Fn)
    : P(&P), Fn(&Fn), VarNames(collectVariableTuple(Fn)),
      NodeSlots(P.context().numNodes(), 0) {
  std::unordered_map<std::string, uint32_t> Index;
  auto Intern = [&](const std::string &Name) {
    auto [It, Inserted] = Index.emplace(Name, static_cast<uint32_t>(NumSlots));
    if (Inserted)
      ++NumSlots;
    return It->second;
  };
  // The tuple goes first, so tuple position I is slot I.
  for (const std::string &Name : VarNames)
    Intern(Name);
  auto Bind = [&](NodeId Id, const std::string &Name) {
    if (Id >= NodeSlots.size())
      NodeSlots.resize(Id + 1, 0);
    NodeSlots[Id] = Intern(Name);
  };

  std::function<void(const Expr *)> WalkExpr = [&](const Expr *E) {
    if (!E)
      return;
    if (const auto *Var = dyn_cast<VarExpr>(E))
      Bind(Var->id(), Var->name());
    E->forEachChild(WalkExpr);
  };
  std::function<void(const Stmt *)> WalkStmt = [&](const Stmt *S) {
    if (!S)
      return;
    switch (S->kind()) {
    case StmtKind::Decl: {
      const auto *Decl = cast<DeclStmt>(S);
      WalkExpr(Decl->init());
      Bind(Decl->id(), Decl->name());
      return;
    }
    case StmtKind::Assign:
      WalkExpr(cast<AssignStmt>(S)->target());
      WalkExpr(cast<AssignStmt>(S)->value());
      return;
    case StmtKind::If:
      WalkExpr(cast<IfStmt>(S)->cond());
      WalkStmt(cast<IfStmt>(S)->thenStmt());
      WalkStmt(cast<IfStmt>(S)->elseStmt());
      return;
    case StmtKind::While:
      WalkExpr(cast<WhileStmt>(S)->cond());
      WalkStmt(cast<WhileStmt>(S)->body());
      return;
    case StmtKind::For: {
      const auto *For = cast<ForStmt>(S);
      WalkStmt(For->init());
      WalkExpr(For->cond());
      WalkStmt(For->step());
      WalkStmt(For->body());
      return;
    }
    case StmtKind::Return:
      WalkExpr(cast<ReturnStmt>(S)->value());
      return;
    case StmtKind::Block:
      for (const Stmt *Child : cast<BlockStmt>(S)->body())
        WalkStmt(Child);
      return;
    case StmtKind::Expr:
      WalkExpr(cast<ExprStmt>(S)->expr());
      return;
    case StmtKind::Break:
    case StmtKind::Continue:
      return;
    }
  };
  ParamSlots.reserve(P.Functions.size());
  for (const FunctionDecl &F : P.Functions) {
    std::vector<uint32_t> Params;
    Params.reserve(F.Params.size());
    for (const TypedName &Param : F.Params)
      Params.push_back(Intern(Param.Name));
    WalkStmt(F.Body);
    ParamSlots.push_back(std::move(Params));
  }
  paramSlots(Fn); // checks that Fn belongs to P
}

const std::vector<uint32_t> &
FrameLayout::paramSlots(const FunctionDecl &F) const {
  size_t Index = static_cast<size_t>(&F - P->Functions.data());
  LIGER_CHECK(Index < ParamSlots.size(), "function is not in the program");
  return ParamSlots[Index];
}

ExecResult liger::execute(const FrameLayout &Layout,
                          const std::vector<Value> &Args,
                          const InterpOptions &Options) {
  Engine E(Layout, Options);
  return E.run(Args);
}

ExecResult liger::execute(const Program &P, const FunctionDecl &Fn,
                          const std::vector<Value> &Args,
                          const InterpOptions &Options) {
  return execute(FrameLayout(P, Fn), Args, Options);
}
