//===-- symx/SymExec.cpp - Bounded symbolic executor ----------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "symx/SymExec.h"

#include "interp/StmtWalk.h"
#include "support/Error.h"

#include <set>

using namespace liger;

std::string SymbolicPath::conditionStr() const {
  std::string Out;
  for (size_t I = 0; I < PathCondition.size(); ++I) {
    if (I)
      Out += " && ";
    Out += PathCondition[I]->str();
  }
  return Out.empty() ? "true" : Out;
}

namespace {

//===----------------------------------------------------------------------===//
// Symbolic runtime values
//===----------------------------------------------------------------------===//

/// A value during symbolic execution. Ints and bools are symbolic
/// expressions (constants when concrete); strings are always concrete;
/// arrays and structs are reference types exactly as in the concrete
/// interpreter (shared storage, aliasing).
struct SValue {
  enum class K { Undef, Int, Bool, Str, Array, Struct };

  K Kind = K::Undef;
  SymExprPtr E;                                ///< Int / Bool
  std::string S;                               ///< Str
  std::shared_ptr<std::vector<SValue>> Elems;  ///< Array / Struct
  const StructDecl *Decl = nullptr;            ///< Struct

  static SValue undef() { return SValue(); }
  static SValue intExpr(SymExprPtr E) {
    SValue V;
    V.Kind = K::Int;
    V.E = std::move(E);
    return V;
  }
  static SValue boolExpr(SymExprPtr E) {
    SValue V;
    V.Kind = K::Bool;
    V.E = std::move(E);
    return V;
  }
  static SValue str(std::string S) {
    SValue V;
    V.Kind = K::Str;
    V.S = std::move(S);
    return V;
  }
  static SValue array(std::vector<SValue> Elements) {
    SValue V;
    V.Kind = K::Array;
    V.Elems = std::make_shared<std::vector<SValue>>(std::move(Elements));
    return V;
  }
  static SValue structV(const StructDecl *Decl,
                        std::vector<SValue> Fields) {
    SValue V;
    V.Kind = K::Struct;
    V.Decl = Decl;
    V.Elems = std::make_shared<std::vector<SValue>>(std::move(Fields));
    return V;
  }

  bool isInt() const { return Kind == K::Int; }
  bool isBool() const { return Kind == K::Bool; }
  bool isStr() const { return Kind == K::Str; }
  bool isArray() const { return Kind == K::Array; }
  bool isStruct() const { return Kind == K::Struct; }
  bool isConcreteInt() const { return isInt() && E->isIntConst(); }
  bool isConcreteBool() const { return isBool() && E->isBoolConst(); }
};

/// Describes where one symbolic scalar slot lives in the input tuple.
struct SlotInfo {
  unsigned Param = 0;
  int Elem = -1;  ///< Array element or struct field index; -1 for scalar.
  bool IsBool = false;
};

/// One concrete input "shape": array lengths and string choices.
struct Shape {
  std::vector<size_t> ArrayLen;   ///< Per-parameter (0 when not array).
  std::vector<size_t> StringIdx;  ///< Per-parameter candidate index.
};

//===----------------------------------------------------------------------===//
// The engine
//===----------------------------------------------------------------------===//

/// One input shape's engine. Each run walks the traced function through
/// the executor core the interpreter runs (interp/StmtWalk.h), so a
/// completed run records the steps the interpreter records on its
/// witness.
class SymEngine : public StmtWalk<SymEngine, SValue> {
  using Walk = StmtWalk<SymEngine, SValue>;
  friend Walk;

public:
  enum class RunEnd { Completed, ChoicePending, Fault, Unsupported,
                      StepLimit, MemoryLimit };

  struct RunResult {
    RunEnd End = RunEnd::Fault;
    std::vector<uint8_t> FeasibleOutcomes; ///< When ChoicePending.
    SymbolicTrace Trace;                   ///< When Completed.
    std::vector<SymExprPtr> PathCondition; ///< When Completed.
  };

  SymEngine(const FrameLayout &Layout, const Shape &Sh,
            const SymxOptions &Options)
      : Walk(Layout), P(Layout.program()), Fn(Layout.function()), Sh(Sh),
        Options(Options) {}

  unsigned numIntSlots() const { return NumIntSlots; }
  unsigned numBoolSlots() const { return NumBoolSlots; }

  /// Executes once, following \p Forced decisions; see header comment.
  RunResult runOnce(const std::vector<uint8_t> &Forced) {
    this->Forced = &Forced;
    Cursor = 0;
    PC.clear();
    Trace.Steps.clear();
    StepsLeft = Options.MaxSteps;
    BytesCharged = 0;
    Status = RunEnd::Completed;
    Pending.clear();
    IntSlots.clear();
    BoolSlots.clear();
    NumIntSlots = NumBoolSlots = 0;

    std::vector<SValue> Params;
    for (unsigned I = 0; I < Fn.Params.size(); ++I)
      Params.push_back(makeParam(I));
    enterFunction(Fn, std::move(Params));
    finishFunction(Fn);
    LIGER_CHECK(FrameMarks.empty(), "unbalanced frames");

    RunResult Result;
    Result.End = Status;
    if (Status == RunEnd::Completed) {
      Result.Trace = std::move(Trace);
      Result.PathCondition = PC;
    } else if (Status == RunEnd::ChoicePending) {
      Result.FeasibleOutcomes = std::move(Pending);
    }
    return Result;
  }

  /// Builds the concrete witness input vector from a solver assignment.
  std::vector<Value> buildWitness(const Assignment &A) const {
    std::vector<Value> Inputs;
    for (unsigned I = 0; I < Fn.Params.size(); ++I)
      Inputs.push_back(buildWitnessParam(I, A));
    return Inputs;
  }

  const std::vector<SlotInfo> &intSlotInfos() const { return IntSlots; }

private:
  //===--------------------------------------------------------------------===//
  // Parameter construction
  //===--------------------------------------------------------------------===//

  SymExprPtr freshInt(unsigned Param, int Elem) {
    IntSlots.push_back({Param, Elem, false});
    return SymExpr::intVar(NumIntSlots++);
  }
  SymExprPtr freshBool(unsigned Param, int Elem) {
    BoolSlots.push_back({Param, Elem, true});
    return SymExpr::boolVar(NumBoolSlots++);
  }

  const std::string &stringCandidate(unsigned Param) const {
    const auto &Cands = Options.StringCandidates;
    LIGER_CHECK(!Cands.empty(), "need at least one string candidate");
    return Cands[Sh.StringIdx[Param] % Cands.size()];
  }

  SValue makeParam(unsigned I) {
    const Type &Ty = Fn.Params[I].Ty;
    switch (Ty.kind()) {
    case TypeKind::Int:
      return SValue::intExpr(freshInt(I, -1));
    case TypeKind::Bool:
      return SValue::boolExpr(freshBool(I, -1));
    case TypeKind::String:
      return SValue::str(stringCandidate(I));
    case TypeKind::Array: {
      size_t Len = Sh.ArrayLen[I];
      std::vector<SValue> Elements;
      Elements.reserve(Len);
      for (size_t E = 0; E < Len; ++E) {
        switch (Ty.elemKind()) {
        case TypeKind::Int:
          Elements.push_back(
              SValue::intExpr(freshInt(I, static_cast<int>(E))));
          break;
        case TypeKind::Bool:
          Elements.push_back(
              SValue::boolExpr(freshBool(I, static_cast<int>(E))));
          break;
        case TypeKind::String: {
          const auto &Cands = Options.StringCandidates;
          Elements.push_back(SValue::str(Cands[E % Cands.size()]));
          break;
        }
        default:
          LIGER_UNREACHABLE("arrays hold primitives");
        }
      }
      return SValue::array(std::move(Elements));
    }
    case TypeKind::Struct: {
      const StructDecl *Decl = P.findStruct(Ty.structName());
      LIGER_CHECK(Decl, "typed program has declared structs");
      std::vector<SValue> Fields;
      for (size_t F = 0; F < Decl->Fields.size(); ++F) {
        switch (Decl->Fields[F].Ty.kind()) {
        case TypeKind::Int:
          Fields.push_back(SValue::intExpr(freshInt(I, static_cast<int>(F))));
          break;
        case TypeKind::Bool:
          Fields.push_back(
              SValue::boolExpr(freshBool(I, static_cast<int>(F))));
          break;
        case TypeKind::String:
          Fields.push_back(SValue::str(stringCandidate(I)));
          break;
        default:
          LIGER_UNREACHABLE("struct fields are primitive");
        }
      }
      return SValue::structV(Decl, std::move(Fields));
    }
    case TypeKind::Void:
      LIGER_UNREACHABLE("void parameter");
    }
    LIGER_UNREACHABLE("covered switch");
  }

  Value buildWitnessParam(unsigned I, const Assignment &A) const {
    const Type &Ty = Fn.Params[I].Ty;
    // Find slot values by scanning the slot tables (small).
    auto IntAt = [&](int Elem) -> int64_t {
      for (size_t S = 0; S < IntSlots.size(); ++S)
        if (IntSlots[S].Param == I && IntSlots[S].Elem == Elem)
          return S < A.Ints.size() ? A.Ints[S] : 0;
      return 0;
    };
    auto BoolAt = [&](int Elem) -> bool {
      for (size_t S = 0; S < BoolSlots.size(); ++S)
        if (BoolSlots[S].Param == I && BoolSlots[S].Elem == Elem)
          return S < A.Bools.size() ? A.Bools[S] : false;
      return false;
    };
    switch (Ty.kind()) {
    case TypeKind::Int:
      return Value::makeInt(IntAt(-1));
    case TypeKind::Bool:
      return Value::makeBool(BoolAt(-1));
    case TypeKind::String:
      return Value::makeString(stringCandidate(I));
    case TypeKind::Array: {
      size_t Len = Sh.ArrayLen[I];
      std::vector<Value> Elements;
      for (size_t E = 0; E < Len; ++E) {
        switch (Ty.elemKind()) {
        case TypeKind::Int:
          Elements.push_back(Value::makeInt(IntAt(static_cast<int>(E))));
          break;
        case TypeKind::Bool:
          Elements.push_back(Value::makeBool(BoolAt(static_cast<int>(E))));
          break;
        case TypeKind::String: {
          const auto &Cands = Options.StringCandidates;
          Elements.push_back(Value::makeString(Cands[E % Cands.size()]));
          break;
        }
        default:
          LIGER_UNREACHABLE("arrays hold primitives");
        }
      }
      return Value::makeArray(std::move(Elements));
    }
    case TypeKind::Struct: {
      const StructDecl *Decl = P.findStruct(Ty.structName());
      std::vector<Value> Fields;
      for (size_t F = 0; F < Decl->Fields.size(); ++F) {
        switch (Decl->Fields[F].Ty.kind()) {
        case TypeKind::Int:
          Fields.push_back(Value::makeInt(IntAt(static_cast<int>(F))));
          break;
        case TypeKind::Bool:
          Fields.push_back(Value::makeBool(BoolAt(static_cast<int>(F))));
          break;
        case TypeKind::String:
          Fields.push_back(Value::makeString(stringCandidate(I)));
          break;
        default:
          LIGER_UNREACHABLE("struct fields are primitive");
        }
      }
      return Value::makeStruct(Decl, std::move(Fields));
    }
    case TypeKind::Void:
      LIGER_UNREACHABLE("void parameter");
    }
    LIGER_UNREACHABLE("covered switch");
  }

  //===--------------------------------------------------------------------===//
  // Decisions
  //===--------------------------------------------------------------------===//

  bool stopped() const { return Status != RunEnd::Completed; }
  void stop(RunEnd Why) {
    if (!stopped())
      Status = Why;
  }

  /// Resolves a choice point with the given alternative constraints
  /// (one per outcome; an alternative may be null meaning "no
  /// constraint"). Returns the chosen outcome, or nullopt when the run
  /// stops here (pending alternatives recorded for the driver).
  std::optional<uint8_t> choose(const std::vector<SymExprPtr> &Alts) {
    if (stopped())
      return std::nullopt;
    if (Cursor < Forced->size()) {
      uint8_t Outcome = (*Forced)[Cursor++];
      LIGER_CHECK(Outcome < Alts.size(), "forced outcome out of range");
      if (Alts[Outcome])
        PC.push_back(Alts[Outcome]);
      return Outcome;
    }
    // New frontier: determine which alternatives are feasible.
    for (uint8_t O = 0; O < Alts.size(); ++O) {
      if (Alts[O] && Alts[O]->isBoolConst() && !Alts[O]->boolValue())
        continue;
      std::vector<SymExprPtr> Check = PC;
      if (Alts[O])
        Check.push_back(Alts[O]);
      if (quickFeasible(Check, NumIntSlots, NumBoolSlots, Options.Solver))
        Pending.push_back(O);
    }
    stop(RunEnd::ChoicePending);
    return std::nullopt;
  }

  /// A condition's outcome, forking on a symbolic one.
  bool decide(const SValue &Cond, bool &Taken, const char *) {
    std::optional<bool> Decided = decideBool(Cond.E);
    if (Decided)
      Taken = *Decided;
    return Decided.has_value();
  }

  /// Resolves a symbolic boolean to a concrete outcome, forking.
  std::optional<bool> decideBool(const SymExprPtr &Cond) {
    if (Cond->isBoolConst())
      return Cond->boolValue();
    std::vector<SymExprPtr> Alts{
        SymExpr::unary(SymOp::Not, Cond), // outcome 0: false
        Cond,                             // outcome 1: true
    };
    std::optional<uint8_t> Choice = choose(Alts);
    if (!Choice)
      return std::nullopt;
    return *Choice == 1;
  }

  /// Resolves a symbolic integer index into [0, Size) by fan-out.
  std::optional<size_t> decideIndex(const SymExprPtr &Index, size_t Size) {
    if (Index->isIntConst()) {
      int64_t I = Index->intValue();
      if (I < 0 || static_cast<size_t>(I) >= Size) {
        stop(RunEnd::Fault);
        return std::nullopt;
      }
      return static_cast<size_t>(I);
    }
    size_t Arms = std::min<size_t>(Size, Options.MaxChoiceOutcomes);
    if (Arms == 0) {
      stop(RunEnd::Fault); // every index faults on an empty container
      return std::nullopt;
    }
    std::vector<SymExprPtr> Alts;
    for (size_t K = 0; K < Arms; ++K)
      Alts.push_back(SymExpr::binary(
          SymOp::EqInt, Index,
          SymExpr::intConst(static_cast<int64_t>(K))));
    std::optional<uint8_t> Choice = choose(Alts);
    if (!Choice)
      return std::nullopt;
    return static_cast<size_t>(*Choice);
  }

  //===--------------------------------------------------------------------===//
  // Budgets and steps
  //===--------------------------------------------------------------------===//

  void record(const Stmt *S, StepKind Kind) {
    Trace.Steps.push_back({S, Kind});
  }

  bool burn() {
    if (StepsLeft == 0) {
      stop(RunEnd::StepLimit);
      return false;
    }
    --StepsLeft;
    return true;
  }

  /// Charges concretely-allocated bytes (string concat, array element
  /// storage) against the per-run budget; false once blown.
  bool chargeBytes(uint64_t Bytes) {
    BytesCharged += Bytes;
    if (BytesCharged > Options.MaxConcreteBytes) {
      stop(RunEnd::MemoryLimit);
      return false;
    }
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Assignments and expressions
  //===--------------------------------------------------------------------===//

  bool zeroValue(const Type &Ty, const char *, SValue &Out) {
    Out = zeroOf(Ty);
    return true;
  }

  SValue zeroOf(const Type &Ty) {
    switch (Ty.kind()) {
    case TypeKind::Int:
      return SValue::intExpr(SymExpr::intConst(0));
    case TypeKind::Bool:
      return SValue::boolExpr(SymExpr::boolConst(false));
    case TypeKind::String:
      return SValue::str("");
    case TypeKind::Array:
      return SValue::array({});
    case TypeKind::Struct: {
      const StructDecl *Decl = P.findStruct(Ty.structName());
      LIGER_CHECK(Decl, "typed program has declared structs");
      std::vector<SValue> Fields;
      for (const TypedName &F : Decl->Fields)
        Fields.push_back(zeroOf(F.Ty));
      return SValue::structV(Decl, std::move(Fields));
    }
    case TypeKind::Void:
      return SValue::undef();
    }
    LIGER_UNREACHABLE("covered switch");
  }

  void execAssign(const AssignStmt *S) {
    SValue NewValue = evalExpr(S->value());
    if (stopped())
      return;

    SValue *Cell = nullptr;
    if (const auto *Var = dyn_cast<VarExpr>(S->target())) {
      Cell = lookup(Var);
      if (!Cell) {
        stop(RunEnd::Fault);
        return;
      }
    } else if (const auto *Index = dyn_cast<IndexExpr>(S->target())) {
      SValue Base = evalExpr(Index->base());
      SValue Idx = evalExpr(Index->index());
      if (stopped())
        return;
      if (!Base.isArray() || !Idx.isInt()) {
        stop(RunEnd::Fault);
        return;
      }
      std::optional<size_t> I = decideIndex(Idx.E, Base.Elems->size());
      if (!I)
        return;
      Cell = &(*Base.Elems)[*I];
    } else if (const auto *Field = dyn_cast<FieldExpr>(S->target())) {
      SValue Base = evalExpr(Field->base());
      if (stopped())
        return;
      if (!Base.isStruct()) {
        stop(RunEnd::Fault);
        return;
      }
      int FieldIdx = Base.Decl->fieldIndex(Field->field());
      if (FieldIdx < 0) {
        stop(RunEnd::Fault);
        return;
      }
      Cell = &(*Base.Elems)[static_cast<size_t>(FieldIdx)];
    } else {
      stop(RunEnd::Fault);
      return;
    }

    if (S->op() == AssignOp::Set) {
      *Cell = std::move(NewValue);
      return;
    }
    if (Cell->isStr() && NewValue.isStr() && S->op() == AssignOp::Add) {
      if (!chargeBytes(Cell->S.size() + NewValue.S.size()))
        return;
      Cell->S += NewValue.S;
      return;
    }
    if (!Cell->isInt() || !NewValue.isInt()) {
      stop(RunEnd::Fault);
      return;
    }
    SymExprPtr Result = applyIntOp(S->op(), Cell->E, NewValue.E);
    if (!Result)
      return;
    *Cell = SValue::intExpr(Result);
  }

  /// Integer op with fault handling for concrete zero divisors and an
  /// implicit `divisor != 0` path constraint for symbolic ones.
  SymExprPtr applyIntOp(AssignOp Op, SymExprPtr L, SymExprPtr R) {
    SymOp SOp = SymOp::Add;
    switch (Op) {
    case AssignOp::Add: SOp = SymOp::Add; break;
    case AssignOp::Sub: SOp = SymOp::Sub; break;
    case AssignOp::Mul: SOp = SymOp::Mul; break;
    case AssignOp::Div: SOp = SymOp::Div; break;
    case AssignOp::Mod: SOp = SymOp::Mod; break;
    case AssignOp::Set: LIGER_UNREACHABLE("Set is not an int op");
    }
    if (SOp == SymOp::Div || SOp == SymOp::Mod) {
      if (R->isIntConst() && R->intValue() == 0) {
        stop(RunEnd::Fault);
        return nullptr;
      }
      if (!R->isIntConst())
        PC.push_back(SymExpr::binary(SymOp::NeInt, R, SymExpr::intConst(0)));
    }
    return SymExpr::binary(SOp, std::move(L), std::move(R));
  }

  SValue evalExpr(const Expr *E) {
    if (stopped())
      return SValue::undef();
    switch (E->kind()) {
    case ExprKind::IntLit:
      return SValue::intExpr(SymExpr::intConst(cast<IntLitExpr>(E)->value()));
    case ExprKind::BoolLit:
      return SValue::boolExpr(
          SymExpr::boolConst(cast<BoolLitExpr>(E)->value()));
    case ExprKind::StringLit:
      return SValue::str(cast<StringLitExpr>(E)->value());
    case ExprKind::Var: {
      if (SValue *V = lookup(E))
        return *V;
      stop(RunEnd::Fault);
      return SValue::undef();
    }
    case ExprKind::ArrayLit: {
      std::vector<SValue> Elements;
      for (const Expr *Elem : cast<ArrayLitExpr>(E)->elements()) {
        Elements.push_back(evalExpr(Elem));
        if (stopped())
          return SValue::undef();
      }
      return SValue::array(std::move(Elements));
    }
    case ExprKind::NewArray: {
      const auto *New = cast<NewArrayExpr>(E);
      SValue Size = evalExpr(New->size());
      if (stopped())
        return SValue::undef();
      size_t Len;
      if (Size.E->isIntConst()) {
        int64_t N = Size.E->intValue();
        if (N < 0 || N > 4096) {
          stop(RunEnd::Fault);
          return SValue::undef();
        }
        Len = static_cast<size_t>(N);
      } else {
        // Fan out over small lengths: constraint n == k.
        std::optional<size_t> Decided =
            decideIndex(Size.E, Options.MaxChoiceOutcomes);
        if (!Decided)
          return SValue::undef();
        Len = *Decided;
      }
      if (!chargeBytes(16 * static_cast<uint64_t>(Len)))
        return SValue::undef();
      std::vector<SValue> Elements(Len, zeroOf(New->elemType()));
      return SValue::array(std::move(Elements));
    }
    case ExprKind::NewStruct: {
      const auto *New = cast<NewStructExpr>(E);
      const StructDecl *Decl = P.findStruct(New->structName());
      std::vector<SValue> Fields;
      for (const Expr *Arg : New->args()) {
        Fields.push_back(evalExpr(Arg));
        if (stopped())
          return SValue::undef();
      }
      return SValue::structV(Decl, std::move(Fields));
    }
    case ExprKind::Index: {
      const auto *Index = cast<IndexExpr>(E);
      SValue Base = evalExpr(Index->base());
      SValue Idx = evalExpr(Index->index());
      if (stopped())
        return SValue::undef();
      if (Base.isArray()) {
        std::optional<size_t> I = decideIndex(Idx.E, Base.Elems->size());
        if (!I)
          return SValue::undef();
        return (*Base.Elems)[*I];
      }
      if (Base.isStr()) {
        std::optional<size_t> I = decideIndex(Idx.E, Base.S.size());
        if (!I)
          return SValue::undef();
        return SValue::str(std::string(1, Base.S[*I]));
      }
      stop(RunEnd::Fault);
      return SValue::undef();
    }
    case ExprKind::Field: {
      const auto *Field = cast<FieldExpr>(E);
      SValue Base = evalExpr(Field->base());
      if (stopped())
        return SValue::undef();
      if (!Base.isStruct()) {
        stop(RunEnd::Fault);
        return SValue::undef();
      }
      int FieldIdx = Base.Decl->fieldIndex(Field->field());
      if (FieldIdx < 0) {
        stop(RunEnd::Fault);
        return SValue::undef();
      }
      return (*Base.Elems)[static_cast<size_t>(FieldIdx)];
    }
    case ExprKind::Unary: {
      const auto *Unary = cast<UnaryExpr>(E);
      SValue Operand = evalExpr(Unary->operand());
      if (stopped())
        return SValue::undef();
      if (Unary->op() == UnaryOp::Neg)
        return SValue::intExpr(SymExpr::unary(SymOp::Neg, Operand.E));
      return SValue::boolExpr(SymExpr::unary(SymOp::Not, Operand.E));
    }
    case ExprKind::Binary:
      return evalBinary(cast<BinaryExpr>(E));
    case ExprKind::Call:
      return evalCall(cast<CallExpr>(E));
    }
    LIGER_UNREACHABLE("covered switch");
  }

  SValue evalBinary(const BinaryExpr *E) {
    // Short-circuit: a symbolic left operand becomes a decision point,
    // matching concrete evaluation order (so an infeasible right-side
    // fault is never explored when the left side decides).
    if (E->op() == BinaryOp::And || E->op() == BinaryOp::Or) {
      SValue L = evalExpr(E->lhs());
      if (stopped())
        return SValue::undef();
      std::optional<bool> LV = decideBool(L.E);
      if (!LV)
        return SValue::undef();
      if (E->op() == BinaryOp::And && !*LV)
        return SValue::boolExpr(SymExpr::boolConst(false));
      if (E->op() == BinaryOp::Or && *LV)
        return SValue::boolExpr(SymExpr::boolConst(true));
      SValue R = evalExpr(E->rhs());
      if (stopped())
        return SValue::undef();
      return R;
    }

    SValue L = evalExpr(E->lhs());
    SValue R = evalExpr(E->rhs());
    if (stopped())
      return SValue::undef();

    switch (E->op()) {
    case BinaryOp::Add:
      if (L.isStr() && R.isStr()) {
        if (!chargeBytes(L.S.size() + R.S.size()))
          return SValue::undef();
        return SValue::str(L.S + R.S);
      }
      return SValue::intExpr(SymExpr::binary(SymOp::Add, L.E, R.E));
    case BinaryOp::Sub:
      return SValue::intExpr(SymExpr::binary(SymOp::Sub, L.E, R.E));
    case BinaryOp::Mul:
      return SValue::intExpr(SymExpr::binary(SymOp::Mul, L.E, R.E));
    case BinaryOp::Div:
    case BinaryOp::Mod: {
      SymExprPtr Result = applyIntOp(
          E->op() == BinaryOp::Div ? AssignOp::Div : AssignOp::Mod, L.E,
          R.E);
      if (!Result)
        return SValue::undef();
      return SValue::intExpr(Result);
    }
    case BinaryOp::Lt:
      return SValue::boolExpr(SymExpr::binary(SymOp::Lt, L.E, R.E));
    case BinaryOp::Le:
      return SValue::boolExpr(SymExpr::binary(SymOp::Le, L.E, R.E));
    case BinaryOp::Gt:
      return SValue::boolExpr(SymExpr::binary(SymOp::Gt, L.E, R.E));
    case BinaryOp::Ge:
      return SValue::boolExpr(SymExpr::binary(SymOp::Ge, L.E, R.E));
    case BinaryOp::Eq:
    case BinaryOp::Ne: {
      SymExprPtr Eq = buildEquality(L, R);
      if (!Eq)
        return SValue::undef();
      if (E->op() == BinaryOp::Ne)
        Eq = SymExpr::unary(SymOp::Not, Eq);
      return SValue::boolExpr(Eq);
    }
    case BinaryOp::And:
    case BinaryOp::Or:
      LIGER_UNREACHABLE("short-circuit ops handled above");
    }
    LIGER_UNREACHABLE("covered switch");
  }

  /// Structural equality as a symbolic boolean. Null on unsupported
  /// shapes (stops the run).
  SymExprPtr buildEquality(const SValue &L, const SValue &R) {
    if (L.isInt() && R.isInt())
      return SymExpr::binary(SymOp::EqInt, L.E, R.E);
    if (L.isBool() && R.isBool())
      return SymExpr::binary(SymOp::EqBool, L.E, R.E);
    if (L.isStr() && R.isStr())
      return SymExpr::boolConst(L.S == R.S);
    if (L.isArray() && R.isArray()) {
      if (L.Elems->size() != R.Elems->size())
        return SymExpr::boolConst(false);
      SymExprPtr All = SymExpr::boolConst(true);
      for (size_t I = 0; I < L.Elems->size(); ++I) {
        SymExprPtr ElemEq = buildEquality((*L.Elems)[I], (*R.Elems)[I]);
        if (!ElemEq)
          return nullptr;
        All = SymExpr::binary(SymOp::And, All, ElemEq);
      }
      return All;
    }
    stop(RunEnd::Unsupported);
    return nullptr;
  }

  SValue evalCall(const CallExpr *E) {
    std::vector<SValue> Args;
    Args.reserve(E->args().size());
    for (const Expr *Arg : E->args()) {
      Args.push_back(evalExpr(Arg));
      if (stopped())
        return SValue::undef();
    }

    const std::string &Callee = E->callee();
    if (Callee == "len") {
      if (Args[0].isArray())
        return SValue::intExpr(
            SymExpr::intConst(static_cast<int64_t>(Args[0].Elems->size())));
      if (Args[0].isStr())
        return SValue::intExpr(
            SymExpr::intConst(static_cast<int64_t>(Args[0].S.size())));
      stop(RunEnd::Fault);
      return SValue::undef();
    }
    if (Callee == "substring") {
      // Requires concrete offsets (loops over concrete strings produce
      // them); otherwise the path is unsupported.
      if (!Args[0].isStr() || !Args[1].E->isIntConst() ||
          !Args[2].E->isIntConst()) {
        stop(RunEnd::Unsupported);
        return SValue::undef();
      }
      int64_t Start = Args[1].E->intValue();
      int64_t Count = Args[2].E->intValue();
      const std::string &S = Args[0].S;
      if (Start < 0 || Count < 0 ||
          static_cast<size_t>(Start) + static_cast<size_t>(Count) >
              S.size()) {
        stop(RunEnd::Fault);
        return SValue::undef();
      }
      return SValue::str(S.substr(static_cast<size_t>(Start),
                                  static_cast<size_t>(Count)));
    }
    if (Callee == "abs")
      return SValue::intExpr(SymExpr::unary(SymOp::Abs, Args[0].E));
    if (Callee == "min")
      return SValue::intExpr(
          SymExpr::binary(SymOp::Min, Args[0].E, Args[1].E));
    if (Callee == "max")
      return SValue::intExpr(
          SymExpr::binary(SymOp::Max, Args[0].E, Args[1].E));

    const FunctionDecl *Target = P.findFunction(Callee);
    if (!Target) {
      stop(RunEnd::Fault);
      return SValue::undef();
    }
    if (CallDepth >= MaxCallDepth) {
      stop(RunEnd::Unsupported);
      return SValue::undef();
    }
    SValue Result = callFunction(*Target, std::move(Args));
    if (!Target->ReturnType.isVoid() && Result.Kind == SValue::K::Undef &&
        !stopped())
      stop(RunEnd::Fault);
    return Result;
  }

  const Program &P;
  const FunctionDecl &Fn;
  const Shape &Sh;
  const SymxOptions &Options;

  const std::vector<uint8_t> *Forced = nullptr;
  size_t Cursor = 0;
  std::vector<SymExprPtr> PC;
  SymbolicTrace Trace;
  size_t StepsLeft = 0;
  uint64_t BytesCharged = 0;
  RunEnd Status = RunEnd::Completed;
  std::vector<uint8_t> Pending;

  std::vector<SlotInfo> IntSlots;
  std::vector<SlotInfo> BoolSlots;
  unsigned NumIntSlots = 0;
  unsigned NumBoolSlots = 0;

  static constexpr unsigned MaxCallDepth = 16;
};

/// Enumerates input shapes: the cartesian product of array lengths and
/// string candidates per parameter, truncated to MaxShapes.
std::vector<Shape> enumerateShapes(const FunctionDecl &Fn,
                                   const SymxOptions &Options) {
  size_t NumParams = Fn.Params.size();
  std::vector<size_t> Radix(NumParams, 1);
  for (size_t I = 0; I < NumParams; ++I) {
    const Type &Ty = Fn.Params[I].Ty;
    if (Ty.isArray())
      Radix[I] = std::max<size_t>(1, Options.ArrayLengths.size());
    else if (Ty.isString())
      Radix[I] = std::max<size_t>(1, Options.StringCandidates.size());
  }
  std::vector<Shape> Shapes;
  std::vector<size_t> Digits(NumParams, 0);
  for (;;) {
    Shape Sh;
    Sh.ArrayLen.resize(NumParams, 0);
    Sh.StringIdx.resize(NumParams, 0);
    for (size_t I = 0; I < NumParams; ++I) {
      const Type &Ty = Fn.Params[I].Ty;
      if (Ty.isArray())
        Sh.ArrayLen[I] =
            Options.ArrayLengths.empty() ? 4 : Options.ArrayLengths[Digits[I]];
      else if (Ty.isString())
        Sh.StringIdx[I] = Digits[I];
    }
    Shapes.push_back(std::move(Sh));
    if (Shapes.size() >= Options.MaxShapes)
      return Shapes;
    // Increment mixed-radix counter.
    size_t I = 0;
    while (I < NumParams) {
      if (++Digits[I] < Radix[I])
        break;
      Digits[I] = 0;
      ++I;
    }
    if (I == NumParams)
      return Shapes;
  }
}

/// Recursive DFS over decision prefixes for one shape.
void explorePrefix(SymEngine &Engine, std::vector<uint8_t> &Prefix,
                   const SymxOptions &Options,
                   std::set<std::string> &SeenKeys, size_t &RunsLeft,
                   std::vector<SymbolicPath> &Out) {
  if (Out.size() >= Options.MaxPaths || RunsLeft == 0)
    return;
  --RunsLeft;
  SymEngine::RunResult Result = Engine.runOnce(Prefix);
  switch (Result.End) {
  case SymEngine::RunEnd::Completed: {
    std::string Key = Result.Trace.pathKey();
    if (SeenKeys.count(Key))
      return;
    std::optional<Assignment> Witness =
        solveConstraints(Result.PathCondition, Engine.numIntSlots(),
                         Engine.numBoolSlots(), Options.Solver);
    if (!Witness)
      return; // no witness within budget: treat as infeasible
    SeenKeys.insert(std::move(Key));
    SymbolicPath Path;
    Path.Trace = std::move(Result.Trace);
    Path.PathCondition = std::move(Result.PathCondition);
    Path.WitnessInputs = Engine.buildWitness(*Witness);
    Out.push_back(std::move(Path));
    return;
  }
  case SymEngine::RunEnd::ChoicePending:
    for (uint8_t Outcome : Result.FeasibleOutcomes) {
      if (Out.size() >= Options.MaxPaths || RunsLeft == 0)
        return;
      Prefix.push_back(Outcome);
      explorePrefix(Engine, Prefix, Options, SeenKeys, RunsLeft, Out);
      Prefix.pop_back();
    }
    return;
  case SymEngine::RunEnd::Fault:
  case SymEngine::RunEnd::Unsupported:
  case SymEngine::RunEnd::StepLimit:
  case SymEngine::RunEnd::MemoryLimit:
    return; // dropped
  }
}

} // namespace

std::vector<SymbolicPath> liger::enumeratePaths(const Program &P,
                                                const FunctionDecl &Fn,
                                                const SymxOptions &Options) {
  std::vector<SymbolicPath> Paths;
  std::set<std::string> SeenKeys;
  size_t RunsLeft = Options.MaxRuns;
  FrameLayout Layout(P, Fn);
  for (const Shape &Sh : enumerateShapes(Fn, Options)) {
    if (Paths.size() >= Options.MaxPaths || RunsLeft == 0)
      break;
    SymEngine Engine(Layout, Sh, Options);
    std::vector<uint8_t> Prefix;
    explorePrefix(Engine, Prefix, Options, SeenKeys, RunsLeft, Paths);
  }
  return Paths;
}
