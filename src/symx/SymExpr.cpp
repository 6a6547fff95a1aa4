//===-- symx/SymExpr.cpp - Symbolic expressions ---------------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "symx/SymExpr.h"

#include "interp/IntOps.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace liger;

bool SymExpr::isBoolTyped() const {
  switch (Op) {
  case SymOp::BoolConst:
  case SymOp::BoolVar:
  case SymOp::Lt:
  case SymOp::Le:
  case SymOp::Gt:
  case SymOp::Ge:
  case SymOp::EqInt:
  case SymOp::NeInt:
  case SymOp::Not:
  case SymOp::And:
  case SymOp::Or:
  case SymOp::EqBool:
  case SymOp::NeBool:
    return true;
  default:
    return false;
  }
}

std::optional<int64_t>
SymExpr::evalIntMemo(const std::vector<int64_t> &IntAssign,
                     const std::vector<bool> &BoolAssign,
                     SymEvalMemo &Memo) const {
  auto It = Memo.find(this);
  if (It != Memo.end())
    return It->second;
  std::optional<int64_t> V = computeInt(IntAssign, BoolAssign, &Memo);
  Memo.emplace(this, V);
  return V;
}

std::optional<bool>
SymExpr::evalBoolMemo(const std::vector<int64_t> &IntAssign,
                      const std::vector<bool> &BoolAssign,
                      SymEvalMemo &Memo) const {
  auto It = Memo.find(this);
  if (It != Memo.end())
    return It->second ? std::optional<bool>(*It->second != 0) : std::nullopt;
  std::optional<bool> V = computeBool(IntAssign, BoolAssign, &Memo);
  Memo.emplace(this, V ? std::optional<int64_t>(*V ? 1 : 0) : std::nullopt);
  return V;
}

std::optional<int64_t>
SymExpr::computeInt(const std::vector<int64_t> &IntAssign,
                    const std::vector<bool> &BoolAssign,
                    SymEvalMemo *Memo) const {
  switch (Op) {
  case SymOp::IntConst:
    return IntVal;
  case SymOp::IntVar:
    LIGER_CHECK(Slot < IntAssign.size(), "int slot out of range");
    return IntAssign[Slot];
  case SymOp::Neg: {
    auto A = Operands[0]->evalInt(IntAssign, BoolAssign, Memo);
    if (!A)
      return std::nullopt;
    return wrapNeg(*A);
  }
  case SymOp::Abs: {
    auto A = Operands[0]->evalInt(IntAssign, BoolAssign, Memo);
    if (!A)
      return std::nullopt;
    return wrapAbs(*A);
  }
  case SymOp::Add:
  case SymOp::Sub:
  case SymOp::Mul:
  case SymOp::Div:
  case SymOp::Mod:
  case SymOp::Min:
  case SymOp::Max: {
    auto A = Operands[0]->evalInt(IntAssign, BoolAssign, Memo);
    auto B = Operands[1]->evalInt(IntAssign, BoolAssign, Memo);
    if (!A || !B)
      return std::nullopt;
    switch (Op) {
    case SymOp::Add: return wrapAdd(*A, *B);
    case SymOp::Sub: return wrapSub(*A, *B);
    case SymOp::Mul: return wrapMul(*A, *B);
    case SymOp::Div:
      if (*B == 0)
        return std::nullopt;
      return wrapDiv(*A, *B);
    case SymOp::Mod:
      if (*B == 0)
        return std::nullopt;
      return wrapMod(*A, *B);
    case SymOp::Min: return std::min(*A, *B);
    case SymOp::Max: return std::max(*A, *B);
    default: LIGER_UNREACHABLE("handled above");
    }
  }
  default:
    LIGER_UNREACHABLE("evalInt on a boolean-typed expression");
  }
}

std::optional<bool>
SymExpr::computeBool(const std::vector<int64_t> &IntAssign,
                     const std::vector<bool> &BoolAssign,
                     SymEvalMemo *Memo) const {
  switch (Op) {
  case SymOp::BoolConst:
    return IntVal != 0;
  case SymOp::BoolVar:
    LIGER_CHECK(Slot < BoolAssign.size(), "bool slot out of range");
    return BoolAssign[Slot];
  case SymOp::Not: {
    auto A = Operands[0]->evalBool(IntAssign, BoolAssign, Memo);
    if (!A)
      return std::nullopt;
    return !*A;
  }
  case SymOp::And:
  case SymOp::Or:
  case SymOp::EqBool:
  case SymOp::NeBool: {
    auto A = Operands[0]->evalBool(IntAssign, BoolAssign, Memo);
    if (!A)
      return std::nullopt;
    // Short-circuit semantics must match the interpreter: the right
    // operand's faults are irrelevant when the left decides.
    if (Op == SymOp::And && !*A)
      return false;
    if (Op == SymOp::Or && *A)
      return true;
    auto B = Operands[1]->evalBool(IntAssign, BoolAssign, Memo);
    if (!B)
      return std::nullopt;
    switch (Op) {
    case SymOp::And: return *A && *B;
    case SymOp::Or: return *A || *B;
    case SymOp::EqBool: return *A == *B;
    case SymOp::NeBool: return *A != *B;
    default: LIGER_UNREACHABLE("handled above");
    }
  }
  case SymOp::Lt:
  case SymOp::Le:
  case SymOp::Gt:
  case SymOp::Ge:
  case SymOp::EqInt:
  case SymOp::NeInt: {
    auto A = Operands[0]->evalInt(IntAssign, BoolAssign, Memo);
    auto B = Operands[1]->evalInt(IntAssign, BoolAssign, Memo);
    if (!A || !B)
      return std::nullopt;
    switch (Op) {
    case SymOp::Lt: return *A < *B;
    case SymOp::Le: return *A <= *B;
    case SymOp::Gt: return *A > *B;
    case SymOp::Ge: return *A >= *B;
    case SymOp::EqInt: return *A == *B;
    case SymOp::NeInt: return *A != *B;
    default: LIGER_UNREACHABLE("handled above");
    }
  }
  default:
    LIGER_UNREACHABLE("evalBool on an integer-typed expression");
  }
}

void SymExpr::collectSlots(std::vector<unsigned> &IntSlots,
                           std::vector<unsigned> &BoolSlots) const {
  if (Op == SymOp::IntVar) {
    if (std::find(IntSlots.begin(), IntSlots.end(), Slot) == IntSlots.end())
      IntSlots.push_back(Slot);
    return;
  }
  if (Op == SymOp::BoolVar) {
    if (std::find(BoolSlots.begin(), BoolSlots.end(), Slot) ==
        BoolSlots.end())
      BoolSlots.push_back(Slot);
    return;
  }
  for (const SymExprPtr &Operand : Operands)
    Operand->collectSlots(IntSlots, BoolSlots);
}

std::string SymExpr::str() const {
  auto Bin = [&](const char *Sym) {
    return strCat("(", Operands[0]->str(), " ", Sym, " ", Operands[1]->str(),
                  ")");
  };
  switch (Op) {
  case SymOp::IntConst: return std::to_string(IntVal);
  case SymOp::BoolConst: return IntVal ? "true" : "false";
  case SymOp::IntVar: return strCat("x", std::to_string(Slot));
  case SymOp::BoolVar: return strCat("b", std::to_string(Slot));
  case SymOp::Neg: return strCat("-", Operands[0]->str());
  case SymOp::Abs: return strCat("abs(", Operands[0]->str(), ")");
  case SymOp::Min:
    return strCat("min(", Operands[0]->str(), ", ", Operands[1]->str(), ")");
  case SymOp::Max:
    return strCat("max(", Operands[0]->str(), ", ", Operands[1]->str(), ")");
  case SymOp::Add: return Bin("+");
  case SymOp::Sub: return Bin("-");
  case SymOp::Mul: return Bin("*");
  case SymOp::Div: return Bin("/");
  case SymOp::Mod: return Bin("%");
  case SymOp::Lt: return Bin("<");
  case SymOp::Le: return Bin("<=");
  case SymOp::Gt: return Bin(">");
  case SymOp::Ge: return Bin(">=");
  case SymOp::EqInt:
  case SymOp::EqBool: return Bin("==");
  case SymOp::NeInt:
  case SymOp::NeBool: return Bin("!=");
  case SymOp::Not: return strCat("!", Operands[0]->str());
  case SymOp::And: return Bin("&&");
  case SymOp::Or: return Bin("||");
  }
  LIGER_UNREACHABLE("covered switch");
}

//===----------------------------------------------------------------------===//
// Factories with constant folding
//===----------------------------------------------------------------------===//

namespace {
SymExprPtr make(SymOp Op, int64_t IntVal, unsigned Slot,
                std::vector<SymExprPtr> Operands) {
  struct Access : SymExpr {
    Access(SymOp Op, int64_t IntVal, unsigned Slot,
           std::vector<SymExprPtr> Operands)
        : SymExpr(Op, IntVal, Slot, std::move(Operands)) {}
  };
  return std::make_shared<Access>(Op, IntVal, Slot, std::move(Operands));
}
} // namespace

SymExprPtr SymExpr::intConst(int64_t V) {
  return make(SymOp::IntConst, V, 0, {});
}

SymExprPtr SymExpr::boolConst(bool V) {
  return make(SymOp::BoolConst, V ? 1 : 0, 0, {});
}

SymExprPtr SymExpr::intVar(unsigned Slot) {
  return make(SymOp::IntVar, 0, Slot, {});
}

SymExprPtr SymExpr::boolVar(unsigned Slot) {
  return make(SymOp::BoolVar, 0, Slot, {});
}

SymExprPtr SymExpr::unary(SymOp Op, SymExprPtr A) {
  LIGER_CHECK(Op == SymOp::Neg || Op == SymOp::Abs || Op == SymOp::Not,
              "not a unary op");
  if (A->isConst()) {
    switch (Op) {
    case SymOp::Neg: return intConst(wrapNeg(A->intValue()));
    case SymOp::Abs: return intConst(wrapAbs(A->intValue()));
    case SymOp::Not: return boolConst(!A->boolValue());
    default: break;
    }
  }
  return make(Op, 0, 0, {std::move(A)});
}

SymExprPtr SymExpr::binary(SymOp Op, SymExprPtr A, SymExprPtr B) {
  if (A->isConst() && B->isConst()) {
    std::vector<int64_t> NoInts;
    std::vector<bool> NoBools;
    SymExprPtr Folded = make(Op, 0, 0, {A, B});
    if (Folded->isBoolTyped()) {
      if (auto V = Folded->evalBool(NoInts, NoBools))
        return boolConst(*V);
    } else {
      if (auto V = Folded->evalInt(NoInts, NoBools))
        return intConst(*V);
    }
    return Folded; // e.g. constant division by zero: keep symbolic form
  }
  // Light algebraic identities keep path conditions small.
  if (Op == SymOp::And) {
    if (A->isBoolConst())
      return A->boolValue() ? B : A;
    if (B->isBoolConst())
      return B->boolValue() ? A : B;
  }
  if (Op == SymOp::Or) {
    if (A->isBoolConst())
      return A->boolValue() ? A : B;
    if (B->isBoolConst())
      return B->boolValue() ? B : A;
  }
  if (Op == SymOp::Add && A->isIntConst() && A->intValue() == 0)
    return B;
  if (Op == SymOp::Add && B->isIntConst() && B->intValue() == 0)
    return A;
  if (Op == SymOp::Sub && B->isIntConst() && B->intValue() == 0)
    return A;
  if (Op == SymOp::Mul && A->isIntConst() && A->intValue() == 1)
    return B;
  if (Op == SymOp::Mul && B->isIntConst() && B->intValue() == 1)
    return A;
  return make(Op, 0, 0, {std::move(A), std::move(B)});
}
