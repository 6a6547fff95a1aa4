//===-- symx/SymExpr.h - Symbolic expressions -------------------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immutable symbolic expression DAG over 64-bit integers and booleans,
/// used by the bounded symbolic executor (§5.1.1's "we symbolically
/// execute P to obtain U distinct paths, where each path σ_i is
/// associated with a condition φ_i"). Construction constant-folds
/// eagerly, so purely concrete computation stays concrete.
///
/// Strings are kept concrete in the executor; only ints and bools are
/// symbolic. That restriction is what makes the enumerative solver in
/// Solver.h adequate (documented in DESIGN.md).
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_SYMX_SYMEXPR_H
#define LIGER_SYMX_SYMEXPR_H

#include "support/Error.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace liger {

enum class SymOp {
  // Leaves.
  IntConst,
  BoolConst,
  IntVar,  ///< A symbolic integer input slot.
  BoolVar, ///< A symbolic boolean input slot.
  // Integer arithmetic.
  Neg, Add, Sub, Mul, Div, Mod, Abs, Min, Max,
  // Comparisons (int × int → bool).
  Lt, Le, Gt, Ge, EqInt, NeInt,
  // Boolean connectives.
  Not, And, Or, EqBool, NeBool,
};

class SymExpr;
using SymExprPtr = std::shared_ptr<const SymExpr>;

/// Values of already-evaluated deep nodes under one assignment (bools
/// as 0/1). An unrolled loop makes the path condition a DAG: iteration
/// k's value is a node over iteration k-1's, so evaluating all k
/// constraints node by node costs O(k^2) without one. Valid for a
/// single assignment; clear it when the assignment changes.
using SymEvalMemo = std::unordered_map<const SymExpr *, std::optional<int64_t>>;

/// A node of the symbolic expression DAG. Create through the factory
/// functions below (they constant-fold).
class SymExpr {
public:
  SymOp op() const { return Op; }
  int64_t intValue() const {
    LIGER_CHECK(Op == SymOp::IntConst, "intValue on non-constant");
    return IntVal;
  }
  bool boolValue() const {
    LIGER_CHECK(Op == SymOp::BoolConst, "boolValue on non-constant");
    return IntVal != 0;
  }
  const std::vector<SymExprPtr> &operands() const { return Operands; }

  bool isIntConst() const { return Op == SymOp::IntConst; }
  bool isBoolConst() const { return Op == SymOp::BoolConst; }
  bool isConst() const { return isIntConst() || isBoolConst(); }
  /// True for expressions whose result is boolean.
  bool isBoolTyped() const;

  /// Evaluates under \p IntAssign / \p BoolAssign (indexed by slot).
  /// Returns nullopt on arithmetic faults (division by zero), which the
  /// solver treats as "constraint not satisfied". A non-null \p Memo
  /// caches the values of nodes at least MemoMinDepth deep; shallower
  /// ones are cheaper to re-evaluate than to look up.
  std::optional<int64_t> evalInt(const std::vector<int64_t> &IntAssign,
                                 const std::vector<bool> &BoolAssign,
                                 SymEvalMemo *Memo = nullptr) const {
    if (Memo && Depth >= MemoMinDepth)
      return evalIntMemo(IntAssign, BoolAssign, *Memo);
    return computeInt(IntAssign, BoolAssign, Memo);
  }
  std::optional<bool> evalBool(const std::vector<int64_t> &IntAssign,
                               const std::vector<bool> &BoolAssign,
                               SymEvalMemo *Memo = nullptr) const {
    if (Memo && Depth >= MemoMinDepth)
      return evalBoolMemo(IntAssign, BoolAssign, *Memo);
    return computeBool(IntAssign, BoolAssign, Memo);
  }

  /// Collects the distinct variable slots appearing in the expression.
  void collectSlots(std::vector<unsigned> &IntSlots,
                    std::vector<unsigned> &BoolSlots) const;

  /// Human-readable rendering, e.g. "(x0 + 1) < x1".
  std::string str() const;

  // Factories (all constant-fold where possible).
  static SymExprPtr intConst(int64_t V);
  static SymExprPtr boolConst(bool V);
  static SymExprPtr intVar(unsigned Slot);
  static SymExprPtr boolVar(unsigned Slot);
  static SymExprPtr unary(SymOp Op, SymExprPtr A);
  static SymExprPtr binary(SymOp Op, SymExprPtr A, SymExprPtr B);

  static constexpr unsigned MemoMinDepth = 8;

protected:
  SymExpr(SymOp Op, int64_t IntVal, unsigned Slot,
          std::vector<SymExprPtr> Operands)
      : Op(Op), IntVal(IntVal), Slot(Slot), Operands(std::move(Operands)) {
    for (const SymExprPtr &Operand : this->Operands)
      Depth = std::max(Depth, Operand->Depth + 1);
  }

private:
  std::optional<int64_t> evalIntMemo(const std::vector<int64_t> &IntAssign,
                                     const std::vector<bool> &BoolAssign,
                                     SymEvalMemo &Memo) const;
  std::optional<bool> evalBoolMemo(const std::vector<int64_t> &IntAssign,
                                   const std::vector<bool> &BoolAssign,
                                   SymEvalMemo &Memo) const;
  std::optional<int64_t> computeInt(const std::vector<int64_t> &IntAssign,
                                    const std::vector<bool> &BoolAssign,
                                    SymEvalMemo *Memo) const;
  std::optional<bool> computeBool(const std::vector<int64_t> &IntAssign,
                                  const std::vector<bool> &BoolAssign,
                                  SymEvalMemo *Memo) const;

  SymOp Op;
  int64_t IntVal = 0;
  unsigned Slot = 0;
  std::vector<SymExprPtr> Operands;
  unsigned Depth = 1; ///< Longest path to a leaf, in nodes.
};

} // namespace liger

#endif // LIGER_SYMX_SYMEXPR_H
