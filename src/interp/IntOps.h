//===-- interp/IntOps.h - MiniLang integer arithmetic -----------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MiniLang `int` is Java's `long`: 64-bit two's complement that wraps
/// on overflow. INT64_MIN / -1 is INT64_MIN, INT64_MIN % -1 is 0, and
/// -INT64_MIN and abs(INT64_MIN) are INT64_MIN. The concrete interpreter
/// and the symbolic executor (evaluation and constant folding) both
/// compute through these helpers, so a symbolic witness replays onto
/// the path it was solved for even at the extremes.
///
/// Division and modulo by zero are not defined here: callers report
/// them (a RuntimeError in the interpreter, an unsatisfiable
/// assignment in symx).
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_INTERP_INTOPS_H
#define LIGER_INTERP_INTOPS_H

#include <cstdint>

namespace liger {

inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}

inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}

inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

inline int64_t wrapNeg(int64_t A) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
}

inline int64_t wrapAbs(int64_t A) { return A < 0 ? wrapNeg(A) : A; }

/// Truncating division; \p B must be nonzero.
inline int64_t wrapDiv(int64_t A, int64_t B) {
  return B == -1 ? wrapNeg(A) : A / B;
}

/// Remainder with the sign of \p A; \p B must be nonzero.
inline int64_t wrapMod(int64_t A, int64_t B) { return B == -1 ? 0 : A % B; }

} // namespace liger

#endif // LIGER_INTERP_INTOPS_H
