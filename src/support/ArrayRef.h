//===-- support/ArrayRef.h - Non-owning view of an array --------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ArrayRef<T>: a read-only view of a contiguous run of Ts — the
/// elements of a std::vector, or one element — passed by value. The
/// lane-batched graph ops take their per-lane operands this way, so a
/// one-lane call hands over its single operand without building a
/// vector. A view owns nothing: use it for function parameters, not
/// for storage (the element it was built from may be a temporary that
/// dies at the end of the call's full expression). std::span would do,
/// but headers under src/ stay C++17.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_SUPPORT_ARRAYREF_H
#define LIGER_SUPPORT_ARRAYREF_H

#include <cstddef>
#include <vector>

namespace liger {

template <typename T> class ArrayRef {
public:
  /// The elements of \p Vec.
  ArrayRef(const std::vector<T> &Vec) : Data(Vec.data()), Count(Vec.size()) {}
  /// The single element \p One.
  ArrayRef(const T &One) : Data(&One), Count(1) {}

  size_t size() const { return Count; }
  const T &operator[](size_t I) const { return Data[I]; }
  const T *begin() const { return Data; }
  const T *end() const { return Data + Count; }

private:
  const T *Data;
  size_t Count;
};

} // namespace liger

#endif // LIGER_SUPPORT_ARRAYREF_H
