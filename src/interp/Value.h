//===-- interp/Value.h - MiniLang runtime values ---------------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime values for the MiniLang interpreter. Ints, bools, and strings
/// are immutable value types; arrays and structs are *reference* types
/// with Java-like aliasing semantics (assigning an array copies the
/// reference), which is what makes the paper's in-place sorting examples
/// (Fig. 1) behave as written. Program-state snapshots therefore use
/// deepCopy() to freeze heap contents at a trace step.
///
/// The Undef kind renders as the paper's ⊥ for variables that are in the
/// trace's fixed variable tuple but not yet declared at a given step
/// (Fig. 2, "right:⊥").
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_INTERP_VALUE_H
#define LIGER_INTERP_VALUE_H

#include "lang/Type.h"
#include "support/Error.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace liger {

struct StructDecl;

enum class ValueKind { Undef, Int, Bool, String, Array, Struct };

/// A MiniLang runtime value (tagged union with shared heap storage for
/// reference types).
class Value {
public:
  /// Default-constructed values are Undef (⊥).
  Value() : Kind(ValueKind::Undef) {}

  static Value undef() { return Value(); }
  static Value makeInt(int64_t V) {
    Value Val(ValueKind::Int);
    Val.IntVal = V;
    return Val;
  }
  static Value makeBool(bool V) {
    Value Val(ValueKind::Bool);
    Val.IntVal = V ? 1 : 0;
    return Val;
  }
  static Value makeString(std::string V) {
    Value Val(ValueKind::String);
    Val.Heap = std::make_shared<std::string>(std::move(V));
    return Val;
  }
  /// Creates an array sharing no storage with any other value.
  static Value makeArray(std::vector<Value> Elements) {
    Value Val(ValueKind::Array);
    Val.Heap = std::make_shared<std::vector<Value>>(std::move(Elements));
    return Val;
  }
  /// Creates a struct instance; \p Decl must outlive the value.
  static Value makeStruct(const StructDecl *Decl,
                          std::vector<Value> FieldValues) {
    LIGER_CHECK(Decl != nullptr, "struct value needs a declaration");
    Value Val(ValueKind::Struct);
    Val.Decl = Decl;
    Val.Heap = std::make_shared<std::vector<Value>>(std::move(FieldValues));
    return Val;
  }

  /// The zero value of \p Ty (0, false, "", empty array, zeroed struct).
  static Value zeroOf(const Type &Ty, const StructDecl *Decl);

  ValueKind kind() const { return Kind; }
  bool isUndef() const { return Kind == ValueKind::Undef; }
  bool isInt() const { return Kind == ValueKind::Int; }
  bool isBool() const { return Kind == ValueKind::Bool; }
  bool isString() const { return Kind == ValueKind::String; }
  bool isArray() const { return Kind == ValueKind::Array; }
  bool isStruct() const { return Kind == ValueKind::Struct; }

  int64_t asInt() const {
    LIGER_CHECK(isInt(), "asInt on non-int value");
    return IntVal;
  }
  bool asBool() const {
    LIGER_CHECK(isBool(), "asBool on non-bool value");
    return IntVal != 0;
  }
  const std::string &asString() const {
    LIGER_CHECK(isString(), "asString on non-string value");
    return heapString();
  }
  /// Mutable element storage (arrays and structs).
  std::vector<Value> &elements() {
    LIGER_CHECK(isArray() || isStruct(), "elements on scalar value");
    return heapElements();
  }
  const std::vector<Value> &elements() const {
    LIGER_CHECK(isArray() || isStruct(), "elements on scalar value");
    return heapElements();
  }
  const StructDecl *structDecl() const {
    LIGER_CHECK(isStruct(), "structDecl on non-struct value");
    return Decl;
  }

  /// Deep structural copy: reference types get fresh storage.
  Value deepCopy() const;

  /// Deterministic estimate of the heap bytes this value owns (what a
  /// deepCopy would allocate): scalars count a fixed 16 bytes, strings
  /// 32 + length, arrays/structs 32 + their elements. Drives the
  /// interpreter's per-execution memory budget (DESIGN.md §12), so it
  /// is a platform-independent model, not sizeof arithmetic.
  uint64_t approxBytes() const;

  /// Deep structural equality (arrays/structs compared element-wise).
  bool equals(const Value &Other) const;

  /// Renders the value as the paper's state notation: 5, true, "ab",
  /// [1, 2, 3], {x: 1, y: 2}, or ⊥.
  std::string str() const;

  /// Flattens the value into primitive leaves — attr(v) in §5.1.1.
  /// Scalars yield themselves; arrays/structs their elements in order.
  void flatten(std::vector<Value> &Out) const;

private:
  explicit Value(ValueKind K) : Kind(K) {}

  // Unchecked views of Heap; the caller knows the kind.
  const std::string &heapString() const {
    return *static_cast<const std::string *>(Heap.get());
  }
  std::vector<Value> &heapElements() const {
    return *static_cast<std::vector<Value> *>(Heap.get());
  }

  // One heap pointer and one scalar word keep a Value at 40 bytes: the
  // interpreter copies Values on every variable read.
  ValueKind Kind;
  int64_t IntVal = 0; ///< Int payload; bools store 0 or 1.
  /// std::string for strings, std::vector<Value> for arrays and
  /// structs, shared between aliases; null for scalars.
  std::shared_ptr<void> Heap;
  const StructDecl *Decl = nullptr;
};

} // namespace liger

#endif // LIGER_INTERP_VALUE_H
