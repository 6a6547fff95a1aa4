//===-- interp/Value.cpp - MiniLang runtime values ------------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "interp/Value.h"

#include "lang/Ast.h"

using namespace liger;

Value Value::zeroOf(const Type &Ty, const StructDecl *Decl) {
  switch (Ty.kind()) {
  case TypeKind::Int:
    return makeInt(0);
  case TypeKind::Bool:
    return makeBool(false);
  case TypeKind::String:
    return makeString("");
  case TypeKind::Array:
    return makeArray({});
  case TypeKind::Struct: {
    LIGER_CHECK(Decl, "zeroOf(struct) needs the declaration");
    std::vector<Value> Fields;
    Fields.reserve(Decl->Fields.size());
    for (const TypedName &F : Decl->Fields)
      Fields.push_back(zeroOf(F.Ty, nullptr));
    return makeStruct(Decl, std::move(Fields));
  }
  case TypeKind::Void:
    return undef();
  }
  LIGER_UNREACHABLE("covered switch");
}

Value Value::deepCopy() const {
  switch (Kind) {
  case ValueKind::Undef:
  case ValueKind::Int:
  case ValueKind::Bool:
    return *this;
  case ValueKind::String:
    return makeString(heapString());
  case ValueKind::Array: {
    std::vector<Value> Copy;
    Copy.reserve(heapElements().size());
    for (const Value &Elem : heapElements())
      Copy.push_back(Elem.deepCopy());
    return makeArray(std::move(Copy));
  }
  case ValueKind::Struct: {
    std::vector<Value> Copy;
    Copy.reserve(heapElements().size());
    for (const Value &Elem : heapElements())
      Copy.push_back(Elem.deepCopy());
    return makeStruct(Decl, std::move(Copy));
  }
  }
  LIGER_UNREACHABLE("covered switch");
}

uint64_t Value::approxBytes() const {
  switch (Kind) {
  case ValueKind::Undef:
  case ValueKind::Int:
  case ValueKind::Bool:
    return 16;
  case ValueKind::String:
    return 32 + heapString().size();
  case ValueKind::Array:
  case ValueKind::Struct: {
    uint64_t Total = 32;
    for (const Value &Elem : heapElements())
      Total += Elem.approxBytes();
    return Total;
  }
  }
  LIGER_UNREACHABLE("covered switch");
}

bool Value::equals(const Value &Other) const {
  if (Kind != Other.Kind)
    return false;
  switch (Kind) {
  case ValueKind::Undef:
    return true;
  case ValueKind::Int:
    return IntVal == Other.IntVal;
  case ValueKind::Bool:
    return IntVal == Other.IntVal;
  case ValueKind::String:
    return heapString() == Other.heapString();
  case ValueKind::Array:
  case ValueKind::Struct: {
    if (Kind == ValueKind::Struct && Decl != Other.Decl)
      return false;
    const std::vector<Value> &A = heapElements();
    const std::vector<Value> &B = Other.heapElements();
    if (A.size() != B.size())
      return false;
    for (size_t I = 0; I < A.size(); ++I)
      if (!A[I].equals(B[I]))
        return false;
    return true;
  }
  }
  LIGER_UNREACHABLE("covered switch");
}

std::string Value::str() const {
  switch (Kind) {
  case ValueKind::Undef:
    return "⊥";
  case ValueKind::Int:
    return std::to_string(IntVal);
  case ValueKind::Bool:
    return IntVal ? "true" : "false";
  case ValueKind::String:
    return "\"" + heapString() + "\"";
  case ValueKind::Array: {
    std::string Out = "[";
    for (size_t I = 0; I < heapElements().size(); ++I) {
      if (I)
        Out += ", ";
      Out += heapElements()[I].str();
    }
    Out += "]";
    return Out;
  }
  case ValueKind::Struct: {
    std::string Out = "{";
    for (size_t I = 0; I < heapElements().size(); ++I) {
      if (I)
        Out += ", ";
      Out += Decl->Fields[I].Name + ": " + heapElements()[I].str();
    }
    Out += "}";
    return Out;
  }
  }
  LIGER_UNREACHABLE("covered switch");
}

void Value::flatten(std::vector<Value> &Out) const {
  switch (Kind) {
  case ValueKind::Undef:
  case ValueKind::Int:
  case ValueKind::Bool:
  case ValueKind::String:
    Out.push_back(*this);
    return;
  case ValueKind::Array:
  case ValueKind::Struct:
    for (const Value &Elem : heapElements())
      Elem.flatten(Out);
    return;
  }
  LIGER_UNREACHABLE("covered switch");
}
