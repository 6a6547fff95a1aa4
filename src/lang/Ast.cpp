//===-- lang/Ast.cpp - MiniLang abstract syntax trees ---------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "lang/Ast.h"

using namespace liger;

std::string Type::str() const {
  switch (Kind) {
  case TypeKind::Void:
    return "void";
  case TypeKind::Int:
    return "int";
  case TypeKind::Bool:
    return "bool";
  case TypeKind::String:
    return "string";
  case TypeKind::Array:
    return Type(Elem).str() + "[]";
  case TypeKind::Struct:
    return StructName;
  }
  LIGER_UNREACHABLE("covered switch");
}

const char *liger::binaryOpSpelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add: return "+";
  case BinaryOp::Sub: return "-";
  case BinaryOp::Mul: return "*";
  case BinaryOp::Div: return "/";
  case BinaryOp::Mod: return "%";
  case BinaryOp::Lt:  return "<";
  case BinaryOp::Le:  return "<=";
  case BinaryOp::Gt:  return ">";
  case BinaryOp::Ge:  return ">=";
  case BinaryOp::Eq:  return "==";
  case BinaryOp::Ne:  return "!=";
  case BinaryOp::And: return "&&";
  case BinaryOp::Or:  return "||";
  }
  LIGER_UNREACHABLE("covered switch");
}
