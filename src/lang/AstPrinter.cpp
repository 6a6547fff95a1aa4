//===-- lang/AstPrinter.cpp - MiniLang pretty printer ---------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "lang/AstPrinter.h"

#include "support/Error.h"
#include "support/StringUtils.h"

using namespace liger;

namespace {

/// Binding strength used to emit minimal parentheses. Higher binds
/// tighter. Mirrors the parser's precedence ladder.
int precedenceOf(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Or:  return 1;
  case BinaryOp::And: return 2;
  case BinaryOp::Eq:
  case BinaryOp::Ne:  return 3;
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge:  return 4;
  case BinaryOp::Add:
  case BinaryOp::Sub: return 5;
  case BinaryOp::Mul:
  case BinaryOp::Div:
  case BinaryOp::Mod: return 6;
  }
  LIGER_UNREACHABLE("covered switch");
}

constexpr int UnaryPrec = 7;
constexpr int PostfixPrec = 8;

std::string escapeString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    switch (C) {
    case '\n': Out += "\\n"; break;
    case '\t': Out += "\\t"; break;
    case '\\': Out += "\\\\"; break;
    case '"':  Out += "\\\""; break;
    default:   Out.push_back(C); break;
    }
  }
  Out += '"';
  return Out;
}

/// Prints \p E, parenthesizing if its precedence is below \p MinPrec.
std::string printExprPrec(const Expr *E, int MinPrec) {
  switch (E->kind()) {
  case ExprKind::IntLit: {
    int64_t V = cast<IntLitExpr>(E)->value();
    if (V < 0 && MinPrec > UnaryPrec)
      return strCat("(", std::to_string(V), ")");
    return std::to_string(V);
  }
  case ExprKind::BoolLit:
    return cast<BoolLitExpr>(E)->value() ? "true" : "false";
  case ExprKind::StringLit:
    return escapeString(cast<StringLitExpr>(E)->value());
  case ExprKind::Var:
    return cast<VarExpr>(E)->name();
  case ExprKind::ArrayLit: {
    const auto *Lit = cast<ArrayLitExpr>(E);
    std::string Out = "[";
    for (size_t I = 0; I < Lit->elements().size(); ++I) {
      if (I)
        Out += ", ";
      Out += printExprPrec(Lit->elements()[I], 0);
    }
    Out += "]";
    return Out;
  }
  case ExprKind::NewArray: {
    const auto *New = cast<NewArrayExpr>(E);
    return "new " + New->elemType().str() + "[" +
           printExprPrec(New->size(), 0) + "]";
  }
  case ExprKind::NewStruct: {
    const auto *New = cast<NewStructExpr>(E);
    std::string Out = "new " + New->structName() + "(";
    for (size_t I = 0; I < New->args().size(); ++I) {
      if (I)
        Out += ", ";
      Out += printExprPrec(New->args()[I], 0);
    }
    Out += ")";
    return Out;
  }
  case ExprKind::Index: {
    const auto *Index = cast<IndexExpr>(E);
    return printExprPrec(Index->base(), PostfixPrec) + "[" +
           printExprPrec(Index->index(), 0) + "]";
  }
  case ExprKind::Field: {
    const auto *Field = cast<FieldExpr>(E);
    return printExprPrec(Field->base(), PostfixPrec) + "." + Field->field();
  }
  case ExprKind::Unary: {
    const auto *Unary = cast<UnaryExpr>(E);
    std::string Out = strCat(Unary->op() == UnaryOp::Neg ? "-" : "!",
                             printExprPrec(Unary->operand(), UnaryPrec));
    if (MinPrec > UnaryPrec)
      return "(" + Out + ")";
    return Out;
  }
  case ExprKind::Binary: {
    const auto *Bin = cast<BinaryExpr>(E);
    int Prec = precedenceOf(Bin->op());
    // Left-associative: the right operand needs strictly higher binding.
    std::string Out = printExprPrec(Bin->lhs(), Prec) + " " +
                      binaryOpSpelling(Bin->op()) + " " +
                      printExprPrec(Bin->rhs(), Prec + 1);
    if (Prec < MinPrec)
      return "(" + Out + ")";
    return Out;
  }
  case ExprKind::Call: {
    const auto *Call = cast<CallExpr>(E);
    std::string Out = Call->callee() + "(";
    for (size_t I = 0; I < Call->args().size(); ++I) {
      if (I)
        Out += ", ";
      Out += printExprPrec(Call->args()[I], 0);
    }
    Out += ")";
    return Out;
  }
  }
  LIGER_UNREACHABLE("covered switch");
}

std::string indentStr(unsigned Indent) { return std::string(Indent * 2, ' '); }

const char *assignOpSpelling(AssignOp Op) {
  switch (Op) {
  case AssignOp::Set: return "=";
  case AssignOp::Add: return "+=";
  case AssignOp::Sub: return "-=";
  case AssignOp::Mul: return "*=";
  case AssignOp::Div: return "/=";
  case AssignOp::Mod: return "%=";
  }
  LIGER_UNREACHABLE("covered switch");
}

std::string printAssignHead(const AssignStmt *S) {
  std::string Target = printExprPrec(S->target(), 0);
  switch (S->syntax()) {
  case AssignSyntax::IncDec:
    return Target + (S->op() == AssignOp::Add ? "++" : "--");
  case AssignSyntax::Compound:
    return Target + " " + assignOpSpelling(S->op()) + " " +
           printExprPrec(S->value(), 0);
  case AssignSyntax::Plain:
    if (S->op() == AssignOp::Set)
      return Target + " = " + printExprPrec(S->value(), 0);
    // A compound op recorded with Plain syntax is impossible by
    // construction; render defensively.
    return Target + " " + assignOpSpelling(S->op()) + " " +
           printExprPrec(S->value(), 0);
  }
  LIGER_UNREACHABLE("covered switch");
}

} // namespace

std::string liger::printStmtHead(const Stmt *S) {
  switch (S->kind()) {
  case StmtKind::Decl: {
    const auto *Decl = cast<DeclStmt>(S);
    std::string Out = Decl->declType().str() + " " + Decl->name();
    if (Decl->init())
      Out += " = " + printExprPrec(Decl->init(), 0);
    return Out;
  }
  case StmtKind::Assign:
    return printAssignHead(cast<AssignStmt>(S));
  case StmtKind::If:
    return "if (" + printExprPrec(cast<IfStmt>(S)->cond(), 0) + ")";
  case StmtKind::While:
    return "while (" + printExprPrec(cast<WhileStmt>(S)->cond(), 0) + ")";
  case StmtKind::For: {
    const auto *For = cast<ForStmt>(S);
    std::string Out = "for (";
    if (For->init())
      Out += printStmtHead(For->init());
    Out += "; ";
    if (For->cond())
      Out += printExprPrec(For->cond(), 0);
    Out += "; ";
    if (For->step())
      Out += printStmtHead(For->step());
    Out += ")";
    return Out;
  }
  case StmtKind::Return: {
    const auto *Ret = cast<ReturnStmt>(S);
    if (Ret->value())
      return "return " + printExprPrec(Ret->value(), 0);
    return "return";
  }
  case StmtKind::Break:
    return "break";
  case StmtKind::Continue:
    return "continue";
  case StmtKind::Block:
    return "{...}";
  case StmtKind::Expr:
    return printExprPrec(cast<ExprStmt>(S)->expr(), 0);
  }
  LIGER_UNREACHABLE("covered switch");
}

std::string liger::printStmt(const Stmt *S, unsigned Indent) {
  std::string Pad = indentStr(Indent);
  switch (S->kind()) {
  case StmtKind::Decl:
  case StmtKind::Assign:
  case StmtKind::Return:
  case StmtKind::Break:
  case StmtKind::Continue:
  case StmtKind::Expr:
    return Pad + printStmtHead(S) + ";\n";
  case StmtKind::Block: {
    std::string Out = Pad + "{\n";
    for (const Stmt *Child : cast<BlockStmt>(S)->body())
      Out += printStmt(Child, Indent + 1);
    Out += Pad + "}\n";
    return Out;
  }
  case StmtKind::If: {
    const auto *If = cast<IfStmt>(S);
    std::string Out = Pad + printStmtHead(S) + "\n";
    Out += printStmt(If->thenStmt(),
                     isa<BlockStmt>(If->thenStmt()) ? Indent : Indent + 1);
    if (If->elseStmt()) {
      Out += Pad + "else\n";
      Out += printStmt(If->elseStmt(),
                       isa<BlockStmt>(If->elseStmt()) ? Indent : Indent + 1);
    }
    return Out;
  }
  case StmtKind::While: {
    const auto *While = cast<WhileStmt>(S);
    std::string Out = Pad + printStmtHead(S) + "\n";
    Out += printStmt(While->body(),
                     isa<BlockStmt>(While->body()) ? Indent : Indent + 1);
    return Out;
  }
  case StmtKind::For: {
    const auto *For = cast<ForStmt>(S);
    std::string Out = Pad + printStmtHead(S) + "\n";
    Out += printStmt(For->body(),
                     isa<BlockStmt>(For->body()) ? Indent : Indent + 1);
    return Out;
  }
  }
  LIGER_UNREACHABLE("covered switch");
}

std::string liger::printFunction(const FunctionDecl &Fn) {
  std::string Out = Fn.ReturnType.str() + " " + Fn.Name + "(";
  for (size_t I = 0; I < Fn.Params.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Fn.Params[I].Ty.str() + " " + Fn.Params[I].Name;
  }
  Out += ")\n";
  if (Fn.Body)
    Out += printStmt(Fn.Body, 0);
  else
    Out += "{\n}\n";
  return Out;
}

std::string liger::printProgram(const Program &P) {
  std::string Out;
  for (const StructDecl &S : P.Structs) {
    Out += "struct " + S.Name + " {\n";
    for (const TypedName &F : S.Fields)
      Out += "  " + F.Ty.str() + " " + F.Name + ";\n";
    Out += "}\n\n";
  }
  for (const FunctionDecl &Fn : P.Functions) {
    Out += printFunction(Fn);
    Out += "\n";
  }
  return Out;
}
