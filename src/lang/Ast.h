//===-- lang/Ast.h - MiniLang abstract syntax trees ------------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniLang AST. Nodes are arena-allocated by an AstContext owned by
/// the Program; all cross-references are raw non-owning pointers, which
/// stay valid for the lifetime of the Program.
///
/// Design notes relevant to the paper:
///  - Surface syntax is preserved (compound assignment, ++/--, for vs
///    while), because the static feature dimension must distinguish
///    syntactic variants of the same semantics (e.g. the paper's
///    `i += i` vs `i *= 2` discussion in §3).
///  - Every node carries a SourceLoc whose line number feeds the line
///    coverage metric of §6.1.2.
///  - Nodes use LLVM-style isa/cast/dyn_cast via classof.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_LANG_AST_H
#define LIGER_LANG_AST_H

#include "lang/SourceLoc.h"
#include "lang/Type.h"
#include "support/Casting.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace liger {

class AstContext;

/// Unique (per Program) id for AST nodes; used as a stable key by
/// coverage tracking and trace encoding.
using NodeId = uint32_t;

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind {
  IntLit,
  BoolLit,
  StringLit,
  Var,
  ArrayLit,
  NewArray,
  NewStruct,
  Index,
  Field,
  Unary,
  Binary,
  Call,
};

/// Base class of all MiniLang expressions.
class Expr {
public:
  Expr(const Expr &) = delete;
  Expr &operator=(const Expr &) = delete;
  virtual ~Expr() = default;

  ExprKind kind() const { return Kind; }
  NodeId id() const { return Id; }
  SourceLoc loc() const { return Loc; }

  /// Static type, filled in by the type checker (Void until then).
  const Type &type() const { return Ty; }
  void setType(Type T) { Ty = std::move(T); }

  /// Invokes \p Fn on each direct sub-expression, in source order.
  virtual void forEachChild(
      const std::function<void(const Expr *)> &Fn) const = 0;

protected:
  Expr(ExprKind K, NodeId Id, SourceLoc Loc) : Kind(K), Id(Id), Loc(Loc) {}

private:
  ExprKind Kind;
  NodeId Id;
  SourceLoc Loc;
  Type Ty;
};

/// Integer literal.
class IntLitExpr : public Expr {
public:
  IntLitExpr(NodeId Id, SourceLoc Loc, int64_t Value)
      : Expr(ExprKind::IntLit, Id, Loc), Value(Value) {}

  int64_t value() const { return Value; }

  void forEachChild(const std::function<void(const Expr *)> &) const override {
  }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::IntLit; }

private:
  int64_t Value;
};

/// Boolean literal.
class BoolLitExpr : public Expr {
public:
  BoolLitExpr(NodeId Id, SourceLoc Loc, bool Value)
      : Expr(ExprKind::BoolLit, Id, Loc), Value(Value) {}

  bool value() const { return Value; }

  void forEachChild(const std::function<void(const Expr *)> &) const override {
  }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::BoolLit; }

private:
  bool Value;
};

/// String literal (stores the unescaped value).
class StringLitExpr : public Expr {
public:
  StringLitExpr(NodeId Id, SourceLoc Loc, std::string Value)
      : Expr(ExprKind::StringLit, Id, Loc), Value(std::move(Value)) {}

  const std::string &value() const { return Value; }

  void forEachChild(const std::function<void(const Expr *)> &) const override {
  }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::StringLit;
  }

private:
  std::string Value;
};

/// Reference to a variable or parameter.
class VarExpr : public Expr {
public:
  VarExpr(NodeId Id, SourceLoc Loc, std::string Name)
      : Expr(ExprKind::Var, Id, Loc), Name(std::move(Name)) {}

  const std::string &name() const { return Name; }

  void forEachChild(const std::function<void(const Expr *)> &) const override {
  }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Var; }

private:
  std::string Name;
};

/// Array literal: [e0, e1, ...]. Elements must share a primitive type.
class ArrayLitExpr : public Expr {
public:
  ArrayLitExpr(NodeId Id, SourceLoc Loc, std::vector<const Expr *> Elements)
      : Expr(ExprKind::ArrayLit, Id, Loc), Elements(std::move(Elements)) {}

  const std::vector<const Expr *> &elements() const { return Elements; }

  void forEachChild(
      const std::function<void(const Expr *)> &Fn) const override {
    for (const Expr *E : Elements)
      Fn(E);
  }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::ArrayLit;
  }

private:
  std::vector<const Expr *> Elements;
};

/// Array allocation: new int[n] (elements are zero-initialized).
class NewArrayExpr : public Expr {
public:
  NewArrayExpr(NodeId Id, SourceLoc Loc, Type ElemTy, const Expr *Size)
      : Expr(ExprKind::NewArray, Id, Loc), ElemTy(std::move(ElemTy)),
        Size(Size) {}

  const Type &elemType() const { return ElemTy; }
  const Expr *size() const { return Size; }

  void forEachChild(
      const std::function<void(const Expr *)> &Fn) const override {
    Fn(Size);
  }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::NewArray;
  }

private:
  Type ElemTy;
  const Expr *Size;
};

/// Struct construction with positional field values: new Point(1, 2).
class NewStructExpr : public Expr {
public:
  NewStructExpr(NodeId Id, SourceLoc Loc, std::string StructName,
                std::vector<const Expr *> Args)
      : Expr(ExprKind::NewStruct, Id, Loc), StructName(std::move(StructName)),
        Args(std::move(Args)) {}

  const std::string &structName() const { return StructName; }
  const std::vector<const Expr *> &args() const { return Args; }

  void forEachChild(
      const std::function<void(const Expr *)> &Fn) const override {
    for (const Expr *E : Args)
      Fn(E);
  }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::NewStruct;
  }

private:
  std::string StructName;
  std::vector<const Expr *> Args;
};

/// Array or string indexing: a[i]. Indexing a string yields a length-1
/// string (character), mirroring the paper's C#-flavoured examples.
class IndexExpr : public Expr {
public:
  IndexExpr(NodeId Id, SourceLoc Loc, const Expr *Base, const Expr *Index)
      : Expr(ExprKind::Index, Id, Loc), Base(Base), Index(Index) {}

  const Expr *base() const { return Base; }
  const Expr *index() const { return Index; }

  void forEachChild(
      const std::function<void(const Expr *)> &Fn) const override {
    Fn(Base);
    Fn(Index);
  }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Index; }

private:
  const Expr *Base;
  const Expr *Index;
};

/// Struct field access: p.x.
class FieldExpr : public Expr {
public:
  FieldExpr(NodeId Id, SourceLoc Loc, const Expr *Base, std::string Field)
      : Expr(ExprKind::Field, Id, Loc), Base(Base), Field(std::move(Field)) {}

  const Expr *base() const { return Base; }
  const std::string &field() const { return Field; }

  void forEachChild(
      const std::function<void(const Expr *)> &Fn) const override {
    Fn(Base);
  }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Field; }

private:
  const Expr *Base;
  std::string Field;
};

enum class UnaryOp { Neg, Not };

/// Unary operation: -e or !e.
class UnaryExpr : public Expr {
public:
  UnaryExpr(NodeId Id, SourceLoc Loc, UnaryOp Op, const Expr *Operand)
      : Expr(ExprKind::Unary, Id, Loc), Op(Op), Operand(Operand) {}

  UnaryOp op() const { return Op; }
  const Expr *operand() const { return Operand; }

  void forEachChild(
      const std::function<void(const Expr *)> &Fn) const override {
    Fn(Operand);
  }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Unary; }

private:
  UnaryOp Op;
  const Expr *Operand;
};

enum class BinaryOp {
  Add, Sub, Mul, Div, Mod,
  Lt, Le, Gt, Ge, Eq, Ne,
  And, Or,
};

/// Spelling of a binary operator ("+", "<=", ...).
const char *binaryOpSpelling(BinaryOp Op);

/// Binary operation. && and || are short-circuiting.
class BinaryExpr : public Expr {
public:
  BinaryExpr(NodeId Id, SourceLoc Loc, BinaryOp Op, const Expr *Lhs,
             const Expr *Rhs)
      : Expr(ExprKind::Binary, Id, Loc), Op(Op), Lhs(Lhs), Rhs(Rhs) {}

  BinaryOp op() const { return Op; }
  const Expr *lhs() const { return Lhs; }
  const Expr *rhs() const { return Rhs; }

  void forEachChild(
      const std::function<void(const Expr *)> &Fn) const override {
    Fn(Lhs);
    Fn(Rhs);
  }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Binary; }

private:
  BinaryOp Op;
  const Expr *Lhs;
  const Expr *Rhs;
};

/// Call to a builtin (len, substring) or a user-declared function.
class CallExpr : public Expr {
public:
  CallExpr(NodeId Id, SourceLoc Loc, std::string Callee,
           std::vector<const Expr *> Args)
      : Expr(ExprKind::Call, Id, Loc), Callee(std::move(Callee)),
        Args(std::move(Args)) {}

  const std::string &callee() const { return Callee; }
  const std::vector<const Expr *> &args() const { return Args; }

  void forEachChild(
      const std::function<void(const Expr *)> &Fn) const override {
    for (const Expr *E : Args)
      Fn(E);
  }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Call; }

private:
  std::string Callee;
  std::vector<const Expr *> Args;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind {
  Decl,
  Assign,
  If,
  While,
  For,
  Return,
  Break,
  Continue,
  Block,
  Expr,
};

/// Base class of all MiniLang statements.
class Stmt {
public:
  Stmt(const Stmt &) = delete;
  Stmt &operator=(const Stmt &) = delete;
  virtual ~Stmt() = default;

  StmtKind kind() const { return Kind; }
  NodeId id() const { return Id; }
  SourceLoc loc() const { return Loc; }

protected:
  Stmt(StmtKind K, NodeId Id, SourceLoc Loc) : Kind(K), Id(Id), Loc(Loc) {}

private:
  StmtKind Kind;
  NodeId Id;
  SourceLoc Loc;
};

/// Local variable declaration, optionally initialized:  int x = e;
/// Uninitialized variables get the type's zero value.
class DeclStmt : public Stmt {
public:
  DeclStmt(NodeId Id, SourceLoc Loc, Type Ty, std::string Name,
           const Expr *Init)
      : Stmt(StmtKind::Decl, Id, Loc), Ty(std::move(Ty)),
        Name(std::move(Name)), Init(Init) {}

  const Type &declType() const { return Ty; }
  const std::string &name() const { return Name; }
  const Expr *init() const { return Init; } ///< May be null.

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Decl; }

private:
  Type Ty;
  std::string Name;
  const Expr *Init;
};

/// The operator of an assignment statement.
enum class AssignOp { Set, Add, Sub, Mul, Div, Mod };

/// Surface form the assignment was written in; preserved so that the
/// pretty printer round-trips and the static feature dimension can tell
/// `i = i + 1`, `i += 1`, and `i++` apart.
enum class AssignSyntax { Plain, Compound, IncDec };

/// Assignment to a variable, array element, or struct field.
class AssignStmt : public Stmt {
public:
  AssignStmt(NodeId Id, SourceLoc Loc, const Expr *Target, AssignOp Op,
             const Expr *Value, AssignSyntax Syntax)
      : Stmt(StmtKind::Assign, Id, Loc), Target(Target), Op(Op), Value(Value),
        Syntax(Syntax) {}

  const Expr *target() const { return Target; }
  AssignOp op() const { return Op; }
  const Expr *value() const { return Value; }
  AssignSyntax syntax() const { return Syntax; }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Assign; }

private:
  const Expr *Target;
  AssignOp Op;
  const Expr *Value;
  AssignSyntax Syntax;
};

/// if (Cond) Then [else Else].
class IfStmt : public Stmt {
public:
  IfStmt(NodeId Id, SourceLoc Loc, const Expr *Cond, const Stmt *Then,
         const Stmt *Else)
      : Stmt(StmtKind::If, Id, Loc), Cond(Cond), Then(Then), Else(Else) {}

  const Expr *cond() const { return Cond; }
  const Stmt *thenStmt() const { return Then; }
  const Stmt *elseStmt() const { return Else; } ///< May be null.

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::If; }

private:
  const Expr *Cond;
  const Stmt *Then;
  const Stmt *Else;
};

/// while (Cond) Body.
class WhileStmt : public Stmt {
public:
  WhileStmt(NodeId Id, SourceLoc Loc, const Expr *Cond, const Stmt *Body)
      : Stmt(StmtKind::While, Id, Loc), Cond(Cond), Body(Body) {}

  const Expr *cond() const { return Cond; }
  const Stmt *body() const { return Body; }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::While; }

private:
  const Expr *Cond;
  const Stmt *Body;
};

/// for (Init; Cond; Step) Body. Init/Cond/Step may each be null.
class ForStmt : public Stmt {
public:
  ForStmt(NodeId Id, SourceLoc Loc, const Stmt *Init, const Expr *Cond,
          const Stmt *Step, const Stmt *Body)
      : Stmt(StmtKind::For, Id, Loc), Init(Init), Cond(Cond), Step(Step),
        Body(Body) {}

  const Stmt *init() const { return Init; } ///< Decl or Assign; may be null.
  const Expr *cond() const { return Cond; } ///< May be null (infinite).
  const Stmt *step() const { return Step; } ///< Assign; may be null.
  const Stmt *body() const { return Body; }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::For; }

private:
  const Stmt *Init;
  const Expr *Cond;
  const Stmt *Step;
  const Stmt *Body;
};

/// return [e];
class ReturnStmt : public Stmt {
public:
  ReturnStmt(NodeId Id, SourceLoc Loc, const Expr *Value)
      : Stmt(StmtKind::Return, Id, Loc), Value(Value) {}

  const Expr *value() const { return Value; } ///< Null for void return.

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Return; }

private:
  const Expr *Value;
};

/// break;
class BreakStmt : public Stmt {
public:
  BreakStmt(NodeId Id, SourceLoc Loc) : Stmt(StmtKind::Break, Id, Loc) {}
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Break; }
};

/// continue;
class ContinueStmt : public Stmt {
public:
  ContinueStmt(NodeId Id, SourceLoc Loc) : Stmt(StmtKind::Continue, Id, Loc) {}
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::Continue;
  }
};

/// { s0; s1; ... }
class BlockStmt : public Stmt {
public:
  BlockStmt(NodeId Id, SourceLoc Loc, std::vector<const Stmt *> Body)
      : Stmt(StmtKind::Block, Id, Loc), Body(std::move(Body)) {}

  const std::vector<const Stmt *> &body() const { return Body; }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Block; }

private:
  std::vector<const Stmt *> Body;
};

/// Expression evaluated for its side effect (a call): f(a, b);
class ExprStmt : public Stmt {
public:
  ExprStmt(NodeId Id, SourceLoc Loc, const Expr *E)
      : Stmt(StmtKind::Expr, Id, Loc), E(E) {}

  const Expr *expr() const { return E; }

  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Expr; }

private:
  const Expr *E;
};

/// Calls \p Visit on each non-null direct sub-statement of \p S in
/// source order: a `for` visits init, then step, then body, which is
/// also the order its declarations enter the variable tuple.
/// Expressions are not visited.
template <typename Fn> void forEachChildStmt(const Stmt *S, Fn &&Visit) {
  auto Child = [&Visit](const Stmt *C) {
    if (C)
      Visit(C);
  };
  switch (S->kind()) {
  case StmtKind::Block:
    for (const Stmt *C : cast<BlockStmt>(S)->body())
      Child(C);
    return;
  case StmtKind::If:
    Child(cast<IfStmt>(S)->thenStmt());
    Child(cast<IfStmt>(S)->elseStmt());
    return;
  case StmtKind::While:
    Child(cast<WhileStmt>(S)->body());
    return;
  case StmtKind::For: {
    const auto *For = cast<ForStmt>(S);
    Child(For->init());
    Child(For->step());
    Child(For->body());
    return;
  }
  case StmtKind::Decl:
  case StmtKind::Assign:
  case StmtKind::Return:
  case StmtKind::Break:
  case StmtKind::Continue:
  case StmtKind::Expr:
    return;
  }
}

//===----------------------------------------------------------------------===//
// Declarations and Program
//===----------------------------------------------------------------------===//

/// A typed name (function parameter or struct field).
struct TypedName {
  Type Ty;
  std::string Name;
};

/// A struct declaration: struct Point { int x; int y; }
struct StructDecl {
  std::string Name;
  std::vector<TypedName> Fields;
  SourceLoc Loc;

  /// Index of a field by name, or -1 if absent.
  int fieldIndex(const std::string &FieldName) const {
    for (size_t I = 0; I < Fields.size(); ++I)
      if (Fields[I].Name == FieldName)
        return static_cast<int>(I);
    return -1;
  }
};

/// A function declaration with body.
struct FunctionDecl {
  Type ReturnType;
  std::string Name;
  std::vector<TypedName> Params;
  const BlockStmt *Body = nullptr;
  SourceLoc Loc;
};

/// Arena that owns all AST nodes of one Program and hands out NodeIds.
class AstContext {
public:
  AstContext() = default;
  AstContext(const AstContext &) = delete;
  AstContext &operator=(const AstContext &) = delete;

  /// Allocates and owns a new expression node.
  template <typename T, typename... Args> T *createExpr(Args &&...A) {
    auto Node = std::make_unique<T>(NextId++, std::forward<Args>(A)...);
    T *Raw = Node.get();
    ExprPool.push_back(std::move(Node));
    return Raw;
  }

  /// Allocates and owns a new statement node.
  template <typename T, typename... Args> T *createStmt(Args &&...A) {
    auto Node = std::make_unique<T>(NextId++, std::forward<Args>(A)...);
    T *Raw = Node.get();
    StmtPool.push_back(std::move(Node));
    return Raw;
  }

  NodeId numNodes() const { return NextId; }

private:
  std::vector<std::unique_ptr<Expr>> ExprPool;
  std::vector<std::unique_ptr<Stmt>> StmtPool;
  NodeId NextId = 0;
};

/// A parsed compilation unit: struct declarations plus functions, with
/// the arena that owns every node. Movable, not copyable.
class Program {
public:
  Program() : Context(std::make_unique<AstContext>()) {}
  Program(Program &&) = default;
  Program &operator=(Program &&) = default;

  AstContext &context() { return *Context; }
  const AstContext &context() const { return *Context; }

  std::vector<StructDecl> Structs;
  std::vector<FunctionDecl> Functions;

  /// Finds a struct declaration by name (null if absent).
  const StructDecl *findStruct(const std::string &Name) const {
    for (const StructDecl &S : Structs)
      if (S.Name == Name)
        return &S;
    return nullptr;
  }

  /// Finds a function by name (null if absent).
  const FunctionDecl *findFunction(const std::string &Name) const {
    for (const FunctionDecl &F : Functions)
      if (F.Name == Name)
        return &F;
    return nullptr;
  }

private:
  std::unique_ptr<AstContext> Context;
};

} // namespace liger

#endif // LIGER_LANG_AST_H
