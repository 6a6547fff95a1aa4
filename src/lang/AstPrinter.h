//===-- lang/AstPrinter.h - MiniLang pretty printer ------------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pretty printer for MiniLang. Two uses: (1) the corpus generators
/// build ASTs and print them back to source so every generated method
/// exists as text (and round-trips through the parser — a property
/// test); (2) single statements/expressions are rendered for trace
/// display and for the statement-token view of the static feature
/// dimension. Surface forms (`i++` vs `i += 1`) are preserved.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_LANG_ASTPRINTER_H
#define LIGER_LANG_ASTPRINTER_H

#include "lang/Ast.h"

#include <string>

namespace liger {

/// Renders a single statement (without nested sub-statements for
/// control flow: "if (x < y)" rather than the whole if). Used for the
/// symbolic-trace statement view.
std::string printStmtHead(const Stmt *S);

/// Renders a statement including nested statements, indented by
/// \p Indent levels.
std::string printStmt(const Stmt *S, unsigned Indent = 0);

/// Renders a full function declaration.
std::string printFunction(const FunctionDecl &Fn);

/// Renders a whole program (structs then functions).
std::string printProgram(const Program &P);

} // namespace liger

#endif // LIGER_LANG_ASTPRINTER_H
