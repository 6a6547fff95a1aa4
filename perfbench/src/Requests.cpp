//===-- perfbench/src/Requests.cpp - Serve request generator --------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Requests.h"

#include "dataset/Tasks.h"
#include "lang/Parser.h"
#include "support/Hash.h"
#include "support/Rng.h"

using namespace liger;
using namespace perfbench;

size_t perfbench::statementCount(const Stmt *S) {
  if (!S)
    return 0;
  switch (S->kind()) {
  case StmtKind::Block: {
    size_t Total = 0;
    for (const Stmt *Child : cast<BlockStmt>(S)->body())
      Total += statementCount(Child);
    return Total;
  }
  case StmtKind::If: {
    const auto *If = cast<IfStmt>(S);
    return 1 + statementCount(If->thenStmt()) +
           statementCount(If->elseStmt());
  }
  case StmtKind::While:
    return 1 + statementCount(cast<WhileStmt>(S)->body());
  case StmtKind::For: {
    const auto *For = cast<ForStmt>(S);
    return 1 + statementCount(For->init()) + statementCount(For->step()) +
           statementCount(For->body());
  }
  default:
    return 1;
  }
}

namespace {

struct Template {
  std::string Source; ///< With the placeholder function name FN.
  std::vector<std::string> Renameable;
};

/// Library variants that parse and pass the size filter.
std::vector<Template> buildTemplates() {
  std::vector<Template> Out;
  for (const TaskSpec &Task : taskLibrary())
    for (const TaskVariant &Variant : Task.Variants) {
      DiagnosticSink Diags;
      std::string Source = replaceIdentifier(Variant.Source, "FN", "probe");
      std::optional<Program> P = parseAndCheck(Source, Diags);
      const FunctionDecl *Fn = P ? P->findFunction("probe") : nullptr;
      if (Fn && Fn->Body && statementCount(Fn->Body) >= 3)
        Out.push_back({Variant.Source, Task.Renameable});
    }
  return Out;
}

const std::vector<Template> &templates() {
  static const std::vector<Template> All = buildTemplates();
  return All;
}

/// Methods under the 3-statement threshold.
const Template SmallTemplates[] = {
    {"int FN(int a, int b) {\n  return a + b;\n}\n", {"a", "b"}},
    {"bool FN(int x) {\n  int y = x * 2;\n  return y > x;\n}\n", {"x", "y"}},
};

/// A fresh identifier: 'v', four letters, then the slot index, so it
/// cannot be a keyword, a builtin, or another renamed identifier.
std::string freshIdentifier(Rng &R, size_t Slot) {
  std::string Name = "v";
  for (int I = 0; I < 4; ++I)
    Name += static_cast<char>('a' + R.nextBelow(26));
  return Name + std::to_string(Slot);
}

ServeRequest instantiate(const Template &T, const std::string &MethodName,
                         Rng &R) {
  ServeRequest Req;
  Req.MethodName = MethodName;
  Req.Source = replaceIdentifier(T.Source, "FN", MethodName);
  for (size_t I = 0; I < T.Renameable.size(); ++I)
    if (R.nextBool(0.5))
      Req.Source =
          replaceIdentifier(Req.Source, T.Renameable[I], freshIdentifier(R, I));
  return Req;
}

} // namespace

const char *perfbench::requestKindName(RequestKind Kind) {
  switch (Kind) {
  case RequestKind::Novel:
    return "novel";
  case RequestKind::Repeat:
    return "repeat";
  case RequestKind::ParseError:
    return "parse-error";
  case RequestKind::MissingMethod:
    return "missing-method";
  case RequestKind::TooSmall:
    return "too-small";
  }
  return "?";
}

std::vector<StreamRequest> perfbench::generateStream(uint64_t Seed,
                                                     size_t Client,
                                                     size_t Count) {
  StableHash H;
  H.addString("perfbench-serve-stream");
  H.addU64(Seed);
  H.addU64(Client);
  Rng R(H.digest());

  const std::vector<Template> &Templates = templates();
  std::vector<StreamRequest> Out;
  std::vector<size_t> Novel;
  Out.reserve(Count);
  for (size_t I = 0; I < Count; ++I) {
    // Unique per (client, index): no two generated methods share a name.
    std::string Name = "m" + std::to_string(Client) + "r" + std::to_string(I);
    StreamRequest SR;
    double U = R.nextDouble();
    if (U < InvalidShare) {
      SR.Kind = static_cast<RequestKind>(
          static_cast<size_t>(RequestKind::ParseError) + R.nextBelow(3));
      if (SR.Kind == RequestKind::TooSmall) {
        SR.Request = instantiate(SmallTemplates[R.nextBelow(2)], Name, R);
        SR.Expected = ServeStatus::TooSmall;
      } else {
        SR.Request = instantiate(R.pick(Templates), Name, R);
        if (SR.Kind == RequestKind::ParseError) {
          // Drop the function's closing brace.
          SR.Request.Source.erase(SR.Request.Source.rfind('}'));
          SR.Expected = ServeStatus::ParseError;
        } else {
          SR.Request.MethodName += "Gone";
          SR.Expected = ServeStatus::NoSuchMethod;
        }
      }
    } else if (U < InvalidShare + RepeatShare && !Novel.empty()) {
      SR.Kind = RequestKind::Repeat;
      SR.RepeatOf = R.pick(Novel);
      SR.Request = Out[SR.RepeatOf].Request;
    } else {
      SR.Kind = RequestKind::Novel;
      SR.Request = instantiate(R.pick(Templates), Name, R);
      Novel.push_back(I);
    }
    Out.push_back(std::move(SR));
  }
  return Out;
}
