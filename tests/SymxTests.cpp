//===-- tests/SymxTests.cpp - Unit tests for symbolic execution -----------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "symx/SymExec.h"

#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <limits>

using namespace liger;

namespace {

Program mustParse(const std::string &Source) {
  DiagnosticSink Diags;
  std::optional<Program> P = parseAndCheck(Source, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  if (!P)
    return Program();
  return std::move(*P);
}

/// The key cross-validation property: running the concrete interpreter
/// on a path's witness inputs must follow exactly that path.
void expectWitnessesReplay(const Program &P, const FunctionDecl &Fn,
                           const std::vector<SymbolicPath> &Paths) {
  for (const SymbolicPath &Path : Paths) {
    ExecResult R = execute(P, Fn, Path.WitnessInputs);
    ASSERT_TRUE(R.ok()) << "witness faulted: " << R.ErrorMessage;
    EXPECT_EQ(pathKeyOf(R), Path.Trace.pathKey())
        << "witness follows a different path; condition was "
        << Path.conditionStr();
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// SymExpr
//===----------------------------------------------------------------------===//

TEST(SymExprTest, ConstantFolding) {
  SymExprPtr E = SymExpr::binary(SymOp::Add, SymExpr::intConst(2),
                                 SymExpr::intConst(3));
  ASSERT_TRUE(E->isIntConst());
  EXPECT_EQ(E->intValue(), 5);

  SymExprPtr B = SymExpr::binary(SymOp::Lt, SymExpr::intConst(2),
                                 SymExpr::intConst(3));
  ASSERT_TRUE(B->isBoolConst());
  EXPECT_TRUE(B->boolValue());
}

TEST(SymExprTest, IdentitySimplifications) {
  SymExprPtr X = SymExpr::intVar(0);
  EXPECT_EQ(SymExpr::binary(SymOp::Add, X, SymExpr::intConst(0)).get(),
            X.get());
  EXPECT_EQ(SymExpr::binary(SymOp::Mul, SymExpr::intConst(1), X).get(),
            X.get());
  SymExprPtr T = SymExpr::boolConst(true);
  SymExprPtr C = SymExpr::binary(SymOp::Lt, X, SymExpr::intConst(5));
  EXPECT_EQ(SymExpr::binary(SymOp::And, T, C).get(), C.get());
}

TEST(SymExprTest, EvalMatchesSemantics) {
  // (x0 + 2) * x1 with x0=3, x1=4 -> 20.
  SymExprPtr E = SymExpr::binary(
      SymOp::Mul,
      SymExpr::binary(SymOp::Add, SymExpr::intVar(0), SymExpr::intConst(2)),
      SymExpr::intVar(1));
  auto V = E->evalInt({3, 4}, {});
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, 20);
}

TEST(SymExprTest, MemoizedEvalMatchesPlainEval) {
  // An unrolled `x -= 1` loop: each iteration's value and guard are
  // nodes over the previous iteration's value, so the guards share one
  // chain. The memo must give the same answers, faults included.
  SymExprPtr X = SymExpr::intVar(0);
  std::vector<SymExprPtr> Guards;
  for (int I = 0; I < 50; ++I) {
    X = SymExpr::binary(SymOp::Sub, X, SymExpr::intConst(1));
    Guards.push_back(SymExpr::binary(SymOp::Gt, X, SymExpr::intConst(0)));
  }
  SymExprPtr Fault = SymExpr::binary(
      SymOp::EqInt, SymExpr::binary(SymOp::Div, X, SymExpr::intVar(1)),
      SymExpr::intConst(0));
  Guards.push_back(Fault);
  for (int64_t X0 : {-3, 0, 25, 60})
    for (int64_t X1 : {0, 1}) {
      SymEvalMemo Memo;
      for (const SymExprPtr &G : Guards) {
        EXPECT_EQ(G->evalBool({X0, X1}, {}, &Memo), G->evalBool({X0, X1}, {}))
            << G->str() << " at " << X0 << ", " << X1;
        EXPECT_EQ(X->evalInt({X0, X1}, {}, &Memo), X->evalInt({X0, X1}, {}));
      }
    }
}

TEST(SymExprTest, DivisionByZeroEvaluatesToNullopt) {
  SymExprPtr E = SymExpr::binary(SymOp::Div, SymExpr::intConst(1),
                                 SymExpr::intVar(0));
  EXPECT_FALSE(E->evalInt({0}, {}).has_value());
  EXPECT_TRUE(E->evalInt({2}, {}).has_value());
}

TEST(SymExprTest, ShortCircuitShieldsFaults) {
  // (x0 != 0) && (10 / x0 > 1) at x0=0 must be false, not a fault.
  SymExprPtr X = SymExpr::intVar(0);
  SymExprPtr Guard =
      SymExpr::binary(SymOp::NeInt, X, SymExpr::intConst(0));
  SymExprPtr Danger = SymExpr::binary(
      SymOp::Gt, SymExpr::binary(SymOp::Div, SymExpr::intConst(10), X),
      SymExpr::intConst(1));
  SymExprPtr E = SymExpr::binary(SymOp::And, Guard, Danger);
  auto V = E->evalBool({0}, {});
  ASSERT_TRUE(V.has_value());
  EXPECT_FALSE(*V);
}

TEST(SymExprTest, CollectSlots) {
  SymExprPtr E = SymExpr::binary(
      SymOp::And,
      SymExpr::binary(SymOp::Lt, SymExpr::intVar(2), SymExpr::intVar(0)),
      SymExpr::boolVar(1));
  std::vector<unsigned> Ints, Bools;
  E->collectSlots(Ints, Bools);
  EXPECT_EQ(Ints, (std::vector<unsigned>{2, 0}));
  EXPECT_EQ(Bools, (std::vector<unsigned>{1}));
}

TEST(SymExprTest, StrRendering) {
  SymExprPtr E = SymExpr::binary(
      SymOp::Lt, SymExpr::binary(SymOp::Add, SymExpr::intVar(0),
                                 SymExpr::intConst(1)),
      SymExpr::intVar(1));
  EXPECT_EQ(E->str(), "((x0 + 1) < x1)");
}

//===----------------------------------------------------------------------===//
// Solver
//===----------------------------------------------------------------------===//

TEST(SolverTest, SolvesSimpleConjunction) {
  // x0 > 3 && x1 < -2 && x0 + x1 == 2
  SymExprPtr X0 = SymExpr::intVar(0), X1 = SymExpr::intVar(1);
  std::vector<SymExprPtr> Cs{
      SymExpr::binary(SymOp::Gt, X0, SymExpr::intConst(3)),
      SymExpr::binary(SymOp::Lt, X1, SymExpr::intConst(-2)),
      SymExpr::binary(SymOp::EqInt, SymExpr::binary(SymOp::Add, X0, X1),
                      SymExpr::intConst(2)),
  };
  auto A = solveConstraints(Cs, 2, 0);
  ASSERT_TRUE(A.has_value());
  EXPECT_GT(A->Ints[0], 3);
  EXPECT_LT(A->Ints[1], -2);
  EXPECT_EQ(A->Ints[0] + A->Ints[1], 2);
}

TEST(SolverTest, EmptyConstraintsTriviallySat) {
  auto A = solveConstraints({}, 3, 1);
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(A->Ints.size(), 3u);
  EXPECT_EQ(A->Bools.size(), 1u);
}

TEST(SolverTest, UnsatReturnsNullopt) {
  SymExprPtr X0 = SymExpr::intVar(0);
  std::vector<SymExprPtr> Cs{
      SymExpr::binary(SymOp::Gt, X0, SymExpr::intConst(2)),
      SymExpr::binary(SymOp::Lt, X0, SymExpr::intConst(2)),
  };
  EXPECT_FALSE(solveConstraints(Cs, 1, 0).has_value());
}

TEST(SolverTest, BooleanConstraints) {
  SymExprPtr B0 = SymExpr::boolVar(0), B1 = SymExpr::boolVar(1);
  std::vector<SymExprPtr> Cs{
      SymExpr::binary(SymOp::And, B0, SymExpr::unary(SymOp::Not, B1))};
  auto A = solveConstraints(Cs, 0, 2);
  ASSERT_TRUE(A.has_value());
  EXPECT_TRUE(A->Bools[0]);
  EXPECT_FALSE(A->Bools[1]);
}

TEST(SolverTest, RespectsDomainBounds) {
  SolverOptions Options;
  Options.IntLo = -3;
  Options.IntHi = 3;
  SymExprPtr X0 = SymExpr::intVar(0);
  std::vector<SymExprPtr> Cs{
      SymExpr::binary(SymOp::Gt, X0, SymExpr::intConst(3))};
  // x0 > 3 is unsatisfiable within [-3, 3].
  EXPECT_FALSE(solveConstraints(Cs, 1, 0, Options).has_value());
}

TEST(SolverTest, QuickFeasibleAgreesOnEasyCases) {
  SymExprPtr X0 = SymExpr::intVar(0);
  std::vector<SymExprPtr> Sat{
      SymExpr::binary(SymOp::EqInt, X0, SymExpr::intConst(5))};
  EXPECT_TRUE(quickFeasible(Sat, 1, 0, SolverOptions()));
  std::vector<SymExprPtr> Unsat{SymExpr::boolConst(false)};
  EXPECT_FALSE(quickFeasible(Unsat, 0, 0, SolverOptions()));
}

//===----------------------------------------------------------------------===//
// Path enumeration
//===----------------------------------------------------------------------===//

TEST(SymExecTest, EnumeratesBothBranchesOfAbs) {
  Program P = mustParse(R"(
int myAbs(int a) {
  if (a < 0)
    return -a;
  return a;
}
)");
  auto Paths = enumeratePaths(P, P.Functions[0]);
  ASSERT_EQ(Paths.size(), 2u);
  expectWitnessesReplay(P, P.Functions[0], Paths);
}

TEST(SymExecTest, PathKeysAreDistinct) {
  Program P = mustParse(R"(
int classify(int a, int b) {
  if (a < b)
    return -1;
  if (a > b)
    return 1;
  return 0;
}
)");
  auto Paths = enumeratePaths(P, P.Functions[0]);
  ASSERT_EQ(Paths.size(), 3u);
  std::set<std::string> Keys;
  for (const SymbolicPath &Path : Paths)
    Keys.insert(Path.Trace.pathKey());
  EXPECT_EQ(Keys.size(), 3u);
  expectWitnessesReplay(P, P.Functions[0], Paths);
}

TEST(SymExecTest, LoopPathsBoundedAndWitnessed) {
  Program P = mustParse(R"(
int sumTo(int n) {
  int s = 0;
  for (int i = 0; i < n; i++)
    s += i;
  return s;
}
)");
  SymxOptions Options;
  Options.MaxPaths = 6;
  auto Paths = enumeratePaths(P, P.Functions[0], Options);
  EXPECT_GE(Paths.size(), 3u); // n <= 0, n == 1, n == 2, ...
  EXPECT_LE(Paths.size(), 6u);
  expectWitnessesReplay(P, P.Functions[0], Paths);
}

TEST(SymExecTest, ArrayElementsAreSymbolic) {
  Program P = mustParse(R"(
int countPositive(int[] a) {
  int n = 0;
  for (int i = 0; i < len(a); i++) {
    if (a[i] > 0)
      n++;
  }
  return n;
}
)");
  SymxOptions Options;
  Options.ArrayLengths = {3};
  Options.MaxPaths = 16;
  auto Paths = enumeratePaths(P, P.Functions[0], Options);
  // 2^3 = 8 sign combinations of a[0..2].
  EXPECT_EQ(Paths.size(), 8u);
  expectWitnessesReplay(P, P.Functions[0], Paths);
}

TEST(SymExecTest, SymbolicIndexFansOut) {
  Program P = mustParse(R"(
int getAt(int[] a, int i) {
  return a[i];
}
)");
  SymxOptions Options;
  Options.ArrayLengths = {3};
  auto Paths = enumeratePaths(P, P.Functions[0], Options);
  // The fan-out explores each in-bounds index, but all arms visit the
  // same statement sequence — one program path per Def. 2.2.
  EXPECT_EQ(Paths.size(), 1u);
  expectWitnessesReplay(P, P.Functions[0], Paths);
}

TEST(SymExecTest, ShortCircuitPathsMatchInterpreter) {
  Program P = mustParse(R"(
bool f(int a) {
  return a != 0 && 10 / a > 1;
}
)");
  auto Paths = enumeratePaths(P, P.Functions[0]);
  // The three short-circuit decisions all happen inside one return
  // statement, so they collapse to a single statement-level path — and
  // crucially, the a == 0 arm must have produced a valid witness rather
  // than a division fault.
  EXPECT_EQ(Paths.size(), 1u);
  expectWitnessesReplay(P, P.Functions[0], Paths);
}

TEST(SymExecTest, DivisionGuardedByImplicitConstraint) {
  Program P = mustParse("int f(int a) { return 10 / a; }");
  auto Paths = enumeratePaths(P, P.Functions[0]);
  // Only non-faulting executions: the witness must have a != 0.
  ASSERT_FALSE(Paths.empty());
  for (const SymbolicPath &Path : Paths)
    EXPECT_NE(Path.WitnessInputs[0].asInt(), 0);
  expectWitnessesReplay(P, P.Functions[0], Paths);
}

TEST(SymExecTest, BubbleSortPathsReplay) {
  Program P = mustParse(R"(
int[] sort(int[] A) {
  for (int i = 0; i < len(A); i++) {
    for (int j = 0; j + 1 < len(A) - i; j++) {
      if (A[j] > A[j + 1]) {
        int t = A[j];
        A[j] = A[j + 1];
        A[j + 1] = t;
      }
    }
  }
  return A;
}
)");
  SymxOptions Options;
  Options.ArrayLengths = {3};
  Options.MaxPaths = 8; // 2^3 comparison outcomes exist for length 3
  auto Paths = enumeratePaths(P, P.Functions[0], Options);
  EXPECT_GE(Paths.size(), 4u);
  expectWitnessesReplay(P, P.Functions[0], Paths);
}

TEST(SymExecTest, StringsAreConcreteCandidates) {
  Program P = mustParse(R"(
bool isRotation(string A, string B)
{
  if (len(A) != len(B))
    return false;
  for (int i = 1; i < len(A); i++) {
    string tail = substring(A, i, len(A) - i);
    string wrap = substring(A, 0, i);
    if (tail + wrap == B)
      return true;
  }
  return false;
}
)");
  SymxOptions Options;
  Options.StringCandidates = {"ab", "ba", "abc"};
  Options.MaxShapes = 9;
  auto Paths = enumeratePaths(P, P.Functions[0], Options);
  ASSERT_FALSE(Paths.empty());
  expectWitnessesReplay(P, P.Functions[0], Paths);
  // Shapes with unequal lengths give the early-return path; equal
  // lengths exercise the loop.
  std::set<size_t> TraceLengths;
  for (const SymbolicPath &Path : Paths)
    TraceLengths.insert(Path.Trace.length());
  EXPECT_GE(TraceLengths.size(), 2u);
}

TEST(SymExecTest, BoolParamsFork) {
  Program P = mustParse(R"(
int f(bool a, bool b) {
  if (a && b)
    return 2;
  if (a || b)
    return 1;
  return 0;
}
)");
  auto Paths = enumeratePaths(P, P.Functions[0]);
  // Statement-level paths: [if1 T, ret 2], [if1 F, if2 T, ret 1],
  // [if1 F, if2 F, ret 0] — (a=T,b=F) and (a=F,b=T) share the middle
  // one.
  EXPECT_EQ(Paths.size(), 3u);
  expectWitnessesReplay(P, P.Functions[0], Paths);
}

TEST(SymExecTest, UserCallsInlinedWithoutTracePollution) {
  Program P = mustParse(R"(
int sign(int x) { if (x < 0) return -1; if (x > 0) return 1; return 0; }
int f(int a) { return sign(a) * 10; }
)");
  const FunctionDecl *F = P.findFunction("f");
  ASSERT_NE(F, nullptr);
  auto Paths = enumeratePaths(P, *F);
  // The callee's branches are explored but invisible at f's statement
  // level, so they all collapse into f's single one-statement path.
  ASSERT_EQ(Paths.size(), 1u);
  EXPECT_EQ(Paths[0].Trace.length(), 1u); // only f's return is traced
  expectWitnessesReplay(P, *F, Paths);
}

TEST(SymExecTest, MaxPathsRespected) {
  Program P = mustParse(R"(
int f(int[] a) {
  int n = 0;
  for (int i = 0; i < len(a); i++)
    if (a[i] > 0)
      n++;
  return n;
}
)");
  SymxOptions Options;
  Options.ArrayLengths = {6};
  Options.MaxPaths = 5;
  auto Paths = enumeratePaths(P, P.Functions[0], Options);
  EXPECT_EQ(Paths.size(), 5u);
}

TEST(SymExecTest, StructFieldsAreSymbolic) {
  Program P = mustParse(R"(
struct Point { int x; int y; }
int quadrant(Point p) {
  if (p.x > 0 && p.y > 0) return 1;
  if (p.x < 0 && p.y > 0) return 2;
  if (p.x < 0 && p.y < 0) return 3;
  if (p.x > 0 && p.y < 0) return 4;
  return 0;
}
)");
  auto Paths = enumeratePaths(P, P.Functions[0],
                              [] {
                                SymxOptions O;
                                O.MaxPaths = 16;
                                return O;
                              }());
  EXPECT_GE(Paths.size(), 5u);
  expectWitnessesReplay(P, P.Functions[0], Paths);
}

TEST(SymExecTest, RunBudgetBoundsPrefixBlowup) {
  // Eight chained symbolic-index writes fan out into 8^8 decision
  // prefixes whose arms all dedup to the same statement-level path
  // key, so MaxPaths alone never stops the DFS. MaxRuns is the DFS's
  // own fuel: enumeration must return (with however many paths it
  // found) instead of wedging for hours (DESIGN.md §12).
  Program P = mustParse(R"(
int f(int a1, int a2, int a3, int a4, int a5, int a6, int a7, int a8) {
  int[] a = new int[8];
  a[a1] = 1;
  a[a2] = 2;
  a[a3] = 3;
  a[a4] = 4;
  a[a5] = 5;
  a[a6] = 6;
  a[a7] = 7;
  a[a8] = 8;
  return a[0];
}
)");
  SymxOptions Options;
  Options.MaxRuns = 200;
  auto Paths = enumeratePaths(P, P.Functions[0], Options);
  // One statement-level path exists and the budget is plenty to
  // complete (and dedup) at least one arm of it.
  EXPECT_EQ(Paths.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Integer semantics: symx wraps exactly like the interpreter
//===----------------------------------------------------------------------===//

TEST(SymxIntSemanticsTest, FoldingAndEvalWrapAtTheExtremes) {
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  auto Fold = [](SymOp Op, int64_t A, int64_t B) {
    SymExprPtr E =
        SymExpr::binary(Op, SymExpr::intConst(A), SymExpr::intConst(B));
    EXPECT_TRUE(E->isIntConst());
    return E->isIntConst() ? E->intValue() : 0;
  };
  EXPECT_EQ(Fold(SymOp::Div, Min, -1), Min);
  EXPECT_EQ(Fold(SymOp::Mod, Min, -1), 0);
  EXPECT_EQ(Fold(SymOp::Add, Max, 1), Min);
  EXPECT_EQ(Fold(SymOp::Sub, Min, 1), Max);
  EXPECT_EQ(Fold(SymOp::Mul, Max, 2), -2);
  EXPECT_EQ(SymExpr::unary(SymOp::Neg, SymExpr::intConst(Min))->intValue(),
            Min);
  EXPECT_EQ(SymExpr::unary(SymOp::Abs, SymExpr::intConst(Min))->intValue(),
            Min);

  // Unfolded expressions evaluate the same way under an assignment.
  SymExprPtr X = SymExpr::intVar(0);
  SymExprPtr Y = SymExpr::intVar(1);
  auto Eval = [&](SymOp Op, int64_t A, int64_t B) {
    std::optional<int64_t> V = SymExpr::binary(Op, X, Y)->evalInt({A, B}, {});
    EXPECT_TRUE(V.has_value());
    return V.value_or(0);
  };
  EXPECT_EQ(Eval(SymOp::Div, Min, -1), Min);
  EXPECT_EQ(Eval(SymOp::Mod, Min, -1), 0);
  EXPECT_EQ(Eval(SymOp::Add, Max, 1), Min);
  EXPECT_EQ(Eval(SymOp::Mul, Min, -1), Min);
  EXPECT_EQ(SymExpr::unary(SymOp::Neg, X)->evalInt({Min}, {}), Min);
  EXPECT_EQ(SymExpr::unary(SymOp::Abs, X)->evalInt({Min}, {}), Min);
}

TEST(SymxIntSemanticsTest, IntMinWitnessesReplay) {
  // Every path's condition mentions INT64_MIN / x; the witnesses must
  // drive the interpreter down the same paths, including x == -1.
  Program P = mustParse(R"(
int f(int x) {
  int m = -9223372036854775807 - 1;
  if (x == 0) { return 0; }
  int q = m / x;
  if (q == m) { return 1; }
  if (m % x == 0) { return 2; }
  return 3;
}
)");
  const FunctionDecl &Fn = P.Functions[0];
  std::vector<SymbolicPath> Paths = enumeratePaths(P, Fn);
  EXPECT_GE(Paths.size(), 3u);
  expectWitnessesReplay(P, Fn, Paths);
  // x == -1 takes the wrapping path: INT64_MIN / -1 == INT64_MIN.
  ExecResult R = execute(P, Fn, {Value::makeInt(-1)});
  ASSERT_TRUE(R.ok()) << R.ErrorMessage;
  EXPECT_EQ(R.ReturnValue.asInt(), 1);
}
