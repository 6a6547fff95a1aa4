//===-- tests/InterpTests.cpp - Unit tests for the interpreter ------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "lang/Lexer.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <set>

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

Value intArray(std::initializer_list<int64_t> Values) {
  std::vector<Value> Elements;
  for (int64_t V : Values)
    Elements.push_back(Value::makeInt(V));
  return Value::makeArray(std::move(Elements));
}

std::vector<int64_t> toInts(const Value &Array) {
  std::vector<int64_t> Out;
  for (const Value &V : Array.elements())
    Out.push_back(V.asInt());
  return Out;
}

/// The paper's Fig. 1(a) bubble sort, in MiniLang.
const char *SortI = R"(
int[] sortI(int[] A)
{
  int left = 0;
  int right = len(A) - 1;
  for (int i = right; i > left; i--) {
    for (int j = left; j < i; j++) {
      if (A[j] > A[j + 1]) {
        int tmp = A[j];
        A[j] = A[j + 1];
        A[j + 1] = tmp;
      }
    }
  }
  return A;
}
)";

/// The paper's Fig. 1(b) insertion sort, in MiniLang.
const char *SortII = R"(
int[] sortII(int[] A)
{
  int left = 0;
  int right = len(A);
  for (int i = left; i < right; i++) {
    for (int j = i - 1; j >= left; j--) {
      if (A[j] > A[j + 1]) {
        int tmp = A[j];
        A[j] = A[j + 1];
        A[j + 1] = tmp;
      }
    }
  }
  return A;
}
)";

/// The paper's Fig. 1(c) flag-controlled bubble sort, in MiniLang.
const char *SortIII = R"(
int[] sortIII(int[] A)
{
  int swapbit = 1;
  while (swapbit != 0) {
    swapbit = 0;
    for (int i = 0; i < len(A) - 1; i++) {
      if (A[i] > A[i + 1]) {
        int tmp = A[i];
        A[i] = A[i + 1];
        A[i + 1] = tmp;
        swapbit = 1;
      }
    }
  }
  return A;
}
)";

/// The paper's Fig. 4 string-rotation check, in MiniLang.
const char *IsStringRotation = R"(
bool isStringRotation(string A, string B)
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
)";

} // namespace

//===----------------------------------------------------------------------===//
// Basic evaluation
//===----------------------------------------------------------------------===//

TEST(InterpTest, Arithmetic) {
  Program P = mustParse(
      "int f(int a, int b) { return (a + b) * (a - b) % 7 + b / a; }");
  ExecResult R = execute(P, P.Functions[0],
                         {Value::makeInt(3), Value::makeInt(5)});
  ASSERT_TRUE(R.ok()) << R.ErrorMessage;
  EXPECT_EQ(R.ReturnValue.asInt(), (3 + 5) * (3 - 5) % 7 + 5 / 3);
}

TEST(InterpTest, ShortCircuitAvoidsError) {
  // Without short circuit, 1/0 would fault.
  Program P = mustParse(
      "bool f(int a) { return a == 0 || 10 / a > 1; }");
  ExecResult R = execute(P, P.Functions[0], {Value::makeInt(0)});
  ASSERT_TRUE(R.ok()) << R.ErrorMessage;
  EXPECT_TRUE(R.ReturnValue.asBool());

  Program P2 = mustParse(
      "bool f(int a) { return a != 0 && 10 / a > 1; }");
  ExecResult R2 = execute(P2, P2.Functions[0], {Value::makeInt(0)});
  ASSERT_TRUE(R2.ok()) << R2.ErrorMessage;
  EXPECT_FALSE(R2.ReturnValue.asBool());
}

TEST(InterpTest, StringOps) {
  Program P = mustParse(R"(
string f(string s) { return substring(s, 1, 2) + s[0]; }
)");
  ExecResult R = execute(P, P.Functions[0], {Value::makeString("abcd")});
  ASSERT_TRUE(R.ok()) << R.ErrorMessage;
  EXPECT_EQ(R.ReturnValue.asString(), "bca");
}

TEST(InterpTest, BuiltinMath) {
  Program P = mustParse(
      "int f(int a, int b) { return abs(a - b) + min(a, b) * max(a, b); }");
  ExecResult R = execute(P, P.Functions[0],
                         {Value::makeInt(-2), Value::makeInt(5)});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue.asInt(), 7 + (-2) * 5);
}

TEST(InterpTest, ArrayAliasing) {
  // Arrays are reference types: mutation through one name is visible
  // through another.
  Program P = mustParse(R"(
int f(int[] a) {
  int[] b = a;
  b[0] = 42;
  return a[0];
}
)");
  ExecResult R = execute(P, P.Functions[0], {intArray({1, 2})});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue.asInt(), 42);
}

TEST(InterpTest, StructFieldUpdate) {
  Program P = mustParse(R"(
struct Point { int x; int y; }
int f() {
  Point p = new Point(1, 2);
  p.x = p.x + p.y;
  return p.x;
}
)");
  ExecResult R = execute(P, P.Functions[0], {});
  ASSERT_TRUE(R.ok()) << R.ErrorMessage;
  EXPECT_EQ(R.ReturnValue.asInt(), 3);
}

TEST(InterpTest, UserFunctionCalls) {
  Program P = mustParse(R"(
int square(int x) { return x * x; }
int f(int n) { return square(n) + square(n + 1); }
)");
  const FunctionDecl *F = P.findFunction("f");
  ASSERT_NE(F, nullptr);
  ExecResult R = execute(P, *F, {Value::makeInt(3)});
  ASSERT_TRUE(R.ok()) << R.ErrorMessage;
  EXPECT_EQ(R.ReturnValue.asInt(), 9 + 16);
}

TEST(InterpTest, RecursionWithinDepthLimit) {
  Program P = mustParse(R"(
int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
)");
  ExecResult R = execute(P, P.Functions[0], {Value::makeInt(6)});
  ASSERT_TRUE(R.ok()) << R.ErrorMessage;
  EXPECT_EQ(R.ReturnValue.asInt(), 720);
}

TEST(InterpTest, UnboundedRecursionFails) {
  Program P = mustParse("int f(int n) { return f(n + 1); }");
  ExecResult R = execute(P, P.Functions[0], {Value::makeInt(0)});
  EXPECT_EQ(R.Status, ExecStatus::RuntimeError);
}

//===----------------------------------------------------------------------===//
// The paper's example programs (Fig. 1 and Fig. 4)
//===----------------------------------------------------------------------===//

TEST(InterpTest, ThreeSortsAgreeOnPaperInput) {
  // Fig. 2 input: A = [8, 5, 1, 4, 3].
  std::vector<int64_t> Expected{1, 3, 4, 5, 8};
  for (const char *Source : {SortI, SortII, SortIII}) {
    Program P = mustParse(Source);
    ExecResult R = execute(P, P.Functions[0], {intArray({8, 5, 1, 4, 3})});
    ASSERT_TRUE(R.ok()) << R.ErrorMessage;
    EXPECT_EQ(toInts(R.ReturnValue), Expected);
  }
}

TEST(InterpTest, SortsHandleEdgeCases) {
  for (const char *Source : {SortI, SortII, SortIII}) {
    Program P = mustParse(Source);
    // Empty, single, duplicates, already sorted, reverse sorted.
    for (auto Input : std::vector<std::vector<int64_t>>{
             {}, {7}, {2, 2, 2}, {1, 2, 3}, {3, 2, 1}, {5, -1, 5, -1}}) {
      std::vector<Value> Elements;
      for (int64_t V : Input)
        Elements.push_back(Value::makeInt(V));
      ExecResult R =
          execute(P, P.Functions[0], {Value::makeArray(Elements)});
      ASSERT_TRUE(R.ok()) << R.ErrorMessage;
      std::vector<int64_t> Got = toInts(R.ReturnValue);
      std::vector<int64_t> Want = Input;
      std::sort(Want.begin(), Want.end());
      EXPECT_EQ(Got, Want);
    }
  }
}

TEST(InterpTest, StringRotation) {
  Program P = mustParse(IsStringRotation);
  auto Run = [&](const char *A, const char *B) {
    ExecResult R = execute(P, P.Functions[0],
                           {Value::makeString(A), Value::makeString(B)});
    EXPECT_TRUE(R.ok()) << R.ErrorMessage;
    return R.ReturnValue.asBool();
  };
  EXPECT_TRUE(Run("abc", "bca"));
  EXPECT_TRUE(Run("abc", "cab"));
  EXPECT_FALSE(Run("abc", "abc")); // the paper's loop starts at i = 1
  EXPECT_FALSE(Run("abc", "acb"));
  EXPECT_FALSE(Run("abc", "abcd"));
}

//===----------------------------------------------------------------------===//
// Runtime errors and fuel
//===----------------------------------------------------------------------===//

TEST(InterpTest, DivisionByZero) {
  Program P = mustParse("int f(int a) { return 1 / a; }");
  ExecResult R = execute(P, P.Functions[0], {Value::makeInt(0)});
  EXPECT_EQ(R.Status, ExecStatus::RuntimeError);
  EXPECT_NE(R.ErrorMessage.find("division by zero"), std::string::npos);
}

TEST(InterpTest, ModuloByZero) {
  Program P = mustParse("int f(int a) { return 1 % a; }");
  ExecResult R = execute(P, P.Functions[0], {Value::makeInt(0)});
  EXPECT_EQ(R.Status, ExecStatus::RuntimeError);
}

TEST(InterpTest, IndexOutOfRange) {
  Program P = mustParse("int f(int[] a, int i) { return a[i]; }");
  ExecResult R = execute(P, P.Functions[0],
                         {intArray({1, 2, 3}), Value::makeInt(3)});
  EXPECT_EQ(R.Status, ExecStatus::RuntimeError);
  ExecResult R2 = execute(P, P.Functions[0],
                          {intArray({1, 2, 3}), Value::makeInt(-1)});
  EXPECT_EQ(R2.Status, ExecStatus::RuntimeError);
}

TEST(InterpTest, SubstringOutOfRange) {
  Program P = mustParse(
      "string f(string s, int i) { return substring(s, i, 2); }");
  ExecResult R = execute(P, P.Functions[0],
                         {Value::makeString("ab"), Value::makeInt(1)});
  EXPECT_EQ(R.Status, ExecStatus::RuntimeError);
}

TEST(InterpTest, NegativeArraySize) {
  Program P = mustParse("int f(int n) { int[] a = new int[n]; return 0; }");
  ExecResult R = execute(P, P.Functions[0], {Value::makeInt(-1)});
  EXPECT_EQ(R.Status, ExecStatus::RuntimeError);
}

TEST(InterpTest, InfiniteLoopRunsOutOfFuel) {
  Program P = mustParse("void f() { while (true) { } }");
  InterpOptions Options;
  Options.Fuel = 500;
  ExecResult R = execute(P, P.Functions[0], {}, Options);
  EXPECT_EQ(R.Status, ExecStatus::OutOfFuel);
  EXPECT_EQ(R.FuelUsed, 500u);
}

//===----------------------------------------------------------------------===//
// Instrumentation: traces and states
//===----------------------------------------------------------------------===//

TEST(InterpTest, VariableTupleOrder) {
  Program P = mustParse(SortI);
  std::vector<std::string> Tuple = collectVariableTuple(P.Functions[0]);
  EXPECT_EQ(Tuple, (std::vector<std::string>{"A", "left", "right", "i", "j",
                                             "tmp"}));
}

TEST(InterpTest, InitialStateHasParamsAndBottoms) {
  Program P = mustParse(SortI);
  ExecResult R = execute(P, P.Functions[0], {intArray({2, 1})});
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.InitialState.size(), 6u);
  EXPECT_TRUE(R.InitialState[0].isArray()); // A
  EXPECT_TRUE(R.InitialState[1].isUndef()); // left is ⊥ before its decl
  EXPECT_TRUE(R.InitialState[5].isUndef()); // tmp
}

TEST(InterpTest, StepsRecordStatementsAndOutcomes) {
  Program P = mustParse(R"(
int f(int a) {
  if (a > 0)
    return 1;
  return 0;
}
)");
  ExecResult R = execute(P, P.Functions[0], {Value::makeInt(5)});
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.Steps.size(), 2u);
  EXPECT_EQ(R.Steps[0].Kind, StepKind::CondTrue);
  EXPECT_EQ(R.Steps[1].Statement->kind(), StmtKind::Return);

  ExecResult R2 = execute(P, P.Functions[0], {Value::makeInt(-5)});
  ASSERT_TRUE(R2.ok());
  ASSERT_EQ(R2.Steps.size(), 2u);
  EXPECT_EQ(R2.Steps[0].Kind, StepKind::CondFalse);
}

TEST(InterpTest, StatesAreDeepCopies) {
  // After in-place mutation, earlier snapshots must keep the old values.
  Program P = mustParse(R"(
int[] f(int[] a) {
  a[0] = 99;
  a[1] = 77;
  return a;
}
)");
  ExecResult R = execute(P, P.Functions[0], {intArray({1, 2})});
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(R.Steps.size(), 3u);
  ASSERT_EQ(R.States.size(), R.Steps.size());
  // Step 0 state: a = [99, 2]; step 1 state: a = [99, 77].
  EXPECT_EQ(R.States[0][0].elements()[0].asInt(), 99);
  EXPECT_EQ(R.States[0][0].elements()[1].asInt(), 2);
  EXPECT_EQ(R.States[1][0].elements()[1].asInt(), 77);
}

TEST(InterpTest, LoopBodyStatesMatchFigureTwo) {
  // Count the array-mutation steps of bubble sort on the Fig. 2 input:
  // every swap is two element assignments plus a tmp declaration.
  Program P = mustParse(SortIII);
  ExecResult R = execute(P, P.Functions[0], {intArray({8, 5, 1, 4, 3})});
  ASSERT_TRUE(R.ok());
  size_t AssignsToA = 0;
  for (const ExecStep &Step : R.Steps) {
    if (const auto *Assign = dyn_cast<AssignStmt>(Step.Statement))
      if (isa<IndexExpr>(Assign->target()))
        ++AssignsToA;
  }
  // [8,5,1,4,3] needs 8 swaps to sort (4 + 3 + 1 across passes); each
  // swap writes A twice.
  EXPECT_EQ(AssignsToA, 16u);
}

TEST(InterpTest, RecordStatesOffLeavesStatesEmpty) {
  Program P = mustParse(SortI);
  InterpOptions Options;
  Options.RecordStates = false;
  ExecResult R = execute(P, P.Functions[0], {intArray({3, 1, 2})}, Options);
  ASSERT_TRUE(R.ok());
  EXPECT_FALSE(R.Steps.empty());
  EXPECT_TRUE(R.States.empty());
}

TEST(InterpTest, CalleeStatementsNotTraced) {
  Program P = mustParse(R"(
int helper(int x) { int y = x * 2; return y; }
int f(int a) { int r = helper(a); return r; }
)");
  const FunctionDecl *F = P.findFunction("f");
  ExecResult R = execute(P, *F, {Value::makeInt(4)});
  ASSERT_TRUE(R.ok());
  // Only f's two statements are traced, not helper's.
  ASSERT_EQ(R.Steps.size(), 2u);
  EXPECT_EQ(R.ReturnValue.asInt(), 8);
  // And f's variable tuple does not contain helper's locals.
  EXPECT_EQ(R.VarNames, (std::vector<std::string>{"a", "r"}));
}

TEST(InterpTest, MaxRecordedStepsCapsTrace) {
  Program P = mustParse(
      "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; "
      "return s; }");
  InterpOptions Options;
  Options.MaxRecordedSteps = 10;
  ExecResult R = execute(P, P.Functions[0], {Value::makeInt(100)}, Options);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Steps.size(), 10u);
  EXPECT_EQ(R.ReturnValue.asInt(), 4950); // execution still completed
}

//===----------------------------------------------------------------------===//
// Value model
//===----------------------------------------------------------------------===//

TEST(ValueTest, DeepCopyDisconnectsStorage) {
  Value A = intArray({1, 2, 3});
  Value B = A.deepCopy();
  A.elements()[0] = Value::makeInt(9);
  EXPECT_EQ(B.elements()[0].asInt(), 1);
}

TEST(ValueTest, EqualsIsStructural) {
  EXPECT_TRUE(intArray({1, 2}).equals(intArray({1, 2})));
  EXPECT_FALSE(intArray({1, 2}).equals(intArray({2, 1})));
  EXPECT_FALSE(intArray({1}).equals(intArray({1, 1})));
  EXPECT_FALSE(Value::makeInt(1).equals(Value::makeBool(true)));
  EXPECT_TRUE(Value::undef().equals(Value::undef()));
}

TEST(ValueTest, StrRendersPaperNotation) {
  EXPECT_EQ(intArray({8, 5, 1}).str(), "[8, 5, 1]");
  EXPECT_EQ(Value::makeInt(-3).str(), "-3");
  EXPECT_EQ(Value::undef().str(), "⊥");
  EXPECT_EQ(Value::makeString("ab").str(), "\"ab\"");
}

TEST(ValueTest, FlattenYieldsAttrArray) {
  Value Arr = intArray({4, 7});
  std::vector<Value> Leaves;
  Arr.flatten(Leaves);
  ASSERT_EQ(Leaves.size(), 2u);
  EXPECT_EQ(Leaves[0].asInt(), 4);
  EXPECT_EQ(Leaves[1].asInt(), 7);
}

TEST(ValueTest, ZeroOfTypes) {
  EXPECT_EQ(Value::zeroOf(Type::intTy(), nullptr).asInt(), 0);
  EXPECT_FALSE(Value::zeroOf(Type::boolTy(), nullptr).asBool());
  EXPECT_EQ(Value::zeroOf(Type::stringTy(), nullptr).asString(), "");
  EXPECT_TRUE(
      Value::zeroOf(Type::arrayOf(TypeKind::Int), nullptr).elements().empty());
}

//===----------------------------------------------------------------------===//
// Hardening: memory budget, totality on hostile inputs (DESIGN.md §12)
//===----------------------------------------------------------------------===//

namespace {

/// Lex + parse only, skipping the type checker — models hostile inputs
/// that reach the interpreter without the checker's guarantees (testgen
/// runs methods whose checking stage was bypassed or raced).
Program parseOnly(const std::string &Source) {
  DiagnosticSink Diags;
  Lexer Lex(Source, Diags);
  Parser P(Lex.lexAll(), Diags);
  Program Prog = P.parseProgram();
  EXPECT_FALSE(Prog.Functions.empty()) << Diags.str();
  return Prog;
}

} // namespace

TEST(InterpHardeningTest, StringDoublingHitsMemoryLimit) {
  // s = s + s doubles every iteration: 2^60 bytes long before fuel runs
  // out. Pre-budget this OOM'd the process.
  Program P = mustParse(R"(
    int f() {
      string s = "aaaaaaaaaaaaaaaa";
      for (int i = 0; i < 60; i++) { s = s + s; }
      return len(s);
    }
  )");
  InterpOptions Options;
  Options.MaxMemoryBytes = 1u << 20;
  ExecResult R = execute(P, P.Functions[0], {}, Options);
  EXPECT_EQ(R.Status, ExecStatus::MemoryLimit);
}

TEST(InterpHardeningTest, ArrayChurnHitsMemoryLimit) {
  // Each allocation is modest but accounting is monotone, so repeated
  // large allocations exhaust the budget even though peak live memory
  // stays flat.
  Program P = mustParse(R"(
    int f() {
      int total = 0;
      for (int i = 0; i < 100000; i++) {
        int[] a = new int[10000];
        total = total + len(a);
      }
      return total;
    }
  )");
  InterpOptions Options;
  Options.MaxMemoryBytes = 4u << 20;
  ExecResult R = execute(P, P.Functions[0], {}, Options);
  EXPECT_EQ(R.Status, ExecStatus::MemoryLimit);
}

TEST(InterpHardeningTest, GenerousBudgetLeavesNormalRunsUntouched) {
  Program P = mustParse(SortI);
  ExecResult R = execute(P, P.Functions[0], {intArray({5, 2, 4, 1, 3})});
  ASSERT_EQ(R.Status, ExecStatus::Ok);
  EXPECT_EQ(toInts(R.ReturnValue), (std::vector<int64_t>{1, 2, 3, 4, 5}));
}

TEST(InterpHardeningTest, AllTerminalStatusesWellFormed) {
  // Table-driven sweep over the four terminal statuses: every result —
  // truncated or not — must carry consistent bookkeeping.
  struct Case {
    const char *Name;
    const char *Source;
    ExecStatus Expected;
  };
  const Case Cases[] = {
      {"ok", "int f() { int x = 1; return x + 1; }", ExecStatus::Ok},
      {"fuel", "int f() { int x = 0; while (true) { x = x + 1; } return x; }",
       ExecStatus::OutOfFuel},
      {"runtime", "int f() { int x = 0; return 1 / x; }",
       ExecStatus::RuntimeError},
      {"memory",
       "int f() { string s = \"aaaaaaaa\"; while (true) { s = s + s; } "
       "return len(s); }",
       ExecStatus::MemoryLimit},
  };
  InterpOptions Options;
  Options.Fuel = 2000;
  Options.MaxMemoryBytes = 1u << 20;
  Options.MaxRecordedSteps = 64;
  for (const Case &C : Cases) {
    Program P = mustParse(C.Source);
    ExecResult R = execute(P, P.Functions[0], {}, Options);
    EXPECT_EQ(R.Status, C.Expected) << C.Name << ": " << R.ErrorMessage;
    EXPECT_GT(R.FuelUsed, 0u) << C.Name;
    EXPECT_LE(R.FuelUsed, Options.Fuel) << C.Name;
    EXPECT_LE(R.Steps.size(), Options.MaxRecordedSteps) << C.Name;
    EXPECT_EQ(R.InitialState.size(), R.VarNames.size()) << C.Name;
    // Even a truncated trace is valid: every recorded snapshot aligns
    // with the variable tuple.
    ASSERT_EQ(R.States.size(), R.Steps.size()) << C.Name;
    for (size_t I = 0; I < R.Steps.size(); ++I) {
      ASSERT_NE(R.Steps[I].Statement, nullptr) << C.Name;
      EXPECT_EQ(R.States[I].size(), R.VarNames.size()) << C.Name;
    }
    if (C.Expected != ExecStatus::Ok) {
      EXPECT_FALSE(R.ErrorMessage.empty()) << C.Name;
    }
  }
}

TEST(InterpHardeningTest, ProbeAndRecordReachSameTerminalState) {
  // The trace collector probes with RecordStates=false, then re-runs
  // recording. Snapshot bytes are charged in both modes, so the
  // terminal status and fuel must not depend on the recording flag.
  const char *Sources[] = {
      "int f() { int x = 1; for (int i = 0; i < 50; i++) { x = x * 2; } "
      "return x; }",
      "int f() { string s = \"aaaaaaaa\"; while (true) { s = s + s; } "
      "return len(s); }",
      "int f() { int x = 0; while (true) { x = x + 1; } return x; }",
  };
  for (const char *Source : Sources) {
    Program P = mustParse(Source);
    InterpOptions Probe;
    Probe.Fuel = 3000;
    Probe.MaxMemoryBytes = 1u << 20;
    Probe.RecordStates = false;
    InterpOptions Record = Probe;
    Record.RecordStates = true;
    ExecResult A = execute(P, P.Functions[0], {}, Probe);
    ExecResult B = execute(P, P.Functions[0], {}, Record);
    EXPECT_EQ(A.Status, B.Status) << Source;
    EXPECT_EQ(A.FuelUsed, B.FuelUsed) << Source;
  }
}

TEST(InterpHardeningTest, NonIntegerArraySizeIsRuntimeError) {
  // `new int[b]` with a bool size never passes the type checker, but the
  // interpreter must still reject it (satellite c: typecheck bypassed).
  Program P = parseOnly(
      "int f(bool b) { int[] a = new int[b]; return len(a); }");
  ExecResult R = execute(P, P.Functions[0], {Value::makeBool(true)});
  EXPECT_EQ(R.Status, ExecStatus::RuntimeError);
  EXPECT_NE(R.ErrorMessage.find("array size"), std::string::npos)
      << R.ErrorMessage;
}

TEST(InterpHardeningTest, TypeConfusedOperandsAreRuntimeErrors) {
  // Un-typechecked ASTs exercise every operand trust point; all must
  // fail totally instead of asserting.
  const char *Sources[] = {
      "int f() { string s = \"a\"; return s + 1; }",
      "int f(bool b) { return -b; }",
      "int f() { if (1) { return 1; } return 0; }",
      "int f() { P p; return 0; }",
      "int g(int x) { return x; } int f() { return g(); }",
      "int f() { string s = \"a\"; return s[0] * 2; }",
      "int f(bool b) { while (b + 1) { return 1; } return 0; }",
  };
  for (const char *Source : Sources) {
    Program P = parseOnly(Source);
    const FunctionDecl *Fn = P.findFunction("f");
    ASSERT_NE(Fn, nullptr) << Source;
    std::vector<Value> Args;
    for (size_t I = 0; I < Fn->Params.size(); ++I)
      Args.push_back(Value::makeBool(true));
    ExecResult R = execute(P, *Fn, Args);
    EXPECT_EQ(R.Status, ExecStatus::RuntimeError) << Source;
    EXPECT_FALSE(R.ErrorMessage.empty()) << Source;
  }
}

TEST(InterpHardeningTest, NestedStructZeroIsRuntimeError) {
  // The type checker rejects a struct-typed field. Without it, zeroing
  // such a struct for a declaration used to abort the process.
  const char *Sources[] = {
      "struct P { int x; int y; } struct Q { P p; int z; } "
      "int f(int n) { Q q; int t = n + 1; return t; }",
      "struct P { int x; } struct Q { P p; } "
      "int f(int n) { while (n > 0) { Q q; n = n - 1; } return n; }",
  };
  for (const char *Source : Sources) {
    Program P = parseOnly(Source);
    ExecResult R = execute(P, *P.findFunction("f"), {Value::makeInt(2)});
    EXPECT_EQ(R.Status, ExecStatus::RuntimeError) << Source;
    EXPECT_NE(R.ErrorMessage.find("struct 'Q' has a struct-typed field 'p'"),
              std::string::npos)
        << R.ErrorMessage;
  }
}

TEST(InterpHardeningTest, SubstringChargesAndBoundsChecks) {
  Program P = mustParse(R"(
    string f(string s, int i, int n) { return substring(s, i, n); }
  )");
  // In-bounds works.
  ExecResult Ok = execute(
      P, P.Functions[0],
      {Value::makeString("hello"), Value::makeInt(1), Value::makeInt(3)});
  ASSERT_EQ(Ok.Status, ExecStatus::Ok);
  EXPECT_EQ(Ok.ReturnValue.asString(), "ell");
  // Out-of-bounds is a runtime error, not UB.
  ExecResult Bad = execute(
      P, P.Functions[0],
      {Value::makeString("hello"), Value::makeInt(3), Value::makeInt(9)});
  EXPECT_EQ(Bad.Status, ExecStatus::RuntimeError);
}

//===----------------------------------------------------------------------===//
// Integer semantics: Java's wrapping 64-bit two's complement
//===----------------------------------------------------------------------===//

namespace {

constexpr int64_t IntMin = std::numeric_limits<int64_t>::min();
constexpr int64_t IntMax = std::numeric_limits<int64_t>::max();

/// Runs `int f(int d)` and returns its int result, asserting Ok.
int64_t runIntFn(const std::string &Body, int64_t D) {
  Program P = mustParse("int f(int d) { int m = -9223372036854775807 - 1; "
                        "int M = 9223372036854775807; " +
                        Body + " }");
  ExecResult R = execute(P, P.Functions[0], {Value::makeInt(D)});
  EXPECT_EQ(R.Status, ExecStatus::Ok) << Body << ": " << R.ErrorMessage;
  return R.ok() && R.ReturnValue.isInt() ? R.ReturnValue.asInt() : 0;
}

} // namespace

TEST(InterpIntSemanticsTest, IntMinDivByMinusOneWraps) {
  EXPECT_EQ(runIntFn("return m / d;", -1), IntMin);
  EXPECT_EQ(runIntFn("return m % d;", -1), 0);
  EXPECT_EQ(runIntFn("int c = m; c /= d; return c;", -1), IntMin);
  EXPECT_EQ(runIntFn("int c = m; c %= d; return c;", -1), 0);
  // Ordinary divisors keep C/Java truncation toward zero.
  EXPECT_EQ(runIntFn("return m / d;", 2), IntMin / 2);
  EXPECT_EQ(runIntFn("return (0 - 7) / d;", 2), -3);
  EXPECT_EQ(runIntFn("return (0 - 7) % d;", 2), -1);
  EXPECT_EQ(runIntFn("return 7 % d;", -2), 1);
}

TEST(InterpIntSemanticsTest, OverflowWrapsAround) {
  EXPECT_EQ(runIntFn("return M + d;", 1), IntMin);
  EXPECT_EQ(runIntFn("return m - d;", 1), IntMax);
  EXPECT_EQ(runIntFn("return M * d;", 2), -2);
  EXPECT_EQ(runIntFn("return -m;", 0), IntMin);
  EXPECT_EQ(runIntFn("return abs(m);", 0), IntMin);
  EXPECT_EQ(runIntFn("return abs(M);", 0), IntMax);
  EXPECT_EQ(runIntFn("int c = M; c += d; return c;", 1), IntMin);
  EXPECT_EQ(runIntFn("int c = m; c -= d; return c;", 1), IntMax);
  EXPECT_EQ(runIntFn("int c = M; c *= d; return c;", 2), -2);
  EXPECT_EQ(runIntFn("int c = M; c++; return c;", 0), IntMin);
}

TEST(InterpIntSemanticsTest, IntMinDivReproRunsOk) {
  // Used to raise SIGFPE inside execute() (tests/fuzz-corpus/
  // runtime_int_min_div.mini holds the same method).
  Program P = mustParse(
      "int f() { int m = -9223372036854775807 - 1; int q = m / -1; "
      "return q; }");
  ExecResult R = execute(P, P.Functions[0], {});
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.ErrorMessage;
  EXPECT_EQ(R.ReturnValue.asInt(), IntMin);
  // Division by zero is still a runtime error, not a wrap.
  Program Zero = mustParse("int f(int d) { return d % d; }");
  EXPECT_EQ(execute(Zero, Zero.Functions[0], {Value::makeInt(0)}).Status,
            ExecStatus::RuntimeError);
}

//===----------------------------------------------------------------------===//
// Frame layout: scoping is unchanged by slot resolution
//===----------------------------------------------------------------------===//

TEST(FrameLayoutTest, TupleSlotsComeFirstInTupleOrder) {
  Program P = mustParse(R"(
int helper(int q) { int z = q; return z; }
int f(int a) {
  int r = helper(a);
  for (int i = 0; i < 2; i++) { int t = i; r += t; }
  return r;
}
)");
  const FunctionDecl *F = P.findFunction("f");
  FrameLayout Layout(P, *F);
  EXPECT_EQ(Layout.varNames(), collectVariableTuple(*F));
  // helper's q and z get slots of their own after f's tuple.
  EXPECT_EQ(Layout.numSlots(), Layout.varNames().size() + 2);
  EXPECT_EQ(Layout.paramSlots(*F), (std::vector<uint32_t>{0}));
  ExecResult R = execute(Layout, {Value::makeInt(5)});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue.asInt(), 6);
}

TEST(FrameLayoutTest, ShadowingAndOutOfScopeValues) {
  // An inner declaration shadows the outer one only inside its block;
  // after the block the snapshot shows the outer binding again, and a
  // variable whose block ended keeps its last value (not ⊥).
  Program P = mustParse(R"(
int f(int a) {
  int x = a;
  if (a > 0) { int x = 100; int y = x + 1; }
  int w = x;
  return w;
}
)");
  ExecResult R = execute(P, P.Functions[0], {Value::makeInt(3)});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ReturnValue.asInt(), 3);
  ASSERT_EQ(R.VarNames, (std::vector<std::string>{"a", "x", "y", "w"}));
  // Steps: x=a, cond, x=100 (inner), y=x+1, w=x, return.
  ASSERT_EQ(R.Steps.size(), 6u);
  ASSERT_EQ(R.States.size(), R.Steps.size());
  EXPECT_EQ(R.States[2][1].asInt(), 100); // inner x visible
  EXPECT_EQ(R.States[3][2].asInt(), 101);
  EXPECT_EQ(R.States[4][1].asInt(), 3);   // outer x again
  EXPECT_EQ(R.States[4][2].asInt(), 101); // y out of scope, kept
}

TEST(FrameLayoutTest, CalleeSeesCallerBindingsWithoutTypeCheck) {
  // Without the type checker a callee's unbound name resolves to the
  // innermost live binding of the caller (scoping is dynamic); a name
  // bound nowhere is a runtime error.
  Program P = parseOnly(
      "int g() { return k + 1; } int f() { int k = 41; return g(); }");
  ExecResult R = execute(P, *P.findFunction("f"), {});
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.ErrorMessage;
  EXPECT_EQ(R.ReturnValue.asInt(), 42);
  ExecResult Unbound = execute(P, *P.findFunction("g"), {});
  EXPECT_EQ(Unbound.Status, ExecStatus::RuntimeError);
  EXPECT_NE(Unbound.ErrorMessage.find("use of undeclared variable 'k'"),
            std::string::npos)
      << Unbound.ErrorMessage;
}

//===----------------------------------------------------------------------===//
// Cycle detection: repeated loop states are skipped, not re-executed
//===----------------------------------------------------------------------===//

namespace {

/// Runs `f()` of \p Source with \p Fuel and otherwise default budgets,
/// and fails the test if it takes a second or more.
ExecResult runWithin1s(const char *Source, uint64_t Fuel) {
  Program P = mustParse(Source);
  InterpOptions Options;
  Options.Fuel = Fuel;
  auto Start = std::chrono::steady_clock::now();
  ExecResult R = execute(P, P.Functions[0], {}, Options);
  EXPECT_LT(std::chrono::steady_clock::now() - Start, std::chrono::seconds(1))
      << Source;
  return R;
}

} // namespace

TEST(InterpCycleTest, HugeFuelSpinIsDecided) {
  // The corpus's injected defect repeats its state every iteration.
  // Interpreted statement by statement, 2^40 fuel would take hours.
  ExecResult R = runWithin1s(
      "int f() { int spin3 = 0; while (spin3 == 0) { spin3 = spin3 * 1; } "
      "return spin3; }",
      uint64_t(1) << 40);
  EXPECT_EQ(R.Status, ExecStatus::OutOfFuel);
  EXPECT_EQ(R.FuelUsed, uint64_t(1) << 40);
  EXPECT_EQ(R.Steps.size(), InterpOptions().MaxRecordedSteps);
  EXPECT_EQ(R.ErrorMessage, "fuel budget exhausted (1099511627776 statements)");
}

TEST(InterpCycleTest, HugeFuelAllocationLoopsStopAtTheMemoryBudget) {
  // Each cycle allocates, so the memory budget ends the run. The fuel
  // figures come from running these without cycle detection.
  ExecResult Array = runWithin1s(
      "int f() { int n = 0; while (n == 0) { int[] a = new int[1]; } "
      "return n; }",
      uint64_t(1) << 40);
  EXPECT_EQ(Array.Status, ExecStatus::MemoryLimit);
  EXPECT_EQ(Array.FuelUsed, 4177925u);
  EXPECT_EQ(Array.Steps.size(), InterpOptions().MaxRecordedSteps);
  ExecResult Rotation = runWithin1s(
      "int f() { string s = \"ab\"; while (len(s) == 2) { "
      "s = substring(s, 1, 1) + substring(s, 0, 1); } return 0; }",
      uint64_t(1) << 40);
  EXPECT_EQ(Rotation.Status, ExecStatus::MemoryLimit);
  EXPECT_EQ(Rotation.FuelUsed, 2009090u);
  EXPECT_EQ(Rotation.Steps.size(), InterpOptions().MaxRecordedSteps);
}

TEST(InterpCycleTest, SkippedCyclesRecordDeepCopies) {
  // Steps appended for skipped cycles own their states, like every
  // other recorded step.
  ExecResult R = runWithin1s(
      "int f() { int[] a = new int[2]; "
      "while (a[0] == 0) { a[1] = 1 - a[1]; } return 0; }",
      InterpOptions().Fuel);
  ASSERT_EQ(R.Status, ExecStatus::OutOfFuel);
  ASSERT_EQ(R.Steps.size(), InterpOptions().MaxRecordedSteps);
  ASSERT_EQ(R.States.size(), R.Steps.size());
  std::set<const std::vector<Value> *> Storage;
  for (const std::vector<Value> &State : R.States) {
    ASSERT_TRUE(State[0].isArray());
    EXPECT_TRUE(Storage.insert(&State[0].elements()).second);
  }
}
