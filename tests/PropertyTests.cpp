//===-- tests/PropertyTests.cpp - Parameterized property sweeps -----------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Cross-module invariants checked as parameterized sweeps
// (TEST_P / INSTANTIATE_TEST_SUITE_P):
//
//  - every task in the library: all syntactic variants compute the same
//    function on random inputs (the property the dynamic feature
//    dimension of the corpus rests on);
//  - every program in a pool: all symbolically enumerated paths carry a
//    witness that the concrete interpreter replays on exactly that path;
//  - sorting variants: outputs are sorted permutations of the input;
//  - corpus generation round-trips through the pretty printer for many
//    seeds;
//  - dynamic-value tokenization is stable and respects bucket ordering.
//
//===----------------------------------------------------------------------===//

#include "dataset/Corpus.h"
#include "dataset/Tasks.h"
#include "lang/AstPrinter.h"
#include "lang/Parser.h"
#include "symx/SymExec.h"
#include "testgen/InputGen.h"
#include "trace/Vocabulary.h"

#include <gtest/gtest.h>

#include <algorithm>

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

std::vector<Value> copyInputs(const std::vector<Value> &Inputs) {
  std::vector<Value> Out;
  for (const Value &V : Inputs)
    Out.push_back(V.deepCopy());
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Task variant equivalence, one test per task
//===----------------------------------------------------------------------===//

class TaskEquivalenceP : public testing::TestWithParam<std::string> {};

TEST_P(TaskEquivalenceP, VariantsAgreeOnRandomInputs) {
  const TaskSpec *Task = nullptr;
  for (const TaskSpec &Candidate : taskLibrary())
    if (Candidate.Key == GetParam())
      Task = &Candidate;
  ASSERT_NE(Task, nullptr);

  std::vector<Program> Programs;
  for (const TaskVariant &Variant : Task->Variants)
    Programs.push_back(
        mustParse(replaceIdentifier(Variant.Source, "FN", "probe")));

  Rng R(0xC0FFEE ^ std::hash<std::string>{}(Task->Key));
  InputGenOptions Options;
  const FunctionDecl &Fn = Programs[0].Functions.back();
  for (int Trial = 0; Trial < 40; ++Trial) {
    std::vector<Value> Inputs = randomInputs(Fn, Programs[0], R, Options);
    ExecResult First =
        execute(Programs[0], Programs[0].Functions.back(),
                copyInputs(Inputs));
    for (size_t V = 1; V < Programs.size(); ++V) {
      ExecResult Other =
          execute(Programs[V], Programs[V].Functions.back(),
                  copyInputs(Inputs));
      ASSERT_EQ(First.ok(), Other.ok())
          << Task->Variants[V].Algorithm << " fault divergence";
      if (First.ok()) {
        EXPECT_TRUE(First.ReturnValue.equals(Other.ReturnValue))
            << Task->Variants[V].Algorithm << ": "
            << First.ReturnValue.str() << " vs "
            << Other.ReturnValue.str();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTasks, TaskEquivalenceP, [] {
      std::vector<std::string> Keys;
      for (const TaskSpec &Task : taskLibrary())
        if (Task.Variants.size() > 1)
          Keys.push_back(Task.Key);
      return testing::ValuesIn(Keys);
    }(),
    [](const testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

//===----------------------------------------------------------------------===//
// Symbolic witnesses replay, one test per subject program
//===----------------------------------------------------------------------===//

struct SymxSubject {
  const char *Name;
  const char *Source;
};

// Print a subject by name. gtest's default printer dumps the bytes of the
// two pointers, which change from run to run under ASLR and would leak into
// the test names gtest_discover_tests records.
void PrintTo(const SymxSubject &Subject, std::ostream *OS) {
  *OS << Subject.Name;
}

class SymxReplayP : public testing::TestWithParam<SymxSubject> {};

TEST_P(SymxReplayP, EveryWitnessReplaysItsPath) {
  Program P = mustParse(GetParam().Source);
  const FunctionDecl &Fn = P.Functions.back();
  SymxOptions Options;
  Options.MaxPaths = 16;
  std::vector<SymbolicPath> Paths = enumeratePaths(P, Fn, Options);
  ASSERT_FALSE(Paths.empty());
  for (const SymbolicPath &Path : Paths) {
    ExecResult R = execute(P, Fn, copyInputs(Path.WitnessInputs));
    ASSERT_TRUE(R.ok()) << R.ErrorMessage;
    EXPECT_EQ(pathKeyOf(R), Path.Trace.pathKey())
        << "condition: " << Path.conditionStr();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Subjects, SymxReplayP,
    testing::Values(
        SymxSubject{"abs", "int f(int a) { if (a < 0) return -a; "
                           "return a; }"},
        SymxSubject{"clamp", "int f(int x, int lo, int hi) { if (lo > hi) "
                             "return x; if (x < lo) return lo; if (x > hi) "
                             "return hi; return x; }"},
        SymxSubject{"loopSum", "int f(int n) { int s = 0; for (int i = 0; "
                               "i < n; i++) s += i; return s; }"},
        SymxSubject{"nestedBranch",
                    "int f(int a, int b) { if (a > 0) { if (b > 0) return "
                    "1; return 2; } if (b > 0) return 3; return 4; }"},
        SymxSubject{"modGuard", "int f(int a, int b) { if (b != 0 && a % b "
                                "== 0) return 1; return 0; }"},
        SymxSubject{"arrayScan",
                    "bool f(int[] a, int t) { for (int i = 0; i < len(a); "
                    "i++) { if (a[i] == t) return true; } return false; }"},
        SymxSubject{"boolLogic", "int f(bool p, bool q) { if (p && !q) "
                                 "return 1; if (!p || q) return 2; return "
                                 "3; }"},
        SymxSubject{"whileDiv", "int f(int n) { n = abs(n); int c = 0; "
                                "while (n > 0) { n /= 2; c++; } return "
                                "c; }"},
        SymxSubject{"whileBreak", "int f(int n) { int i = 0; while (true) "
                                  "{ if (i >= n) break; i++; } return i; }"},
        SymxSubject{"forContinue",
                    "int f(int[] a) { int s = 0; for (int i = 0; i < "
                    "len(a); i++) { if (a[i] < 0) continue; s += a[i]; } "
                    "return s; }"},
        SymxSubject{"declNoInit",
                    "int f(int a) { int r; bool seen; int[] xs; if (a > 3) "
                    "{ r = a; seen = true; } if (seen) return r + len(xs); "
                    "return -1; }"},
        SymxSubject{"forEver", "int f(int n) { int c = 0; for (;;) { if (c "
                               "* c >= n) return c; c++; } }"},
        SymxSubject{"helperInLoop",
                    "int clip(int x) { if (x > 10) return 10; return x; } "
                    "int f(int[] a) { int s = 0; for (int i = 0; i < "
                    "len(a); i++) s += clip(a[i]); if (s > 20) return 1; "
                    "return 0; }"},
        SymxSubject{"shadowedDecl",
                    "int f(int a) { int x = 1; if (a > 0) { int x = a; x = "
                    "x + 1; if (x > 5) a = x; } { int x = 2; a = a + x; } "
                    "if (a > x) return a; return x; }"},
        SymxSubject{"voidHelper",
                    "void bump(int[] a, int i) { a[i] = a[i] + 1; } int "
                    "f(int[] a) { bump(a, 0); if (a[0] > 5) return 1; "
                    "return 0; }"}),
    [](const testing::TestParamInfo<SymxSubject> &Info) {
      return Info.param.Name;
    });

//===----------------------------------------------------------------------===//
// Sorting correctness, one test per algorithm variant
//===----------------------------------------------------------------------===//

class SortVariantP : public testing::TestWithParam<std::string> {};

TEST_P(SortVariantP, OutputIsSortedPermutation) {
  const TaskSpec *Sort = nullptr;
  for (const TaskSpec &Task : taskLibrary())
    if (Task.Key == "sortArray")
      Sort = &Task;
  ASSERT_NE(Sort, nullptr);
  const TaskVariant *Variant = nullptr;
  for (const TaskVariant &Candidate : Sort->Variants)
    if (Candidate.Algorithm == GetParam())
      Variant = &Candidate;
  ASSERT_NE(Variant, nullptr);

  Program P = mustParse(replaceIdentifier(Variant->Source, "FN", "probe"));
  Rng R(2024);
  InputGenOptions Options;
  for (int Trial = 0; Trial < 50; ++Trial) {
    std::vector<Value> Inputs =
        randomInputs(P.Functions.back(), P, R, Options);
    std::vector<int64_t> Original;
    for (const Value &V : Inputs[0].elements())
      Original.push_back(V.asInt());
    ExecResult Result =
        execute(P, P.Functions.back(), copyInputs(Inputs));
    ASSERT_TRUE(Result.ok()) << Result.ErrorMessage;
    std::vector<int64_t> Got;
    for (const Value &V : Result.ReturnValue.elements())
      Got.push_back(V.asInt());
    std::vector<int64_t> Want = Original;
    std::sort(Want.begin(), Want.end());
    EXPECT_EQ(Got, Want);
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, SortVariantP,
                         testing::Values("bubble", "insertion",
                                         "bubble-flag", "selection"),
                         [](const testing::TestParamInfo<std::string> &I) {
                           std::string Name = I.param;
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });

//===----------------------------------------------------------------------===//
// Corpus programs round-trip through the printer, one test per seed
//===----------------------------------------------------------------------===//

class CorpusRoundTripP : public testing::TestWithParam<uint64_t> {};

TEST_P(CorpusRoundTripP, GeneratedMethodsRoundTrip) {
  CorpusOptions Options;
  Options.NumMethods = 15;
  Options.TraceGen.TargetPaths = 3;
  Options.TraceGen.ExecutionsPerPath = 2;
  Options.TraceGen.MaxAttempts = 40;
  Options.Seed = GetParam();
  std::vector<MethodSample> Samples = generateMethodCorpus(Options);
  ASSERT_FALSE(Samples.empty());
  for (const MethodSample &Sample : Samples) {
    std::string Printed = printProgram(*Sample.Prog);
    DiagnosticSink Diags;
    std::optional<Program> Reparsed = parseAndCheck(Printed, Diags);
    ASSERT_TRUE(Reparsed.has_value()) << Diags.str() << "\n" << Printed;
    EXPECT_EQ(printProgram(*Reparsed), Printed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusRoundTripP,
                         testing::Values(1u, 2u, 3u, 4u, 5u, 101u, 202u));

//===----------------------------------------------------------------------===//
// Value tokenization, parameterized over magnitudes
//===----------------------------------------------------------------------===//

class ValueTokenP : public testing::TestWithParam<int64_t> {};

TEST_P(ValueTokenP, StableAndWellFormed) {
  int64_t X = GetParam();
  Value V = Value::makeInt(X);
  std::string Token = valueToken(V);
  EXPECT_FALSE(Token.empty());
  // Idempotent.
  EXPECT_EQ(valueToken(V), Token);
  // Exact in the small range, bucketed outside.
  if (X >= -64 && X <= 64) {
    EXPECT_EQ(Token, std::to_string(X));
  } else {
    EXPECT_EQ(Token.front(), '<');
  }
  // Sign is preserved by the bucket spelling.
  if (X < -64) {
    EXPECT_NE(Token.find('-'), std::string::npos);
  }
  if (X > 64) {
    EXPECT_NE(Token.find('+'), std::string::npos);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Magnitudes, ValueTokenP,
    testing::Values(-1000000, -70000, -5000, -300, -65, -64, -1, 0, 1, 63,
                    64, 65, 100, 257, 4096, 70000, 1000000));
