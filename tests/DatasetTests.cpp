//===-- tests/DatasetTests.cpp - Unit tests for corpus generation ---------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "dataset/Corpus.h"
#include "dataset/Tasks.h"

#include "support/Hash.h"
#include "support/StringUtils.h"

#include "lang/AstPrinter.h"
#include "lang/Parser.h"
#include "testgen/InputGen.h"
#include "testgen/TraceCache.h"
#include "testgen/TraceCollector.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>

using namespace liger;

//===----------------------------------------------------------------------===//
// replaceIdentifier
//===----------------------------------------------------------------------===//

TEST(ReplaceIdentifierTest, WholeWordOnly) {
  EXPECT_EQ(replaceIdentifier("i + if (i) index i;", "i", "j"),
            "j + if (j) index j;");
  EXPECT_EQ(replaceIdentifier("arr[i] + array", "arr", "xs"),
            "xs[i] + array");
  EXPECT_EQ(replaceIdentifier("my_i i_my i", "i", "j"), "my_i i_my j");
}

TEST(ReplaceIdentifierTest, NoOccurrences) {
  EXPECT_EQ(replaceIdentifier("abc def", "xyz", "q"), "abc def");
}

TEST(ReplaceIdentifierTest, AdjacentOccurrences) {
  EXPECT_EQ(replaceIdentifier("i,i;i", "i", "jj"), "jj,jj;jj");
}

//===----------------------------------------------------------------------===//
// Task library integrity
//===----------------------------------------------------------------------===//

TEST(TaskLibraryTest, NonEmptyAndWellFormed) {
  const auto &Library = taskLibrary();
  EXPECT_GE(Library.size(), 25u);
  std::set<std::string> Keys;
  for (const TaskSpec &Task : Library) {
    EXPECT_TRUE(Keys.insert(Task.Key).second) << "duplicate " << Task.Key;
    EXPECT_FALSE(Task.NameParts.empty());
    EXPECT_FALSE(Task.Variants.empty());
    for (const auto &Part : Task.NameParts)
      EXPECT_FALSE(Part.empty());
  }
}

TEST(TaskLibraryTest, TenCosetProblems) {
  EXPECT_EQ(cosetProblems().size(), 10u);
  // COSET problems must offer at least two algorithm classes each.
  for (const TaskSpec *Problem : cosetProblems())
    EXPECT_GE(Problem->Variants.size(), 2u) << Problem->Key;
}

TEST(TaskLibraryTest, EveryVariantCompiles) {
  for (const TaskSpec &Task : taskLibrary()) {
    for (const TaskVariant &Variant : Task.Variants) {
      std::string Source = replaceIdentifier(Variant.Source, "FN", "probe");
      DiagnosticSink Diags;
      EXPECT_TRUE(parseAndCheck(Source, Diags).has_value())
          << Task.Key << "/" << Variant.Algorithm << ":\n"
          << Diags.str();
    }
  }
}

namespace {

/// Executes a compiled variant on \p Inputs (deep-copied) and returns
/// the result value; reports crashes via HasError.
Value runVariant(const Program &P, const std::vector<Value> &Inputs,
                 bool &HasError) {
  const FunctionDecl &Fn = P.Functions.back();
  std::vector<Value> Copy;
  for (const Value &V : Inputs)
    Copy.push_back(V.deepCopy());
  ExecResult R = execute(P, Fn, Copy);
  HasError = !R.ok();
  return R.ReturnValue;
}

} // namespace

TEST(TaskLibraryTest, VariantsAreSemanticallyEquivalent) {
  // The core corpus property: all variants of one task compute the same
  // function (the dynamic feature dimension depends on it).
  Rng R(1234);
  InputGenOptions InputOptions;
  for (const TaskSpec &Task : taskLibrary()) {
    if (Task.Variants.size() < 2)
      continue;
    // Compile all variants once.
    std::vector<Program> Programs;
    for (const TaskVariant &Variant : Task.Variants) {
      DiagnosticSink Diags;
      auto P =
          parseAndCheck(replaceIdentifier(Variant.Source, "FN", "probe"),
                        Diags);
      ASSERT_TRUE(P.has_value()) << Task.Key << ": " << Diags.str();
      Programs.push_back(std::move(*P));
    }
    const FunctionDecl &Fn = Programs[0].Functions.back();
    for (int Trial = 0; Trial < 25; ++Trial) {
      std::vector<Value> Inputs =
          randomInputs(Fn, Programs[0], R, InputOptions);
      bool Error0 = false;
      Value Expected = runVariant(Programs[0], Inputs, Error0);
      for (size_t V = 1; V < Programs.size(); ++V) {
        bool ErrorV = false;
        Value Got = runVariant(Programs[V], Inputs, ErrorV);
        EXPECT_EQ(Error0, ErrorV)
            << Task.Key << " variant " << Task.Variants[V].Algorithm
            << " fault divergence";
        if (!Error0 && !ErrorV) {
          EXPECT_TRUE(Expected.equals(Got))
              << Task.Key << " variant " << Task.Variants[V].Algorithm
              << ": " << Expected.str() << " vs " << Got.str();
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Method-name corpus
//===----------------------------------------------------------------------===//

namespace {

CorpusOptions smallCorpusOptions() {
  CorpusOptions Options;
  Options.NumMethods = 40;
  Options.TraceGen.TargetPaths = 4;
  Options.TraceGen.ExecutionsPerPath = 3;
  Options.TraceGen.MaxAttempts = 80;
  Options.Seed = 9;
  return Options;
}

} // namespace

TEST(CorpusTest, GeneratesUsableSamples) {
  CorpusStats Stats;
  auto Samples = generateMethodCorpus(smallCorpusOptions(), &Stats);
  EXPECT_EQ(Stats.Requested, 40u);
  EXPECT_GE(Stats.Kept, 30u); // no defects injected: most should pass
  EXPECT_EQ(Samples.size(), Stats.Kept);
  for (const MethodSample &Sample : Samples) {
    EXPECT_NE(Sample.Fn, nullptr);
    EXPECT_FALSE(Sample.NameSubtokens.empty());
    EXPECT_FALSE(Sample.Traces.Paths.empty());
    EXPECT_FALSE(Sample.Project.empty());
    // The function name must split exactly into the labels.
    EXPECT_EQ(splitSubtokens(Sample.Fn->Name), Sample.NameSubtokens);
  }
}

TEST(CorpusTest, DeterministicUnderSeed) {
  auto A = generateMethodCorpus(smallCorpusOptions());
  auto B = generateMethodCorpus(smallCorpusOptions());
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Fn->Name, B[I].Fn->Name);
    EXPECT_EQ(A[I].Traces.Paths.size(), B[I].Traces.Paths.size());
  }
}

TEST(CorpusTest, SeedChangesCorpus) {
  CorpusOptions Options = smallCorpusOptions();
  auto A = generateMethodCorpus(Options);
  Options.Seed = 10;
  auto B = generateMethodCorpus(Options);
  bool AnyDifferent = A.size() != B.size();
  for (size_t I = 0; !AnyDifferent && I < A.size(); ++I)
    AnyDifferent = A[I].Fn->Name != B[I].Fn->Name;
  EXPECT_TRUE(AnyDifferent);
}

TEST(CorpusTest, FilterPipelineCountsDefects) {
  CorpusOptions Options = smallCorpusOptions();
  Options.NumMethods = 80;
  Options.SyntaxDefectRate = 0.15;
  Options.ExternalRefRate = 0.1;
  Options.NonTerminationRate = 0.08;
  Options.TooSmallRate = 0.1;
  CorpusStats Stats;
  auto Samples = generateMethodCorpus(Options, &Stats);
  EXPECT_GT(Stats.ParseFailures, 0u);
  EXPECT_GT(Stats.ExternalRefFailures, 0u);
  EXPECT_GT(Stats.TestgenTimeouts, 0u);
  EXPECT_GT(Stats.TooSmall, 0u);
  EXPECT_LT(Stats.Kept, Stats.Requested);
  EXPECT_EQ(Stats.Kept + Stats.ParseFailures + Stats.ExternalRefFailures +
                Stats.TestgenTimeouts + Stats.TestgenMemoryBombs +
                Stats.TooSmall + Stats.NoTraces,
            Stats.Requested);
  EXPECT_EQ(Samples.size(), Stats.Kept);
}

TEST(CorpusTest, MethodsTraceBudgetRespectsOptions) {
  CorpusOptions Options = smallCorpusOptions();
  auto Samples = generateMethodCorpus(Options);
  for (const MethodSample &Sample : Samples) {
    EXPECT_LE(Sample.Traces.Paths.size(), 4u);
    for (const BlendedTrace &Path : Sample.Traces.Paths)
      EXPECT_LE(Path.numConcrete(), 3u);
  }
}

//===----------------------------------------------------------------------===//
// COSET corpus
//===----------------------------------------------------------------------===//

TEST(CosetCorpusTest, LabelsAndClassNames) {
  CosetOptions Options;
  Options.ProgramsPerClass = 3;
  Options.TraceGen.TargetPaths = 4;
  Options.TraceGen.ExecutionsPerPath = 2;
  Options.TraceGen.MaxAttempts = 60;
  std::vector<std::string> ClassNames;
  auto Samples = generateCosetCorpus(Options, ClassNames);
  ASSERT_FALSE(Samples.empty());
  // 10 problems with >= 2 algorithms each.
  EXPECT_GE(ClassNames.size(), 20u);
  std::set<int> SeenClasses;
  for (const MethodSample &Sample : Samples) {
    ASSERT_GE(Sample.ClassId, 0);
    ASSERT_LT(static_cast<size_t>(Sample.ClassId), ClassNames.size());
    SeenClasses.insert(Sample.ClassId);
    EXPECT_FALSE(Sample.Traces.Paths.empty());
  }
  // Nearly every class should be realized.
  EXPECT_GE(SeenClasses.size(), ClassNames.size() - 2);
}

//===----------------------------------------------------------------------===//
// Splitting
//===----------------------------------------------------------------------===//

TEST(SplitTest, ProjectsAreDisjoint) {
  auto Samples = generateMethodCorpus(smallCorpusOptions());
  SplitCorpus Split = splitByProject(Samples, 0.2, 0.2, 5);
  auto Projects = [](const std::vector<MethodSample> &Part) {
    std::set<std::string> Out;
    for (const MethodSample &Sample : Part)
      Out.insert(Sample.Project);
    return Out;
  };
  std::set<std::string> Train = Projects(Split.Train);
  std::set<std::string> Valid = Projects(Split.Valid);
  std::set<std::string> Test = Projects(Split.Test);
  for (const std::string &P : Valid) {
    EXPECT_FALSE(Train.count(P));
    EXPECT_FALSE(Test.count(P));
  }
  for (const std::string &P : Test)
    EXPECT_FALSE(Train.count(P));
  EXPECT_EQ(Split.Train.size() + Split.Valid.size() + Split.Test.size(),
            Samples.size());
  EXPECT_FALSE(Split.Train.empty());
  EXPECT_FALSE(Split.Test.empty());
}

//===----------------------------------------------------------------------===//
// Printer round trip over the whole template library
//===----------------------------------------------------------------------===//

TEST(TaskLibraryTest, EveryVariantRoundTripsThroughPrinter) {
  for (const TaskSpec &Task : taskLibrary()) {
    for (const TaskVariant &Variant : Task.Variants) {
      std::string Source = replaceIdentifier(Variant.Source, "FN", "probe");
      DiagnosticSink D1;
      auto P1 = parseAndCheck(Source, D1);
      ASSERT_TRUE(P1.has_value()) << Task.Key << ": " << D1.str();
      std::string Printed1 = printProgram(*P1);
      DiagnosticSink D2;
      auto P2 = parseAndCheck(Printed1, D2);
      ASSERT_TRUE(P2.has_value())
          << Task.Key << "/" << Variant.Algorithm << ": " << D2.str();
      EXPECT_EQ(printProgram(*P2), Printed1)
          << Task.Key << "/" << Variant.Algorithm;
    }
  }
}

//===----------------------------------------------------------------------===//
// Parallel determinism and the trace cache
//===----------------------------------------------------------------------===//

namespace {

void expectFunnelEqual(const CorpusStats &A, const CorpusStats &B) {
  EXPECT_EQ(A.Requested, B.Requested);
  EXPECT_EQ(A.ParseFailures, B.ParseFailures);
  EXPECT_EQ(A.ExternalRefFailures, B.ExternalRefFailures);
  EXPECT_EQ(A.TestgenTimeouts, B.TestgenTimeouts);
  EXPECT_EQ(A.TestgenMemoryBombs, B.TestgenMemoryBombs);
  EXPECT_EQ(A.TooSmall, B.TooSmall);
  EXPECT_EQ(A.NoTraces, B.NoTraces);
  EXPECT_EQ(A.Kept, B.Kept);
}

} // namespace

TEST(CorpusParallelEquivalenceTest, MethodCorpusBitwiseAcrossThreads) {
  CorpusOptions Options = smallCorpusOptions();
  // Include every filter stage so scheduling can't silently reorder
  // the funnel accounting either.
  Options.NumMethods = 48;
  Options.SyntaxDefectRate = 0.10;
  Options.ExternalRefRate = 0.10;
  Options.NonTerminationRate = 0.05;
  Options.TooSmallRate = 0.08;

  uint64_t Baseline = 0;
  CorpusStats BaseStats;
  for (size_t Threads : {1u, 2u, 4u}) {
    Options.Threads = Threads;
    CorpusStats Stats;
    auto Samples = generateMethodCorpus(Options, &Stats);
    uint64_t Fingerprint = corpusFingerprint(Samples);
    if (Threads == 1) {
      Baseline = Fingerprint;
      BaseStats = Stats;
      EXPECT_GT(Samples.size(), 0u);
      continue;
    }
    EXPECT_EQ(Fingerprint, Baseline) << "threads=" << Threads;
    expectFunnelEqual(Stats, BaseStats);
  }
}

TEST(CorpusParallelEquivalenceTest, CosetCorpusBitwiseAcrossThreads) {
  CosetOptions Options;
  Options.ProgramsPerClass = 2;
  Options.TraceGen.TargetPaths = 3;
  Options.TraceGen.ExecutionsPerPath = 2;
  Options.TraceGen.MaxAttempts = 40;
  Options.Seed = 21;

  uint64_t Baseline = 0;
  CorpusStats BaseStats;
  std::vector<std::string> BaseNames;
  for (size_t Threads : {1u, 4u}) {
    Options.Threads = Threads;
    std::vector<std::string> ClassNames;
    CorpusStats Stats;
    auto Samples = generateCosetCorpus(Options, ClassNames, &Stats);
    uint64_t Fingerprint = corpusFingerprint(Samples);
    if (Threads == 1) {
      Baseline = Fingerprint;
      BaseStats = Stats;
      BaseNames = ClassNames;
      EXPECT_GT(Samples.size(), 0u);
      continue;
    }
    EXPECT_EQ(Fingerprint, Baseline) << "threads=" << Threads;
    EXPECT_EQ(ClassNames, BaseNames);
    expectFunnelEqual(Stats, BaseStats);
  }
}

TEST(CorpusTraceCacheTest, OffColdWarmBitwiseIdentical) {
  CorpusOptions Options = smallCorpusOptions();
  Options.NumMethods = 24;
  std::string Dir = testing::TempDir() + "/liger_corpus_trace_cache";
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);

  CorpusStats OffStats;
  auto OffSamples = generateMethodCorpus(Options, &OffStats);
  uint64_t OffFp = corpusFingerprint(OffSamples);
  EXPECT_GT(OffStats.CacheBypassed, 0u);
  EXPECT_EQ(OffStats.CacheHits + OffStats.CacheMisses, 0u);

  CorpusStats ColdStats;
  uint64_t ColdFp;
  {
    TraceCache Cache(TraceCacheMode::Full, Dir);
    Options.Cache = &Cache;
    auto Samples = generateMethodCorpus(Options, &ColdStats);
    ColdFp = corpusFingerprint(Samples);
    // Same pipeline invocations as the off run, all misses.
    EXPECT_EQ(ColdStats.CacheMisses, OffStats.CacheBypassed);
    EXPECT_EQ(ColdStats.CacheHits, 0u);
  }

  // A fresh cache on the same directory simulates a restarted process:
  // every method must be served from disk.
  TraceCache Warm(TraceCacheMode::Full, Dir);
  Options.Cache = &Warm;
  Options.Threads = 4; // hits must be deterministic under threading too
  CorpusStats WarmStats;
  auto WarmSamples = generateMethodCorpus(Options, &WarmStats);
  uint64_t WarmFp = corpusFingerprint(WarmSamples);

  EXPECT_EQ(ColdFp, OffFp);
  EXPECT_EQ(WarmFp, OffFp);
  EXPECT_EQ(WarmStats.CacheMisses, 0u);
  EXPECT_EQ(WarmStats.CacheHits, OffStats.CacheBypassed);
  expectFunnelEqual(ColdStats, OffStats);
  expectFunnelEqual(WarmStats, OffStats);
}

TEST(CorpusTraceCacheTest, SharedMemoryCacheAcrossThreads) {
  // One memory-only cache shared by four workers: the cold pass stores
  // concurrently, and the warm pass parses the shared entry buffers
  // concurrently, outside the cache's lock.
  CorpusOptions Options = smallCorpusOptions();
  Options.NumMethods = 24;
  Options.Threads = 4;

  CorpusStats OffStats;
  uint64_t OffFp = corpusFingerprint(generateMethodCorpus(Options, &OffStats));
  EXPECT_GT(OffStats.CacheBypassed, 0u);

  TraceCache Cache(TraceCacheMode::Full, "");
  Options.Cache = &Cache;
  CorpusStats ColdStats, WarmStats;
  uint64_t ColdFp =
      corpusFingerprint(generateMethodCorpus(Options, &ColdStats));
  uint64_t WarmFp =
      corpusFingerprint(generateMethodCorpus(Options, &WarmStats));

  EXPECT_EQ(ColdFp, OffFp);
  EXPECT_EQ(WarmFp, OffFp);
  EXPECT_EQ(ColdStats.CacheMisses, OffStats.CacheBypassed);
  EXPECT_EQ(WarmStats.CacheMisses, 0u);
  EXPECT_EQ(WarmStats.CacheHits, OffStats.CacheBypassed);
  EXPECT_EQ(Cache.entries(), OffStats.CacheBypassed);
  expectFunnelEqual(ColdStats, OffStats);
  expectFunnelEqual(WarmStats, OffStats);
}

//===----------------------------------------------------------------------===//
// Golden digests: interpreter outputs and one Table-1 corpus, pinned
//===----------------------------------------------------------------------===//

namespace {

void hashValues(StableHash &H, const std::vector<Value> &Values) {
  H.addU64(Values.size());
  for (const Value &V : Values)
    H.addString(V.str());
}

/// Folds every field of \p R into \p H: status, message, fuel, return
/// value, variable tuple, initial state, and each step's statement id,
/// kind and state (empty for a run that recorded no states).
void hashExecResult(StableHash &H, const ExecResult &R) {
  H.addU8(static_cast<uint8_t>(R.Status));
  H.addString(R.ErrorMessage);
  H.addU64(R.FuelUsed);
  H.addString(R.ReturnValue.str());
  H.addU64(R.VarNames.size());
  for (const std::string &Name : R.VarNames)
    H.addString(Name);
  hashValues(H, R.InitialState);
  H.addU64(R.Steps.size());
  ASSERT_TRUE(R.States.empty() || R.States.size() == R.Steps.size());
  const std::vector<Value> NoState;
  for (size_t I = 0; I < R.Steps.size(); ++I) {
    H.addU32(R.Steps[I].Statement->id());
    H.addU8(static_cast<uint8_t>(R.Steps[I].Kind));
    hashValues(H, R.States.empty() ? NoState : R.States[I]);
  }
}

/// The Table 1 defect mix of bench/pipeline_throughput.
void applyTable1DefectMix(CorpusOptions &Options) {
  Options.SyntaxDefectRate = 0.20;
  Options.ExternalRefRate = 0.45;
  Options.NonTerminationRate = 0.05;
  Options.TooSmallRate = 0.12;
}

} // namespace

// The digests below were computed before the interpreter moved from
// name-keyed frames to slot layouts; any change to what an execution
// records, charges or reports shows up here.
TEST(GoldenDigestTest, TaskLibraryExecutions) {
  InterpOptions Record;
  InterpOptions Probe;
  Probe.RecordStates = false;
  // Tight budgets pin the fuel and memory charging rules: many runs end
  // OutOfFuel or MemoryLimit part-way, with a truncated trace.
  InterpOptions Tight;
  Tight.Fuel = 40;
  Tight.MaxMemoryBytes = 2048;
  Tight.MaxRecordedSteps = 12;
  const InterpOptions *Configs[] = {&Record, &Probe, &Tight};

  Rng R(20200615);
  InputGenOptions InputOptions;
  StableHash H;
  size_t Runs = 0;
  std::map<ExecStatus, size_t> StatusCounts;
  for (const TaskSpec &Task : taskLibrary())
    for (const TaskVariant &Variant : Task.Variants) {
      DiagnosticSink Diags;
      std::optional<Program> P = parseAndCheck(
          replaceIdentifier(Variant.Source, "FN", "probe"), Diags);
      ASSERT_TRUE(P.has_value()) << Task.Key << ": " << Diags.str();
      const FunctionDecl &Fn = P->Functions.back();
      for (int Trial = 0; Trial < 6; ++Trial) {
        std::vector<Value> Inputs = randomInputs(Fn, *P, R, InputOptions);
        for (const InterpOptions *Options : Configs) {
          std::vector<Value> Copy;
          for (const Value &V : Inputs)
            Copy.push_back(V.deepCopy());
          ExecResult Run = execute(*P, Fn, Copy, *Options);
          hashExecResult(H, Run);
          ++StatusCounts[Run.Status];
          ++Runs;
        }
      }
    }
  EXPECT_EQ(Runs, 1296u);
  EXPECT_EQ(StatusCounts[ExecStatus::OutOfFuel], 4u);
  EXPECT_EQ(StatusCounts[ExecStatus::MemoryLimit], 30u);
  EXPECT_EQ(StatusCounts[ExecStatus::RuntimeError], 0u);
  EXPECT_EQ(H.digest(), 10886156763121302215ull);
}

// The trace collector at its default settings (TestGenOptions: the
// paper's TargetPaths of 20, where ExperimentScale and the Table 1
// digest use 8) over every task-library variant. The digest was
// computed before discovery probes learned to look up a repeated
// input's outcome and before a recorded step lost its inline state:
// the traces, the inputs and the six discovery counters must not
// notice either.
TEST(GoldenDigestTest, TaskLibraryCollections) {
  TestGenOptions Options;
  StableHash H;
  size_t Methods = 0, Paths = 0, Executions = 0;
  for (const TaskSpec &Task : taskLibrary())
    for (const TaskVariant &Variant : Task.Variants) {
      DiagnosticSink Diags;
      std::optional<Program> P = parseAndCheck(
          replaceIdentifier(Variant.Source, "FN", "probe"), Diags);
      ASSERT_TRUE(P.has_value()) << Task.Key << ": " << Diags.str();
      CollectStats Stats;
      MethodTraces Traces =
          collectTraces(*P, P->Functions.back(), Options, &Stats);
      for (unsigned Counter :
           {Stats.Attempts, Stats.OkRuns, Stats.Faults, Stats.Timeouts,
            Stats.MemoryExceeded, Stats.SymbolicSeeds})
        H.addU32(Counter);
      H.addU64(Traces.VarNames.size());
      for (const std::string &Name : Traces.VarNames)
        H.addString(Name);
      H.addU64(Traces.Paths.size());
      for (const BlendedTrace &Path : Traces.Paths) {
        H.addU64(Path.Symbolic.Steps.size());
        for (const SymbolicStep &Step : Path.Symbolic.Steps) {
          H.addU32(Step.Statement->id());
          H.addU8(static_cast<uint8_t>(Step.Kind));
        }
        H.addU64(Path.Concrete.size());
        for (size_t I = 0; I < Path.Concrete.size(); ++I) {
          const StateTrace &Run = Path.Concrete[I];
          hashValues(H, Path.Inputs[I]);
          hashValues(H, Run.Initial.Values);
          H.addU64(Run.States.size());
          for (const ProgramState &State : Run.States)
            hashValues(H, State.Values);
        }
        ++Paths;
        Executions += Path.Concrete.size();
      }
      ++Methods;
    }
  EXPECT_EQ(Methods, 72u);
  EXPECT_EQ(Paths, 706u);
  EXPECT_EQ(Executions, 3508u);
  EXPECT_EQ(H.digest(), 11948855298204782057ull);
}

// Loops whose engine state repeats at a back-edge, and a few that only
// look as if it does. The digest was computed before the interpreter
// learned to skip repeated cycles: a skipped cycle must leave every
// step, charge and status where a full run puts it.
TEST(GoldenDigestTest, PeriodicLoopExecutions) {
  const char *Sources[] = {
      // Period 1: the corpus's injected non-termination defect.
      "int f() { int spin3 = 0; while (spin3 == 0) { spin3 = spin3 * 1; } "
      "return spin3; }",
      // Period 3 over an int.
      "int f() { int i = 0; while (i < 5) { i = (i + 1) % 3; } return i; }",
      // Period 2 over a bool.
      "int f() { bool b = true; int n = 0; while (n == 0) { b = !b; } "
      "return n; }",
      // Period 3 over a string; every cycle allocates fresh strings.
      "int f() { string s = \"abc\"; while (len(s) > 0) { "
      "s = substring(s, 1, 2) + substring(s, 0, 1); } return len(s); }",
      // Period 6 over an array mutated in place, in a for loop whose
      // body continues.
      "int f() { int[] a = new int[3]; "
      "for (int i = 0; i >= 0; i = (i + 1) % 3) { a[i] = 1 - a[i]; "
      "if (i == 1) { continue; } a[0] = a[0] * 1; } return a[0]; }",
      // Period 2 over a struct, through a body-local tuple variable that
      // outlives each iteration as its last known value.
      "struct P { int x; int y; } int f() { P p = new P(0, 1); "
      "while (p.x >= 0) { int t = p.x; p.x = p.y; p.y = t; } return p.x; }",
      // A spinning loop inside a callee, where nothing is traced.
      "int g(int k) { while (k >= 0) { k = k * 1; } return k; } "
      "int f() { int r = g(1); return r; }",
      // A terminating loop inside a callee: the traced tuple stays the
      // same while it runs.
      "int g(int n) { int i = 0; while (i < n) { i = i + 1; } return i; } "
      "int f() { int r = g(2000); return r; }",
      // Nested loops: the inner loop ends every time, the outer repeats.
      "int f() { int s = 0; while (s >= 0) { s = 0; "
      "for (int j = 0; j < 3; j++) { s = s + j; } s = s - 3; } return s; }",
      // Nested loops: the outer loop runs once, the inner one spins.
      "int f() { int s = 1; while (s > 0) { s = s + 1; "
      "for (int j = 0; j < 1; j = j * 1) { s = s * 1; } } return s; }",
      // One allocation per cycle: the memory budget trips first, after
      // the recording cap with the default budgets and before it with
      // the tight ones.
      "int f() { int n = 0; while (n == 0) { int[] a = new int[500]; } "
      "return n; }",
      "int f() { int n = 0; while (n == 0) { int[] a = new int[7]; } "
      "return n; }",
      // Five recorded steps per cycle: the recording cap falls inside a
      // cycle.
      "int f() { int a = 0; int b = 0; "
      "while (a == 0) { b = 1; b = 2; b = 0; a = b; } return a; }",
      // The alias trap: a and b start as two distinct [0] arrays, so the
      // loop entry and the first back-edge hold equal values but not
      // equal heaps. The loop ends on its third test.
      "int f() { int[] a = new int[1]; int[] b = new int[1]; "
      "while (a[0] == 0) { b[0] = 1; if (a[0] == 0) { b[0] = 0; b = a; } } "
      "return a[0]; }",
      // A counter never repeats its state: it runs until the fuel is gone.
      "int f() { int x = 0; while (true) { x = x + 1; } return x; }",
  };
  InterpOptions Record;
  InterpOptions Probe;
  Probe.RecordStates = false;
  // A budget this small arms the cycle detector at the loop entry.
  InterpOptions Tight;
  Tight.Fuel = 40;
  Tight.MaxMemoryBytes = 2048;
  Tight.MaxRecordedSteps = 12;
  const InterpOptions *Configs[] = {&Record, &Probe, &Tight};

  StableHash H;
  std::map<ExecStatus, size_t> StatusCounts;
  for (const char *Source : Sources) {
    DiagnosticSink Diags;
    std::optional<Program> P = parseAndCheck(Source, Diags);
    ASSERT_TRUE(P.has_value()) << Source << ": " << Diags.str();
    for (const InterpOptions *Options : Configs) {
      ExecResult Run = execute(*P, P->Functions.back(), {}, *Options);
      hashExecResult(H, Run);
      ++StatusCounts[Run.Status];
    }
  }
  EXPECT_EQ(StatusCounts[ExecStatus::Ok], 5u);
  EXPECT_EQ(StatusCounts[ExecStatus::OutOfFuel], 36u);
  EXPECT_EQ(StatusCounts[ExecStatus::MemoryLimit], 4u);
  EXPECT_EQ(StatusCounts[ExecStatus::RuntimeError], 0u);
  EXPECT_EQ(H.digest(), 6701613074365101891ull);
}

TEST(GoldenDigestTest, Table1CorpusFingerprintAndFunnel) {
  CorpusOptions Options;
  Options.NumMethods = 600;
  Options.TraceGen.TargetPaths = 8;
  Options.TraceGen.ExecutionsPerPath = 5;
  Options.Seed = 11;
  Options.Threads = 4;
  applyTable1DefectMix(Options);
  CorpusStats Stats;
  auto Samples = generateMethodCorpus(Options, &Stats);
  EXPECT_EQ(corpusFingerprint(Samples), 10302200943036706300ull);
  EXPECT_EQ(Stats.Requested, 600u);
  EXPECT_EQ(Stats.ParseFailures, 114u);
  EXPECT_EQ(Stats.ExternalRefFailures, 263u);
  EXPECT_EQ(Stats.TestgenTimeouts, 43u);
  EXPECT_EQ(Stats.TestgenMemoryBombs, 0u);
  EXPECT_EQ(Stats.TooSmall, 81u);
  EXPECT_EQ(Stats.NoTraces, 0u);
  EXPECT_EQ(Stats.Kept, 99u);
}

TEST(CorpusParallelEquivalenceTest, Table1MixBitwiseAcrossThreads) {
  // Per-method cost varies by orders of magnitude under the Table 1
  // mix (a non-terminating method runs every probe until the
  // interpreter decides it, a parse failure costs nothing), so workers
  // claim methods in a different order on every run; the corpus must
  // not notice.
  CorpusOptions Options;
  Options.NumMethods = 120;
  Options.TraceGen.TargetPaths = 8;
  Options.TraceGen.ExecutionsPerPath = 5;
  Options.Seed = 5;
  applyTable1DefectMix(Options);

  uint64_t Baseline = 0;
  CorpusStats BaseStats;
  for (size_t Threads : {1u, 2u, 4u}) {
    Options.Threads = Threads;
    CorpusStats Stats;
    auto Samples = generateMethodCorpus(Options, &Stats);
    uint64_t Fingerprint = corpusFingerprint(Samples);
    if (Threads == 1) {
      Baseline = Fingerprint;
      BaseStats = Stats;
      EXPECT_GT(Stats.TestgenTimeouts, 0u);
      EXPECT_GT(Samples.size(), 0u);
      continue;
    }
    EXPECT_EQ(Fingerprint, Baseline) << "threads=" << Threads;
    expectFunnelEqual(Stats, BaseStats);
  }
}
