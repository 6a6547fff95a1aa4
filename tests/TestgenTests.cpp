//===-- tests/TestgenTests.cpp - Unit tests for test generation -----------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "testgen/Coverage.h"
#include "testgen/InputGen.h"
#include "testgen/TraceCache.h"
#include "testgen/TraceCollector.h"

#include "lang/Parser.h"
#include "support/BinaryIO.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>

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

const char *AbsProgram = R"(
int myAbs(int a) {
  if (a < 0)
    return -a;
  return a;
}
)";

const char *SortProgram = R"(
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
)";

} // namespace

//===----------------------------------------------------------------------===//
// Input generation
//===----------------------------------------------------------------------===//

TEST(InputGenTest, RespectsTypes) {
  Program P = mustParse(R"(
struct Pt { int x; bool b; }
int f(int a, bool c, string s, int[] arr, Pt p) { return a; }
)");
  Rng R(1);
  InputGenOptions Options;
  auto Inputs = randomInputs(P.Functions[0], P, R, Options);
  ASSERT_EQ(Inputs.size(), 5u);
  EXPECT_TRUE(Inputs[0].isInt());
  EXPECT_TRUE(Inputs[1].isBool());
  EXPECT_TRUE(Inputs[2].isString());
  EXPECT_TRUE(Inputs[3].isArray());
  EXPECT_TRUE(Inputs[4].isStruct());
  EXPECT_EQ(Inputs[4].elements().size(), 2u);
}

TEST(InputGenTest, IntsWithinDomain) {
  Program P = mustParse("int f(int a) { return a; }");
  Rng R(2);
  InputGenOptions Options;
  Options.IntLo = -3;
  Options.IntHi = 3;
  for (int I = 0; I < 200; ++I) {
    auto Inputs = randomInputs(P.Functions[0], P, R, Options);
    EXPECT_GE(Inputs[0].asInt(), -3);
    EXPECT_LE(Inputs[0].asInt(), 3);
  }
}

TEST(InputGenTest, ArrayLengthsFromChoices) {
  Program P = mustParse("int f(int[] a) { return 0; }");
  Rng R(3);
  InputGenOptions Options;
  Options.ArrayLenChoices = {2, 4};
  std::set<size_t> Seen;
  for (int I = 0; I < 100; ++I) {
    auto Inputs = randomInputs(P.Functions[0], P, R, Options);
    Seen.insert(Inputs[0].elements().size());
  }
  EXPECT_EQ(Seen, (std::set<size_t>{2, 4}));
}

TEST(InputGenTest, MutationChangesOneCell) {
  Program P = mustParse("int f(int a, int[] b) { return a; }");
  Rng R(4);
  InputGenOptions Options;
  auto Inputs = randomInputs(P.Functions[0], P, R, Options);
  for (int Trial = 0; Trial < 20; ++Trial) {
    auto Mutated = mutateInputs(Inputs, R, Options);
    ASSERT_EQ(Mutated.size(), Inputs.size());
    // Same shapes, and at most one scalar differs.
    EXPECT_EQ(Mutated[1].elements().size(), Inputs[1].elements().size());
    int Diffs = 0;
    if (!Mutated[0].equals(Inputs[0]))
      ++Diffs;
    for (size_t I = 0; I < Inputs[1].elements().size(); ++I)
      if (!Mutated[1].elements()[I].equals(Inputs[1].elements()[I]))
        ++Diffs;
    EXPECT_LE(Diffs, 1);
  }
}

TEST(InputGenTest, DeterministicUnderSeed) {
  Program P = mustParse("int f(int a, int[] b, string s) { return a; }");
  InputGenOptions Options;
  Rng R1(42), R2(42);
  for (int I = 0; I < 20; ++I) {
    auto A = randomInputs(P.Functions[0], P, R1, Options);
    auto B = randomInputs(P.Functions[0], P, R2, Options);
    for (size_t J = 0; J < A.size(); ++J)
      EXPECT_TRUE(A[J].equals(B[J]));
  }
}

//===----------------------------------------------------------------------===//
// Trace collection pipeline
//===----------------------------------------------------------------------===//

TEST(TraceCollectorTest, CollectsBothAbsPaths) {
  Program P = mustParse(AbsProgram);
  TestGenOptions Options;
  Options.TargetPaths = 4;
  CollectStats Stats;
  MethodTraces Traces = collectTraces(P, P.Functions[0], Options, &Stats);
  EXPECT_EQ(Traces.Paths.size(), 2u);
  EXPECT_GT(Stats.OkRuns, 0u);
  for (const BlendedTrace &Path : Traces.Paths) {
    EXPECT_GE(Path.numConcrete(), 1u);
    EXPECT_LE(Path.numConcrete(), Options.ExecutionsPerPath);
    // States must be recorded in the final traces.
    for (const StateTrace &States : Path.Concrete)
      EXPECT_EQ(States.States.size(), Path.Symbolic.Steps.size());
  }
}

TEST(TraceCollectorTest, RespectsTargetPathsAndExecutions) {
  Program P = mustParse(SortProgram);
  TestGenOptions Options;
  Options.TargetPaths = 5;
  Options.ExecutionsPerPath = 3;
  MethodTraces Traces = collectTraces(P, P.Functions[0], Options);
  EXPECT_LE(Traces.Paths.size(), 5u);
  EXPECT_GE(Traces.Paths.size(), 2u);
  for (const BlendedTrace &Path : Traces.Paths)
    EXPECT_LE(Path.numConcrete(), 3u);
}

TEST(TraceCollectorTest, SymbolicSeedingFindsRarePath) {
  // The guard a == 77 is nearly impossible to hit at random within
  // [-8, 8]; the symbolic executor's witness must find it... except 77
  // is outside the solver domain too. Use a conjunction that is rare
  // for random draws but inside the domain.
  Program P = mustParse(R"(
int f(int a, int b, int c) {
  if (a == 7 && b == -6 && c == 5)
    return 1;
  return 0;
}
)");
  TestGenOptions Options;
  Options.TargetPaths = 8;
  Options.MaxAttempts = 50; // few random tries: ~unreachable by chance
  Options.UseSymbolicSeeding = true;
  CollectStats Stats;
  MethodTraces Traces = collectTraces(P, P.Functions[0], Options, &Stats);
  EXPECT_EQ(Traces.Paths.size(), 2u);
  EXPECT_GE(Stats.SymbolicSeeds, 1u);
}

TEST(TraceCollectorTest, TimeoutsCounted) {
  Program P = mustParse("void f() { while (true) {} }");
  TestGenOptions Options;
  Options.Interp.Fuel = 200;
  Options.MaxAttempts = 5;
  Options.UseSymbolicSeeding = false;
  CollectStats Stats;
  MethodTraces Traces = collectTraces(P, P.Functions[0], Options, &Stats);
  EXPECT_TRUE(Traces.Paths.empty());
  EXPECT_TRUE(Stats.allTimedOut());
}

TEST(TraceCollectorTest, MemoryBombsCounted) {
  // Every attempted execution of a memory bomb ends with MemoryLimit;
  // the collector counts them like timeouts (Table 1's "takes too
  // long" filter, extended to "takes too much memory").
  Program P = mustParse(
      "void f() { string s = \"aaaaaaaa\"; while (true) { s = s + s; } }");
  TestGenOptions Options;
  Options.Interp.Fuel = 2000;
  Options.Interp.MaxMemoryBytes = 1u << 20;
  Options.MaxAttempts = 5;
  Options.UseSymbolicSeeding = false;
  CollectStats Stats;
  MethodTraces Traces = collectTraces(P, P.Functions[0], Options, &Stats);
  EXPECT_TRUE(Traces.Paths.empty());
  EXPECT_GT(Stats.MemoryExceeded, 0u);
  EXPECT_TRUE(Stats.allMemoryExceeded());
  EXPECT_EQ(Stats.Timeouts, 0u);
}

TEST(TraceCollectorTest, RepeatedInputsRunOnce) {
  // One bool parameter has two inputs, and the if/else gives each its
  // own path. Phase 1 makes all 300 attempts but runs only the first
  // probe of each input; the other 298 are answered from the probe
  // memo. Phase 2 finds no unknown path, phase 3 none with room, and
  // phase 4 records the 5 + 5 accepted inputs: 12 runs in all.
  const char *Source = R"(
int pick(bool b) {
  int r = 0;
  if (b)
    r = 1;
  else
    r = 2;
  return r;
}
)";
  Program P = mustParse(Source);
  TestGenOptions Options;
  TraceCache Cache(TraceCacheMode::Full, "");
  CollectStats Cold;
  MethodTraces Traces = collectTracesCached(P, P.Functions[0], Source,
                                            Options, &Cache, &Cold);
  ASSERT_EQ(Traces.Paths.size(), 2u);
  EXPECT_EQ(Traces.totalExecutions(), 10u);
  EXPECT_EQ(Cold.Attempts, 300u);
  EXPECT_EQ(Cold.OkRuns, 300u);
  EXPECT_EQ(Cold.Executions, 12u);
  // A hit restores the discovery counters and runs nothing.
  CollectStats Warm;
  collectTracesCached(P, P.Functions[0], Source, Options, &Cache, &Warm);
  EXPECT_EQ(Warm.CacheHits, 1u);
  EXPECT_EQ(Warm.Attempts, 300u);
  EXPECT_EQ(Warm.Executions, 0u);
}

TEST(TraceCollectorTest, DeterministicUnderSeed) {
  Program P = mustParse(SortProgram);
  TestGenOptions Options;
  Options.Seed = 99;
  MethodTraces A = collectTraces(P, P.Functions[0], Options);
  MethodTraces B = collectTraces(P, P.Functions[0], Options);
  ASSERT_EQ(A.Paths.size(), B.Paths.size());
  for (size_t I = 0; I < A.Paths.size(); ++I) {
    EXPECT_EQ(A.Paths[I].Symbolic.pathKey(), B.Paths[I].Symbolic.pathKey());
    EXPECT_EQ(A.Paths[I].numConcrete(), B.Paths[I].numConcrete());
  }
}

//===----------------------------------------------------------------------===//
// Coverage and reduction
//===----------------------------------------------------------------------===//

namespace {

MethodTraces collectAbs(Program &P) {
  TestGenOptions Options;
  Options.TargetPaths = 4;
  return collectTraces(P, P.Functions[0], Options);
}

} // namespace

TEST(CoverageTest, AllStatementLines) {
  Program P = mustParse(AbsProgram);
  std::set<unsigned> Lines = allStatementLines(P.Functions[0]);
  // if-cond, then-return, final return.
  EXPECT_EQ(Lines.size(), 3u);
}

TEST(CoverageTest, FullCollectionCoversEverything) {
  Program P = mustParse(AbsProgram);
  MethodTraces Traces = collectAbs(P);
  EXPECT_DOUBLE_EQ(lineCoverageRatio(Traces), 1.0);
}

TEST(CoverageTest, SinglePathCoversPart) {
  Program P = mustParse(AbsProgram);
  MethodTraces Traces = collectAbs(P);
  ASSERT_EQ(Traces.Paths.size(), 2u);
  MethodTraces One = selectPaths(Traces, {0});
  double Ratio = lineCoverageRatio(One);
  EXPECT_LT(Ratio, 1.0);
  EXPECT_GE(Ratio, 0.5);
}

TEST(CoverageTest, MinimalCoverKeepsCoverage) {
  Program P = mustParse(SortProgram);
  TestGenOptions Options;
  Options.TargetPaths = 8;
  MethodTraces Traces = collectTraces(P, P.Functions[0], Options);
  std::vector<size_t> Minimal = minimalLineCoveringPaths(Traces);
  EXPECT_LE(Minimal.size(), Traces.Paths.size());
  MethodTraces Reduced = selectPaths(Traces, Minimal);
  EXPECT_EQ(Reduced.coveredLines(), Traces.coveredLines());
}

TEST(CoverageTest, MinimalCoverIsMinimalForAbs) {
  Program P = mustParse(AbsProgram);
  MethodTraces Traces = collectAbs(P);
  // Both paths are needed for full line coverage.
  EXPECT_EQ(minimalLineCoveringPaths(Traces).size(), 2u);
}

TEST(CoverageTest, ReduceConcreteKeepsSymbolic) {
  Program P = mustParse(SortProgram);
  TestGenOptions Options;
  Options.TargetPaths = 6;
  Options.ExecutionsPerPath = 5;
  MethodTraces Traces = collectTraces(P, P.Functions[0], Options);
  Rng R(5);
  MethodTraces Reduced = reduceConcreteTraces(Traces, 2, R);
  ASSERT_EQ(Reduced.Paths.size(), Traces.Paths.size());
  for (size_t I = 0; I < Reduced.Paths.size(); ++I) {
    EXPECT_EQ(Reduced.Paths[I].Symbolic.pathKey(),
              Traces.Paths[I].Symbolic.pathKey());
    EXPECT_LE(Reduced.Paths[I].numConcrete(), 2u);
    EXPECT_EQ(Reduced.Paths[I].Inputs.size(),
              Reduced.Paths[I].Concrete.size());
  }
}

TEST(CoverageTest, ReduceSymbolicPreservesLineCoverageAboveFloor) {
  Program P = mustParse(SortProgram);
  TestGenOptions Options;
  Options.TargetPaths = 8;
  MethodTraces Traces = collectTraces(P, P.Functions[0], Options);
  size_t Floor = minimalLineCoveringPaths(Traces).size();
  Rng R(6);
  MethodTraces Reduced = reduceSymbolicTraces(Traces, Floor, R);
  EXPECT_EQ(Reduced.Paths.size(), Floor);
  EXPECT_EQ(Reduced.coveredLines(), Traces.coveredLines());
}

TEST(CoverageTest, ReduceSymbolicBelowFloorDropsCoverage) {
  Program P = mustParse(AbsProgram);
  MethodTraces Traces = collectAbs(P);
  Rng R(7);
  MethodTraces Reduced = reduceSymbolicTraces(Traces, 1, R);
  EXPECT_EQ(Reduced.Paths.size(), 1u);
  EXPECT_LT(lineCoverageRatio(Reduced), 1.0);
}

//===----------------------------------------------------------------------===//
// Trace cache
//===----------------------------------------------------------------------===//

namespace {

const char *StructProgram = R"(
struct Pt { int x; int y; }
int manhattan(Pt p, int scale) {
  int dx = p.x;
  if (dx < 0)
    dx = -dx;
  int dy = p.y;
  if (dy < 0)
    dy = -dy;
  return (dx + dy) * scale;
}
)";

/// States holding arrays, a string and a struct, in which some slots
/// change from step to step and others stay: the LGTR delta state with
/// changed and unchanged slots of every kind.
const char *MixedProgram = R"(
struct Pt { int x; int y; }
int mix(int[] A, string s, Pt p) {
  int n = len(A);
  string t = s + "!";
  for (int i = 0; i < n; i++) {
    A[i] = A[i] + p.x;
    if (A[i] > 3)
      p.y = p.y + 1;
  }
  int[] B = A;
  return n + p.y + len(t);
}
)";

TestGenOptions tinyTraceGen() {
  TestGenOptions Options;
  Options.TargetPaths = 3;
  Options.ExecutionsPerPath = 2;
  Options.MaxAttempts = 40;
  Options.Seed = 11;
  return Options;
}

/// Cross-program value equality: Value::equals compares struct Decl
/// pointers, but warm traces are re-bound against a re-parsed Program,
/// so structs must compare by type name + contents here.
bool valuesMatch(const Value &A, const Value &B) {
  if (A.kind() != B.kind())
    return false;
  if (A.isStruct()) {
    if (A.structDecl()->Name != B.structDecl()->Name ||
        A.elements().size() != B.elements().size())
      return false;
    for (size_t I = 0; I < A.elements().size(); ++I)
      if (!valuesMatch(A.elements()[I], B.elements()[I]))
        return false;
    return true;
  }
  if (A.isArray()) {
    if (A.elements().size() != B.elements().size())
      return false;
    for (size_t I = 0; I < A.elements().size(); ++I)
      if (!valuesMatch(A.elements()[I], B.elements()[I]))
        return false;
    return true;
  }
  return A.equals(B);
}

/// Structural equality of two MethodTraces (statement identity by
/// NodeId, values by valuesMatch so re-parsed programs compare equal).
void expectTracesEqual(const MethodTraces &A, const MethodTraces &B) {
  EXPECT_EQ(A.VarNames, B.VarNames);
  ASSERT_EQ(A.Paths.size(), B.Paths.size());
  for (size_t P = 0; P < A.Paths.size(); ++P) {
    const BlendedTrace &PA = A.Paths[P];
    const BlendedTrace &PB = B.Paths[P];
    ASSERT_EQ(PA.Symbolic.Steps.size(), PB.Symbolic.Steps.size());
    for (size_t S = 0; S < PA.Symbolic.Steps.size(); ++S) {
      EXPECT_EQ(PA.Symbolic.Steps[S].Statement->id(),
                PB.Symbolic.Steps[S].Statement->id());
      EXPECT_EQ(PA.Symbolic.Steps[S].Kind, PB.Symbolic.Steps[S].Kind);
    }
    ASSERT_EQ(PA.Concrete.size(), PB.Concrete.size());
    for (size_t C = 0; C < PA.Concrete.size(); ++C) {
      const StateTrace &SA = PA.Concrete[C];
      const StateTrace &SB = PB.Concrete[C];
      ASSERT_EQ(SA.Initial.Values.size(), SB.Initial.Values.size());
      for (size_t V = 0; V < SA.Initial.Values.size(); ++V)
        EXPECT_TRUE(valuesMatch(SA.Initial.Values[V], SB.Initial.Values[V]))
            << SA.Initial.Values[V].str() << " vs "
            << SB.Initial.Values[V].str();
      ASSERT_EQ(SA.States.size(), SB.States.size());
      for (size_t St = 0; St < SA.States.size(); ++St) {
        ASSERT_EQ(SA.States[St].Values.size(), SB.States[St].Values.size());
        for (size_t V = 0; V < SA.States[St].Values.size(); ++V)
          EXPECT_TRUE(valuesMatch(SA.States[St].Values[V],
                                  SB.States[St].Values[V]))
              << SA.States[St].Values[V].str() << " vs "
              << SB.States[St].Values[V].str();
      }
    }
    ASSERT_EQ(PA.Inputs.size(), PB.Inputs.size());
    for (size_t I = 0; I < PA.Inputs.size(); ++I) {
      ASSERT_EQ(PA.Inputs[I].size(), PB.Inputs[I].size());
      for (size_t V = 0; V < PA.Inputs[I].size(); ++V)
        EXPECT_TRUE(valuesMatch(PA.Inputs[I][V], PB.Inputs[I][V]));
    }
  }
}

/// The LGTR entry of MixedProgram's traces (parsed as \p P) under
/// tinyTraceGen(); sets \p Key. Checks that the traces exercise what
/// the state encoding distinguishes: several executions, and array,
/// string and struct slots both changed and unchanged between
/// consecutive states.
std::string mixedEntry(const Program &P, TraceCacheKey &Key) {
  const FunctionDecl &Fn = P.Functions[0];
  TestGenOptions Options = tinyTraceGen();
  CollectStats Stats;
  MethodTraces Traces = collectTraces(P, Fn, Options, &Stats);
  size_t Changed[6] = {}, Unchanged[6] = {};
  for (const BlendedTrace &Path : Traces.Paths)
    for (const StateTrace &ST : Path.Concrete) {
      const std::vector<Value> *Prev = &ST.Initial.Values;
      for (const ProgramState &State : ST.States) {
        for (size_t I = 0; I < State.Values.size(); ++I) {
          size_t Kind = static_cast<size_t>(State.Values[I].kind());
          ++(State.Values[I].equals((*Prev)[I]) ? Unchanged : Changed)[Kind];
        }
        Prev = &State.Values;
      }
    }
  EXPECT_GT(Traces.totalExecutions(), Traces.Paths.size());
  for (ValueKind K : {ValueKind::Array, ValueKind::String, ValueKind::Struct,
                      ValueKind::Int}) {
    EXPECT_GT(Changed[static_cast<size_t>(K)], 0u);
    EXPECT_GT(Unchanged[static_cast<size_t>(K)], 0u);
  }
  Key = traceCacheKey(MixedProgram, Fn.Name, Options);
  return serializeCacheEntry(Key, Stats, Traces);
}

/// Recomputes the header's payload length and checksum after a test
/// edited the payload of \p Bytes, so the edit reaches the parser.
void resealEntry(std::string &Bytes) {
  constexpr size_t HeaderBytes = 48, PayloadSizeAt = 24;
  uint64_t Size = Bytes.size() - HeaderBytes;
  StableHash Checksum;
  Checksum.addBytes(Bytes.data() + HeaderBytes, Size);
  Digest128 Sum = Checksum.digest128();
  std::memcpy(&Bytes[PayloadSizeAt], &Size, 8);
  std::memcpy(&Bytes[PayloadSizeAt + 8], &Sum.Hi, 8);
  std::memcpy(&Bytes[PayloadSizeAt + 16], &Sum.Lo, 8);
}

void expectDiscoveryStatsEqual(const CollectStats &A, const CollectStats &B) {
  EXPECT_EQ(A.Attempts, B.Attempts);
  EXPECT_EQ(A.OkRuns, B.OkRuns);
  EXPECT_EQ(A.Faults, B.Faults);
  EXPECT_EQ(A.Timeouts, B.Timeouts);
  EXPECT_EQ(A.MemoryExceeded, B.MemoryExceeded);
  EXPECT_EQ(A.SymbolicSeeds, B.SymbolicSeeds);
}

} // namespace

TEST(TraceCacheTest, KeyStableAndSensitive) {
  TestGenOptions Options = tinyTraceGen();
  TraceCacheKey Base = traceCacheKey(SortProgram, "sort", Options);
  EXPECT_EQ(traceCacheKey(SortProgram, "sort", Options), Base);

  EXPECT_NE(traceCacheKey(AbsProgram, "sort", Options), Base);
  EXPECT_NE(traceCacheKey(SortProgram, "sortB", Options), Base);

  TestGenOptions Changed = Options;
  Changed.Seed = Options.Seed + 1;
  EXPECT_NE(traceCacheKey(SortProgram, "sort", Changed), Base);
  Changed = Options;
  Changed.TargetPaths = Options.TargetPaths + 1;
  EXPECT_NE(traceCacheKey(SortProgram, "sort", Changed), Base);
  Changed = Options;
  Changed.Interp.Fuel = Options.Interp.Fuel + 1;
  EXPECT_NE(traceCacheKey(SortProgram, "sort", Changed), Base);
  Changed = Options;
  Changed.Interp.MaxMemoryBytes = Options.Interp.MaxMemoryBytes / 2;
  EXPECT_NE(traceCacheKey(SortProgram, "sort", Changed), Base);
  Changed = Options;
  Changed.Input.IntHi = Options.Input.IntHi + 1;
  EXPECT_NE(traceCacheKey(SortProgram, "sort", Changed), Base);
  Changed = Options;
  Changed.UseSymbolicSeeding = !Options.UseSymbolicSeeding;
  EXPECT_NE(traceCacheKey(SortProgram, "sort", Changed), Base);

  // RecordStates is overridden internally by the pipeline and must NOT
  // change the key.
  Changed = Options;
  Changed.Interp.RecordStates = !Options.Interp.RecordStates;
  EXPECT_EQ(traceCacheKey(SortProgram, "sort", Changed), Base);
}

TEST(TraceCacheTest, ScopePartitionsTheKey) {
  // Two corpora sharing one cache directory must never serve each
  // other's entries, even for identical source and options: the
  // dataset scope is part of the key.
  TestGenOptions Options = tinyTraceGen();
  TraceCacheKey Unscoped = traceCacheKey(SortProgram, "sort", Options);

  TestGenOptions Med = Options;
  Med.Scope = "med";
  TestGenOptions Large = Options;
  Large.Scope = "large";
  TraceCacheKey MedKey = traceCacheKey(SortProgram, "sort", Med);
  TraceCacheKey LargeKey = traceCacheKey(SortProgram, "sort", Large);

  EXPECT_NE(MedKey, Unscoped);
  EXPECT_NE(LargeKey, Unscoped);
  EXPECT_NE(MedKey, LargeKey);
  EXPECT_EQ(traceCacheKey(SortProgram, "sort", Med), MedKey);
}

TEST(TraceCacheTest, MaxBytesEvictsLeastRecentlyUsed) {
  namespace fs = std::filesystem;
  std::string Dir = testing::TempDir() + "/liger_trace_cache_evict";
  std::error_code Ec;
  fs::remove_all(Dir, Ec); // stale entries from prior runs

  // Synthetic entries with distinct keys; identical payloads keep
  // every on-disk file the same size, so the budget arithmetic below
  // is exact.
  auto KeyOf = [](int I) {
    TestGenOptions O = tinyTraceGen();
    O.Seed = 1000 + static_cast<uint64_t>(I);
    return traceCacheKey(SortProgram, "sort", O);
  };
  auto EntryOf = [&](int I) {
    CollectStats Stats;
    Stats.Attempts = 1;
    Stats.OkRuns = 1;
    return serializeCacheEntry(KeyOf(I), Stats, MethodTraces());
  };
  uint64_t One = EntryOf(0).size();

  TraceCache Cache(TraceCacheMode::Full, Dir, /*MaxBytes=*/3 * One);
  EXPECT_EQ(Cache.maxBytes(), 3 * One);
  for (int I = 0; I < 3; ++I)
    Cache.store(KeyOf(I), EntryOf(I));
  // Exactly at the bound: nothing to evict.
  EXPECT_EQ(Cache.evictions(), 0u);
  for (int I = 0; I < 3; ++I)
    EXPECT_TRUE(fs::exists(Cache.entryPath(KeyOf(I)))) << I;

  // Age the files deterministically (filesystem mtime granularity can
  // be one second, far coarser than this test): entry 1 becomes the
  // LRU victim, entry 0 the runner-up.
  auto Now = fs::last_write_time(Cache.entryPath(KeyOf(2)));
  fs::last_write_time(Cache.entryPath(KeyOf(1)), Now - std::chrono::hours(2));
  fs::last_write_time(Cache.entryPath(KeyOf(0)), Now - std::chrono::hours(1));

  // The fourth store pushes the directory over budget by one entry:
  // exactly the oldest file goes.
  Cache.store(KeyOf(3), EntryOf(3));
  EXPECT_EQ(Cache.evictions(), 1u);
  EXPECT_FALSE(fs::exists(Cache.entryPath(KeyOf(1))));
  EXPECT_TRUE(fs::exists(Cache.entryPath(KeyOf(0))));
  EXPECT_TRUE(fs::exists(Cache.entryPath(KeyOf(2))));
  EXPECT_TRUE(fs::exists(Cache.entryPath(KeyOf(3))));

  // A fresh cache (post-restart view) misses the evicted entry and
  // still hits a surviving one; the writer's own memory map keeps
  // serving the evicted key regardless.
  TraceCache Fresh(TraceCacheMode::Full, Dir);
  EXPECT_FALSE(Fresh.lookup(KeyOf(1)));
  EXPECT_TRUE(Fresh.lookup(KeyOf(0)));
  EXPECT_TRUE(Cache.lookup(KeyOf(1)));

  // A budget smaller than one entry still keeps the newest store: the
  // entry just written is never its own victim.
  TraceCache Tiny(TraceCacheMode::Full, Dir, /*MaxBytes=*/1);
  Tiny.store(KeyOf(9), EntryOf(9));
  EXPECT_TRUE(fs::exists(Tiny.entryPath(KeyOf(9))));
  EXPECT_EQ(Tiny.evictions(), 3u); // everything but the new entry
}

TEST(TraceCacheTest, ValueRoundTrip) {
  Program P = mustParse(StructProgram);
  const FunctionDecl &Fn = P.Functions[0];
  const StructDecl *Pt = P.findStruct("Pt");
  ASSERT_NE(Pt, nullptr);
  TraceCacheKey Key = traceCacheKey(StructProgram, Fn.Name, tinyTraceGen());

  std::vector<Value> Originals;
  Originals.push_back(Value::undef());
  Originals.push_back(Value::makeInt(-42));
  Originals.push_back(Value::makeInt(INT64_MIN));
  Originals.push_back(Value::makeInt(INT64_MAX));
  Originals.push_back(Value::makeBool(true));
  Originals.push_back(Value::makeBool(false));
  Originals.push_back(Value::makeString(""));
  Originals.push_back(Value::makeString(std::string("a\"b\0c", 5)));
  Originals.push_back(Value::makeArray({}));
  Originals.push_back(Value::makeArray(
      {Value::makeArray({Value::makeInt(1), Value::makeInt(2)}),
       Value::makeArray({}),
       Value::makeArray({Value::makeString("x"), Value::undef()})}));
  Originals.push_back(
      Value::makeStruct(Pt, {Value::makeInt(5), Value::makeInt(-7)}));
  Originals.push_back(Value::makeArray(
      {Value::makeStruct(Pt, {Value::makeInt(0), Value::makeInt(1)})}));

  // Every value once in an initial state, a program state and an
  // input tuple: the three value lists TRCE stores.
  auto tracesOf = [](const std::vector<Value> &Vs) {
    MethodTraces T;
    T.VarNames = {"v"};
    BlendedTrace Path;
    StateTrace ST;
    ST.Initial.Values = Vs;
    ST.States.push_back({Vs});
    Path.Concrete.push_back(ST);
    Path.Inputs.push_back(Vs);
    T.Paths.push_back(Path);
    return T;
  };
  CollectStats Stats;
  std::string Bytes = serializeCacheEntry(Key, Stats, tracesOf(Originals));

  CollectStats BackStats;
  MethodTraces Back;
  ASSERT_TRUE(parseCacheEntry(Bytes, Key, P, Fn, BackStats, Back));
  EXPECT_EQ(Back.Fn, &Fn);
  ASSERT_EQ(Back.Paths.size(), 1u);
  const BlendedTrace &Path = Back.Paths[0];
  ASSERT_EQ(Path.Concrete.size(), 1u);
  ASSERT_EQ(Path.Concrete[0].States.size(), 1u);
  ASSERT_EQ(Path.Inputs.size(), 1u);
  for (const std::vector<Value> *Vs :
       {&Path.Concrete[0].Initial.Values, &Path.Concrete[0].States[0].Values,
        &Path.Inputs[0]}) {
    ASSERT_EQ(Vs->size(), Originals.size());
    for (size_t I = 0; I < Originals.size(); ++I)
      // Same Program: equals() also compares the bound StructDecl.
      EXPECT_TRUE(Originals[I].equals((*Vs)[I]))
          << Originals[I].str() << " vs " << (*Vs)[I].str();
  }

  // A struct type the program does not declare fails softly.
  Program Other = mustParse("struct Q { int a; }\nint f(Q q) { return q.a; }");
  Value Unknown = Value::makeStruct(Other.findStruct("Q"), {Value::makeInt(1)});
  Bytes = serializeCacheEntry(Key, Stats, tracesOf({Unknown}));
  EXPECT_FALSE(parseCacheEntry(Bytes, Key, P, Fn, BackStats, Back));

  // Field-count mismatch (stale entry against an evolved struct) too.
  Program Evolved =
      mustParse("struct Pt { int x; }\nint f(Pt p) { return p.x; }");
  Value OneField =
      Value::makeStruct(Evolved.findStruct("Pt"), {Value::makeInt(1)});
  Bytes = serializeCacheEntry(Key, Stats, tracesOf({OneField}));
  EXPECT_FALSE(parseCacheEntry(Bytes, Key, P, Fn, BackStats, Back));
}

TEST(TraceCacheTest, EntryBytesAreStable) {
  // Pins the LGTR writer byte for byte: on-disk entries written by
  // earlier builds must keep hitting without a format-version bump.
  // Size and digest are those of the version-4 writer (varints,
  // changed-slot states); version 3 wrote this entry in 3,508 bytes.
  Program P = mustParse(StructProgram);
  const FunctionDecl &Fn = P.Functions[0];
  TestGenOptions Options = tinyTraceGen();
  CollectStats Stats;
  MethodTraces Traces = collectTraces(P, Fn, Options, &Stats);
  TraceCacheKey Key = traceCacheKey(StructProgram, Fn.Name, Options);
  std::string Bytes = serializeCacheEntry(Key, Stats, Traces);

  StableHash H;
  H.addBytes(Bytes.data(), Bytes.size());
  EXPECT_EQ(Key.hex(), "d30277a3e52361d82a0d8ec08f0bb06d");
  EXPECT_EQ(Bytes.size(), 377u);
  EXPECT_EQ(H.digest(), 4358209684139240104ull);
}

TEST(TraceCacheTest, HitSharesStoredBytes) {
  Program P = mustParse(AbsProgram);
  const FunctionDecl &Fn = P.Functions[0];
  TestGenOptions Options = tinyTraceGen();
  std::string Dir = testing::TempDir() + "/liger_trace_cache_shared";
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec); // stale entries from prior runs

  CollectStats Stats;
  MethodTraces Traces = collectTraces(P, Fn, Options, &Stats);
  TraceCacheKey Key = traceCacheKey(AbsProgram, Fn.Name, Options);
  std::string Bytes = serializeCacheEntry(Key, Stats, Traces);

  // Memory hits hand out the stored buffer itself, never a copy.
  TraceCache Cache(TraceCacheMode::Full, Dir);
  Cache.store(Key, Bytes);
  std::shared_ptr<const std::string> First = Cache.lookup(Key);
  std::shared_ptr<const std::string> Second = Cache.lookup(Key);
  ASSERT_TRUE(First);
  EXPECT_EQ(First.get(), Second.get());
  EXPECT_EQ(*First, Bytes);
  EXPECT_EQ(Cache.entries(), 1u);
  EXPECT_EQ(Cache.residentBytes(), Bytes.size());

  // Re-storing a key replaces its buffer; resident bytes count it once.
  Cache.store(Key, Bytes);
  EXPECT_EQ(Cache.entries(), 1u);
  EXPECT_EQ(Cache.residentBytes(), Bytes.size());

  // A disk hit promotes the file's bytes; later hits share that buffer.
  TraceCache Fresh(TraceCacheMode::Full, Dir);
  EXPECT_EQ(Fresh.entries(), 0u);
  EXPECT_EQ(Fresh.residentBytes(), 0u);
  std::shared_ptr<const std::string> FromDisk = Fresh.lookup(Key);
  ASSERT_TRUE(FromDisk);
  EXPECT_EQ(*FromDisk, Bytes);
  EXPECT_EQ(Fresh.lookup(Key).get(), FromDisk.get());
  EXPECT_EQ(Fresh.entries(), 1u);
  EXPECT_EQ(Fresh.residentBytes(), Bytes.size());
  EXPECT_EQ(Fresh.hits(), 2u);
  EXPECT_EQ(Fresh.misses(), 0u);
}

TEST(TraceCacheTest, ColdWarmEquivalenceInMemory) {
  Program P = mustParse(StructProgram);
  const FunctionDecl &Fn = P.Functions[0];
  TestGenOptions Options = tinyTraceGen();

  CollectStats Baseline;
  MethodTraces Plain = collectTraces(P, Fn, Options, &Baseline);
  EXPECT_EQ(Baseline.CacheBypasses, 1u);

  TraceCache Cache(TraceCacheMode::Full, "");
  CollectStats Cold, Warm;
  MethodTraces ColdTraces =
      collectTracesCached(P, Fn, StructProgram, Options, &Cache, &Cold);
  MethodTraces WarmTraces =
      collectTracesCached(P, Fn, StructProgram, Options, &Cache, &Warm);

  EXPECT_EQ(Cold.CacheMisses, 1u);
  EXPECT_EQ(Warm.CacheHits, 1u);
  expectDiscoveryStatsEqual(Baseline, Cold);
  expectDiscoveryStatsEqual(Baseline, Warm);
  expectTracesEqual(Plain, ColdTraces);
  expectTracesEqual(Plain, WarmTraces);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
}

TEST(TraceCacheTest, ColdWarmEquivalenceFullModeOnDisk) {
  Program P = mustParse(StructProgram);
  const FunctionDecl &Fn = P.Functions[0];
  TestGenOptions Options = tinyTraceGen();
  std::string Dir = testing::TempDir() + "/liger_trace_cache_full";
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec); // stale entries from prior runs

  CollectStats Cold;
  MethodTraces ColdTraces;
  {
    TraceCache Cache(TraceCacheMode::Full, Dir);
    ColdTraces =
        collectTracesCached(P, Fn, StructProgram, Options, &Cache, &Cold);
    EXPECT_EQ(Cold.CacheMisses, 1u);
    EXPECT_EQ(Cache.stores(), 1u);
  }

  // A fresh cache object (empty memory map, as after a process
  // restart) must serve the entry from disk, and in Full mode a
  // re-parsed Program must accept the re-bound statements.
  Program P2 = mustParse(StructProgram);
  const FunctionDecl &Fn2 = P2.Functions[0];
  TraceCache Fresh(TraceCacheMode::Full, Dir);
  CollectStats Warm;
  MethodTraces WarmTraces =
      collectTracesCached(P2, Fn2, StructProgram, Options, &Fresh, &Warm);
  EXPECT_EQ(Warm.CacheHits, 1u);
  EXPECT_EQ(Warm.CacheMisses, 0u);
  EXPECT_EQ(Fresh.hits(), 1u);
  expectDiscoveryStatsEqual(Cold, Warm);
  expectTracesEqual(ColdTraces, WarmTraces);
  EXPECT_EQ(WarmTraces.Fn, &Fn2); // re-bound, not dangling into P
}

TEST(TraceCacheTest, SerializedEntryRoundTrips) {
  Program P = mustParse(StructProgram);
  const FunctionDecl &Fn = P.Functions[0];
  TestGenOptions Options = tinyTraceGen();
  std::string Dir = testing::TempDir() + "/liger_trace_cache_rt";
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec); // stale entries from prior runs

  TraceCache Cache(TraceCacheMode::Full, Dir);
  CollectStats Cold;
  MethodTraces Traces =
      collectTracesCached(P, Fn, StructProgram, Options, &Cache, &Cold);
  ASSERT_FALSE(Traces.Paths.empty());

  // One buffer: what memory holds is what the file holds, and both are
  // the cold run's traces serialized.
  TraceCacheKey Key = traceCacheKey(StructProgram, Fn.Name, Options);
  std::shared_ptr<const std::string> Held = Cache.lookup(Key);
  ASSERT_TRUE(Held);
  std::string OnDisk;
  ASSERT_EQ(readWholeFile(Cache.entryPath(Key), 1u << 20, OnDisk),
            ReadResult::Ok);
  EXPECT_EQ(*Held, OnDisk);
  EXPECT_EQ(*Held, serializeCacheEntry(Key, Cold, Traces));

  // TRCE is the whole entry: the parsed traces must equal the cold ones.
  CollectStats BackStats;
  MethodTraces Back;
  ASSERT_TRUE(parseCacheEntry(*Held, Key, P, Fn, BackStats, Back));
  expectDiscoveryStatsEqual(Cold, BackStats);
  expectTracesEqual(Traces, Back);

  // A different key must reject the same bytes.
  TestGenOptions Other = Options;
  Other.Seed += 1;
  TraceCacheKey WrongKey = traceCacheKey(StructProgram, Fn.Name, Other);
  EXPECT_FALSE(parseCacheEntry(*Held, WrongKey, P, Fn, BackStats, Back));
}

TEST(TraceCacheTest, UnknownStatementIdIsMiss) {
  // Statements bind by id: an entry recorded against a longer program
  // carries ids the shorter one never assigned.
  Program Sort = mustParse(SortProgram);
  TestGenOptions Options = tinyTraceGen();
  CollectStats Stats;
  MethodTraces Traces =
      collectTraces(Sort, Sort.Functions[0], Options, &Stats);
  ASSERT_FALSE(Traces.Paths.empty());
  TraceCacheKey Key = traceCacheKey(SortProgram, "sort", Options);
  std::string Bytes = serializeCacheEntry(Key, Stats, Traces);

  Program Abs = mustParse(AbsProgram);
  CollectStats BackStats;
  MethodTraces Back;
  EXPECT_FALSE(
      parseCacheEntry(Bytes, Key, Abs, Abs.Functions[0], BackStats, Back));
  EXPECT_TRUE(
      parseCacheEntry(Bytes, Key, Sort, Sort.Functions[0], BackStats, Back));
}

TEST(TraceCacheTest, TruncationAtEveryOffsetIsMiss) {
  // The acceptance bar for the LGTR reader: an entry cut at ANY byte
  // offset must parse to false — no crash, no sanitizer finding, no
  // over-allocation.
  Program P = mustParse(MixedProgram);
  const FunctionDecl &Fn = P.Functions[0];
  TraceCacheKey Key;
  std::string Bytes = mixedEntry(P, Key);
  ASSERT_GT(Bytes.size(), 48u);

  CollectStats Stats;
  MethodTraces Out;
  for (size_t Len = 0; Len < Bytes.size(); ++Len)
    EXPECT_FALSE(parseCacheEntry(Bytes.substr(0, Len), Key, P, Fn, Stats, Out))
        << "truncation at " << Len << " parsed successfully";
  EXPECT_TRUE(parseCacheEntry(Bytes, Key, P, Fn, Stats, Out));
}

TEST(TraceCacheTest, ByteFlipAtEveryOffsetIsMiss) {
  // The payload checksum must catch ANY single-byte corruption — even
  // flips inside stored values that would otherwise parse fine.
  Program P = mustParse(MixedProgram);
  const FunctionDecl &Fn = P.Functions[0];
  TraceCacheKey Key;
  std::string Bytes = mixedEntry(P, Key);

  CollectStats Stats;
  MethodTraces Out;
  for (size_t I = 0; I < Bytes.size(); ++I) {
    std::string Bad = Bytes;
    Bad[I] = static_cast<char>(Bad[I] ^ 0x5A);
    EXPECT_FALSE(parseCacheEntry(Bad, Key, P, Fn, Stats, Out))
        << "byte flip at " << I << " parsed successfully";
  }
}

TEST(TraceCacheTest, ResealedCorruptionNeverCrashes) {
  // Behind a valid checksum: every byte flip and every truncation of
  // the payload reaches the reader's own bounds (varints, bitmaps,
  // deltas, counts, section lengths). A flip may still parse, into
  // other values; nothing may crash, read out of bounds or
  // over-allocate (run under ASan+UBSan), and a cut payload never
  // parses, since its last section runs past the end.
  Program P = mustParse(MixedProgram);
  const FunctionDecl &Fn = P.Functions[0];
  TraceCacheKey Key;
  std::string Bytes = mixedEntry(P, Key);

  CollectStats Stats;
  MethodTraces Out;
  size_t Parsed = 0;
  for (size_t I = 48; I < Bytes.size(); ++I) {
    for (uint8_t Mask : {0x01, 0x80, 0xFF}) {
      std::string Bad = Bytes;
      Bad[I] = static_cast<char>(Bad[I] ^ Mask);
      resealEntry(Bad);
      Parsed += parseCacheEntry(Bad, Key, P, Fn, Stats, Out);
    }
    std::string Cut = Bytes.substr(0, I);
    resealEntry(Cut);
    EXPECT_FALSE(parseCacheEntry(Cut, Key, P, Fn, Stats, Out))
        << "payload cut at " << I << " parsed successfully";
  }
  // Flips inside int values, for one, still parse.
  EXPECT_GT(Parsed, 0u);
  EXPECT_TRUE(parseCacheEntry(Bytes, Key, P, Fn, Stats, Out));
}

TEST(TraceCacheTest, MalformedStatesAreRejected) {
  // Behind a valid checksum, a bitmap bit past the last slot (one the
  // writer never sets) is a miss. The entry holds one execution of
  // arity 1: initial state {a: 1}, then one state, whose bytes each
  // case replaces.
  Program P = mustParse(AbsProgram);
  const FunctionDecl &Fn = P.Functions[0];
  TraceCacheKey Key = traceCacheKey(AbsProgram, Fn.Name, tinyTraceGen());
  MethodTraces T;
  T.VarNames = {"a"};
  BlendedTrace Path;
  StateTrace ST;
  ST.Initial.Values = {Value::makeInt(1)};
  ST.States.push_back({{Value::makeInt(1)}});
  Path.Concrete.push_back(ST);
  T.Paths.push_back(Path);
  const std::string Entry = serializeCacheEntry(Key, CollectStats(), T);

  // The unchanged state is one bitmap byte, 0, before the input count.
  ASSERT_EQ(Entry.substr(Entry.size() - 2), std::string("\0\0", 2));
  auto withState = [&](const std::string &State) {
    std::string Bytes = Entry.substr(0, Entry.size() - 2) + State + '\0';
    size_t LengthAt = Bytes.find("TRCE") + 4;
    uint64_t Length = 0;
    std::memcpy(&Length, &Bytes[LengthAt], 8);
    Length += State.size() - 1;
    std::memcpy(&Bytes[LengthAt], &Length, 8);
    resealEntry(Bytes);
    return Bytes;
  };
  auto stateOf = [&](const std::string &State, std::vector<Value> &Out) {
    CollectStats Stats;
    MethodTraces Back;
    if (!parseCacheEntry(withState(State), Key, P, Fn, Stats, Back))
      return false;
    Out = Back.Paths[0].Concrete[0].States[0].Values;
    return true;
  };
  // Int 2 is kind 1 with zigzag payload 4.
  const std::string Two("\x01\x04", 2);
  std::vector<Value> Out;
  ASSERT_TRUE(stateOf(std::string("\0", 1), Out)); // the writer's bytes
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].asInt(), 1);
  ASSERT_TRUE(stateOf("\x01" + Two, Out)); // slot 0 changed
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].asInt(), 2);

  // A bitmap bit past the last slot, alone or next to a changed slot.
  EXPECT_FALSE(stateOf("\x02", Out));
  EXPECT_FALSE(stateOf("\x80", Out));
  EXPECT_FALSE(stateOf("\x03" + Two, Out));
}

TEST(TraceCacheTest, ReserializingParsedEntryReproducesBytes) {
  // The writer and the reader agree on every state: a parsed entry,
  // deltas rebuilt into whole states, serializes to the same bytes.
  Program P = mustParse(MixedProgram);
  const FunctionDecl &Fn = P.Functions[0];
  TraceCacheKey Key;
  std::string Bytes = mixedEntry(P, Key);

  CollectStats Stats;
  MethodTraces Back;
  ASSERT_TRUE(parseCacheEntry(Bytes, Key, P, Fn, Stats, Back));
  EXPECT_EQ(serializeCacheEntry(Key, Stats, Back), Bytes);
}

TEST(TraceCacheTest, UnchangedArraySlotSharesStorage) {
  // A parsed state's unchanged slot is a copy of the previous state's
  // Value: an array that did not change shares its element storage
  // instead of being allocated again per state.
  Program P = mustParse(MixedProgram);
  const FunctionDecl &Fn = P.Functions[0];
  TraceCacheKey Key;
  std::string Bytes = mixedEntry(P, Key);

  CollectStats Stats;
  MethodTraces Back;
  ASSERT_TRUE(parseCacheEntry(Bytes, Key, P, Fn, Stats, Back));
  size_t Shared = 0, Fresh = 0;
  for (const BlendedTrace &Path : Back.Paths)
    for (const StateTrace &ST : Path.Concrete) {
      const std::vector<Value> *Prev = &ST.Initial.Values;
      for (const ProgramState &State : ST.States) {
        ASSERT_EQ(State.Values.size(), Prev->size());
        for (size_t I = 0; I < State.Values.size(); ++I) {
          const Value &Now = State.Values[I], &Before = (*Prev)[I];
          if (!Now.isArray() || !Before.isArray())
            continue;
          bool Same = &Now.elements() == &Before.elements();
          EXPECT_EQ(Same, Now.equals(Before)) << Now.str();
          ++(Same ? Shared : Fresh);
        }
        Prev = &State.Values;
      }
    }
  EXPECT_GT(Shared, 0u);
  EXPECT_GT(Fresh, 0u);
}

TEST(TraceCacheTest, Version3EntryIsRecomputedAndOverwritten) {
  // An entry written by an older build (its header says version 3) is
  // a bad entry on a disk read: the pipeline recomputes, the store
  // overwrites the file with current bytes, and those then hit.
  Program P = mustParse(StructProgram);
  const FunctionDecl &Fn = P.Functions[0];
  TestGenOptions Options = tinyTraceGen();
  std::string Dir = testing::TempDir() + "/liger_trace_cache_v3";
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec); // stale entries from prior runs
  ASSERT_TRUE(ensureDirExists(Dir));

  CollectStats Cold;
  MethodTraces ColdTraces = collectTraces(P, Fn, Options, &Cold);
  TraceCacheKey Key = traceCacheKey(StructProgram, Fn.Name, Options);
  std::string Current = serializeCacheEntry(Key, Cold, ColdTraces);
  std::string Old = Current;
  uint32_t Version = 3;
  std::memcpy(&Old[4], &Version, sizeof(Version));

  TraceCache Cache(TraceCacheMode::Full, Dir);
  ASSERT_TRUE(atomicWriteFile(Cache.entryPath(Key), Old));
  CollectStats Redo;
  MethodTraces RedoTraces =
      collectTracesCached(P, Fn, StructProgram, Options, &Cache, &Redo);
  EXPECT_EQ(Redo.CacheMisses, 1u);
  EXPECT_EQ(Cache.badEntries(), 1u);
  EXPECT_EQ(Cache.stores(), 1u);
  expectDiscoveryStatsEqual(Cold, Redo);
  expectTracesEqual(ColdTraces, RedoTraces);

  std::string OnDisk;
  ASSERT_EQ(readWholeFile(Cache.entryPath(Key), 1u << 20, OnDisk),
            ReadResult::Ok);
  EXPECT_EQ(OnDisk, Current);

  TraceCache Fresh(TraceCacheMode::Full, Dir);
  CollectStats Warm;
  MethodTraces WarmTraces =
      collectTracesCached(P, Fn, StructProgram, Options, &Fresh, &Warm);
  EXPECT_EQ(Warm.CacheHits, 1u);
  EXPECT_EQ(Fresh.badEntries(), 0u);
  expectTracesEqual(ColdTraces, WarmTraces);
}

TEST(TraceCacheTest, CorruptDiskEntryRecomputesCleanly) {
  Program P = mustParse(StructProgram);
  const FunctionDecl &Fn = P.Functions[0];
  TestGenOptions Options = tinyTraceGen();
  std::string Dir = testing::TempDir() + "/liger_trace_cache_corrupt";
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec); // stale entries from prior runs

  CollectStats Cold;
  MethodTraces ColdTraces;
  {
    TraceCache Cache(TraceCacheMode::Full, Dir);
    ColdTraces =
        collectTracesCached(P, Fn, StructProgram, Options, &Cache, &Cold);
  }

  // Vandalize the stored entry, then look it up with a fresh cache:
  // the corrupt file must count as a miss and the pipeline recompute
  // must match the cold run.
  TraceCacheKey Key = traceCacheKey(StructProgram, Fn.Name, Options);
  TraceCache Fresh(TraceCacheMode::Full, Dir);
  std::string Path = Fresh.entryPath(Key);
  FILE *F = fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  fputs("not an LGTR entry", F);
  fclose(F);

  CollectStats Redo;
  MethodTraces RedoTraces =
      collectTracesCached(P, Fn, StructProgram, Options, &Fresh, &Redo);
  EXPECT_EQ(Redo.CacheMisses, 1u);
  EXPECT_EQ(Fresh.badEntries(), 1u);
  expectDiscoveryStatsEqual(Cold, Redo);
  expectTracesEqual(ColdTraces, RedoTraces);
}

TEST(TraceCacheTest, NullOrOffCacheBypasses) {
  Program P = mustParse(AbsProgram);
  const FunctionDecl &Fn = P.Functions[0];
  TestGenOptions Options = tinyTraceGen();

  CollectStats NoCache;
  collectTracesCached(P, Fn, AbsProgram, Options, nullptr, &NoCache);
  EXPECT_EQ(NoCache.CacheBypasses, 1u);
  EXPECT_EQ(NoCache.CacheHits + NoCache.CacheMisses, 0u);

  TraceCache Off(TraceCacheMode::Off, "");
  CollectStats OffStats;
  collectTracesCached(P, Fn, AbsProgram, Options, &Off, &OffStats);
  EXPECT_EQ(OffStats.CacheBypasses, 1u);
  EXPECT_EQ(Off.hits() + Off.misses(), 0u);
}

TEST(TraceCacheTest, ModeParsing) {
  TraceCacheMode Mode;
  EXPECT_TRUE(parseTraceCacheMode("off", Mode));
  EXPECT_EQ(Mode, TraceCacheMode::Off);
  EXPECT_TRUE(parseTraceCacheMode("full", Mode));
  EXPECT_EQ(Mode, TraceCacheMode::Full);
  EXPECT_FALSE(parseTraceCacheMode("inputs", Mode));
  EXPECT_FALSE(parseTraceCacheMode("Full", Mode));
  EXPECT_FALSE(parseTraceCacheMode("", Mode));
}

TEST(TraceCacheTest, MemoryStatsSurviveDiskRoundTrip) {
  // A memory-bomb method produces a "filtered" entry — no paths, but
  // the MemoryExceeded count must survive the on-disk LGTR format so
  // corpus filtering stays correct on warm runs.
  const char *Bomb =
      "void f() { string s = \"aaaaaaaa\"; while (true) { s = s + s; } }";
  Program P = mustParse(Bomb);
  TestGenOptions Options = tinyTraceGen();
  Options.Interp.Fuel = 2000;
  Options.Interp.MaxMemoryBytes = 1u << 20;
  Options.MaxAttempts = 5;
  Options.UseSymbolicSeeding = false;
  std::string Dir = testing::TempDir() + "/liger_trace_cache_membomb";
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);

  CollectStats Cold;
  {
    TraceCache Cache(TraceCacheMode::Full, Dir);
    MethodTraces Traces =
        collectTracesCached(P, P.Functions[0], Bomb, Options, &Cache, &Cold);
    EXPECT_TRUE(Traces.Paths.empty());
    EXPECT_TRUE(Cold.allMemoryExceeded());
    EXPECT_EQ(Cache.stores(), 1u);
  }

  Program P2 = mustParse(Bomb);
  TraceCache Fresh(TraceCacheMode::Full, Dir);
  CollectStats Warm;
  MethodTraces WarmTraces = collectTracesCached(P2, P2.Functions[0], Bomb,
                                                Options, &Fresh, &Warm);
  EXPECT_EQ(Warm.CacheHits, 1u);
  EXPECT_TRUE(WarmTraces.Paths.empty());
  EXPECT_TRUE(Warm.allMemoryExceeded());
  expectDiscoveryStatsEqual(Cold, Warm);
}
