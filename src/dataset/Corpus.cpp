//===-- dataset/Corpus.cpp - Synthetic corpora generation ------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "dataset/Corpus.h"

#include "lang/Parser.h"
#include "support/Hash.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "testgen/TraceCache.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <set>

using namespace liger;

namespace {

/// Generic identifier pool for the "uninformative names" mutation.
const std::vector<std::string> GenericNames = {
    "a",  "b",  "c",  "d",  "e",  "f0", "g",  "h",  "k",
    "m",  "n0", "p",  "q",  "r",  "t",  "u",  "v",  "w",
    "x0", "y0", "z",  "tmp1", "tmp2", "val0", "var1", "var2"};

/// Misleading pool: plausible names mined from *other* domains so the
/// surface vocabulary points away from the true semantics.
const std::vector<std::string> MisleadingNames = {
    "price",  "salary", "weight", "buffer", "cache",  "queue",
    "node",   "parent", "child",  "width",  "height", "color",
    "offset", "cursor", "ticket", "score",  "angle",  "depth",
    "label",  "token",  "status", "flagged"};

/// Words reserved by the language or builtins: never valid rename
/// targets.
bool isReservedWord(const std::string &Word) {
  static const std::set<std::string> Reserved = {
      "int",   "bool",     "string", "void",  "struct", "if",
      "else",  "while",    "for",    "return", "break", "continue",
      "true",  "false",    "new",    "len",   "substring", "abs",
      "min",   "max"};
  return Reserved.count(Word) != 0;
}

/// Draws a rename target distinct from \p Used and reserved words.
std::string drawName(const std::vector<std::string> &Pool, Rng &R,
                     std::set<std::string> &Used) {
  for (int Attempt = 0; Attempt < 32; ++Attempt) {
    const std::string &Candidate = R.pick(Pool);
    if (!isReservedWord(Candidate) && Used.insert(Candidate).second)
      return Candidate;
  }
  // Fall back to a fresh unique name.
  std::string Fresh = strCat("v", std::to_string(Used.size()), "u");
  Used.insert(Fresh);
  return Fresh;
}

/// Applies identifier mutations to \p Source.
std::string mutateIdentifiers(std::string Source, const TaskSpec &Task,
                              double GenericProb, double MisleadingProb,
                              Rng &R) {
  std::set<std::string> Used(Task.Renameable.begin(), Task.Renameable.end());
  for (const std::string &Ident : Task.Renameable) {
    double Draw = R.nextDouble();
    if (Draw < GenericProb) {
      Source = replaceIdentifier(Source, Ident,
                                 drawName(GenericNames, R, Used));
    } else if (Draw < GenericProb + MisleadingProb) {
      Source = replaceIdentifier(Source, Ident,
                                 drawName(MisleadingNames, R, Used));
    }
    // Otherwise keep the informative template name.
  }
  return Source;
}

/// Inserts one dead declaration right after the function body opens.
/// The body brace is the first '{' after the FN( marker.
std::string injectDeadCode(const std::string &Source, Rng &R) {
  size_t FnPos = Source.find("FN(");
  if (FnPos == std::string::npos)
    return Source;
  size_t Brace = Source.find('{', FnPos);
  if (Brace == std::string::npos)
    return Source;
  static const char *DeadNames[] = {"unused0", "scratch1", "spare2"};
  std::string Decl = "\n  int " +
                     std::string(DeadNames[R.nextBelow(3)]) + " = " +
                     std::to_string(R.nextInt(-4, 9)) + ";";
  std::string Out = Source;
  Out.insert(Brace + 1, Decl);
  return Out;
}

/// Composes a camelCase method name from the task's synonym sets.
std::string composeName(const TaskSpec &Task, Rng &R) {
  std::vector<std::string> Parts;
  for (const std::vector<std::string> &Synonyms : Task.NameParts)
    Parts.push_back(R.pick(Synonyms));
  return camelCaseJoin(Parts);
}

/// Kinds of deliberately defective methods (Table 1 pipeline).
enum class DefectKind { None, Syntax, ExternalRef, NonTermination,
                        TooSmall };

std::string applyDefect(std::string Source, DefectKind Kind, Rng &R) {
  switch (Kind) {
  case DefectKind::None:
    return Source;
  case DefectKind::Syntax: {
    // Drop one semicolon: reliably unparseable.
    size_t Semi = Source.find(';');
    if (Semi != std::string::npos)
      Source.erase(Semi, 1);
    return Source;
  }
  case DefectKind::ExternalRef: {
    // Call into a library that is not on the classpath.
    size_t FnPos = Source.find("FN(");
    size_t Brace = FnPos == std::string::npos ? std::string::npos
                                              : Source.find('{', FnPos);
    if (Brace != std::string::npos)
      Source.insert(Brace + 1, "\n  int ext0 = externalLibraryCall(" +
                                   std::to_string(R.nextInt(0, 3)) + ");");
    return Source;
  }
  case DefectKind::NonTermination: {
    size_t FnPos = Source.find("FN(");
    size_t Brace = FnPos == std::string::npos ? std::string::npos
                                              : Source.find('{', FnPos);
    if (Brace != std::string::npos)
      Source.insert(Brace + 1, "\n  int spin3 = 0;\n  while (spin3 == 0) { "
                               "spin3 = spin3 * 1; }");
    return Source;
  }
  case DefectKind::TooSmall:
    return "int FN(int x) { return x; }";
  }
  LIGER_UNREACHABLE("covered switch");
}

/// Stable per-task seed: mixing through StableHash decorrelates the
/// streams of adjacent indices (plain Seed + Index would make worker
/// RNGs start one step apart).
uint64_t perTaskSeed(uint64_t Seed, uint64_t Index, uint64_t Salt) {
  StableHash H;
  H.addU64(Seed);
  H.addU64(Index);
  H.addU64(Salt);
  return H.digest();
}

/// Builds one MethodSample from instantiated source. Returns false
/// (with the right counter bumped) when a filter rejects it.
bool buildSample(const std::string &Source, const std::string &MethodName,
                 const TestGenOptions &TraceGen, uint64_t TraceSeed,
                 TraceCache *Cache, CorpusStats &Stats, MethodSample &Out) {
  std::string Final = replaceIdentifier(Source, "FN", MethodName);
  DiagnosticSink Diags;
  std::optional<Program> Parsed = parseAndCheck(Final, Diags);
  if (!Parsed) {
    // Distinguish the external-reference failure mode by its message.
    bool External =
        Diags.str().find("undeclared function") != std::string::npos;
    if (External)
      ++Stats.ExternalRefFailures;
    else
      ++Stats.ParseFailures;
    return false;
  }

  auto Prog = std::make_shared<Program>(std::move(*Parsed));
  const FunctionDecl *Fn = Prog->findFunction(MethodName);
  if (!Fn || !Fn->Body) {
    ++Stats.ParseFailures;
    return false;
  }

  if (countStatements(Fn->Body) < MinMethodStatements) {
    ++Stats.TooSmall;
    return false;
  }

  TestGenOptions PerMethod = TraceGen;
  PerMethod.Seed = TraceSeed;
  CollectStats Collect;
  MethodTraces Traces =
      collectTracesCached(*Prog, *Fn, Final, PerMethod, Cache, &Collect);
  Stats.CacheHits += Collect.CacheHits;
  Stats.CacheMisses += Collect.CacheMisses;
  Stats.CacheBypassed += Collect.CacheBypasses;
  Stats.Attempts += Collect.Attempts;
  Stats.Executions += Collect.Executions;
  Stats.PhaseExploreSeconds += Collect.ExploreSeconds;
  Stats.PhaseSymbolicSeconds += Collect.SymbolicSeconds;
  Stats.PhaseMutateSeconds += Collect.MutateSeconds;
  Stats.PhaseRecordSeconds += Collect.RecordSeconds;
  Stats.PhaseReplaySeconds += Collect.ReplaySeconds;
  if (Collect.allTimedOut()) {
    ++Stats.TestgenTimeouts;
    return false;
  }
  if (Collect.allMemoryExceeded()) {
    ++Stats.TestgenMemoryBombs;
    return false;
  }
  if (Traces.Paths.empty()) {
    ++Stats.NoTraces;
    return false;
  }

  Out.Prog = Prog;
  Out.Fn = Fn;
  Out.Traces = std::move(Traces);
  Out.NameSubtokens = splitSubtokens(MethodName);
  ++Stats.Kept;
  return true;
}

/// Calls Fn(I) for every I in [0, NumTasks) on \p Threads workers (<= 1
/// runs inline). Workers claim the next unclaimed index from a shared
/// counter instead of owning a fixed block: per-method cost varies by
/// orders of magnitude (a parse failure is free, a method with a long
/// loop runs every probe far into its fuel budget), so fixed blocks
/// leave workers idle behind whichever one drew the slow methods.
/// Which worker runs an index is therefore unspecified; Fn must write
/// only its index's own slot, and callers reduce slots in index order
/// (DESIGN.md §10).
void forEachClaimed(size_t NumTasks, size_t Threads,
                    const std::function<void(size_t)> &Fn) {
  size_t Workers = std::min(Threads, NumTasks);
  if (Workers <= 1) {
    for (size_t I = 0; I < NumTasks; ++I)
      Fn(I);
    return;
  }
  std::atomic<size_t> Next{0};
  ThreadPool Pool(Workers);
  Pool.run(Workers, [&](size_t) {
    for (size_t I = Next++; I < NumTasks; I = Next++)
      Fn(I);
  });
}

/// Adds every counter and timing of \p From into \p Into (the
/// index-order reduction of per-worker stats).
void accumulateStats(CorpusStats &Into, const CorpusStats &From) {
  Into.Requested += From.Requested;
  Into.ParseFailures += From.ParseFailures;
  Into.ExternalRefFailures += From.ExternalRefFailures;
  Into.TestgenTimeouts += From.TestgenTimeouts;
  Into.TestgenMemoryBombs += From.TestgenMemoryBombs;
  Into.TooSmall += From.TooSmall;
  Into.NoTraces += From.NoTraces;
  Into.Kept += From.Kept;
  Into.CacheHits += From.CacheHits;
  Into.CacheMisses += From.CacheMisses;
  Into.CacheBypassed += From.CacheBypassed;
  Into.Attempts += From.Attempts;
  Into.Executions += From.Executions;
  Into.PhaseExploreSeconds += From.PhaseExploreSeconds;
  Into.PhaseSymbolicSeconds += From.PhaseSymbolicSeconds;
  Into.PhaseMutateSeconds += From.PhaseMutateSeconds;
  Into.PhaseRecordSeconds += From.PhaseRecordSeconds;
  Into.PhaseReplaySeconds += From.PhaseReplaySeconds;
}

} // namespace

size_t liger::countStatements(const Stmt *S) {
  if (!S)
    return 0;
  size_t Count = S->kind() == StmtKind::Block ? 0 : 1;
  forEachChildStmt(
      S, [&Count](const Stmt *Child) { Count += countStatements(Child); });
  return Count;
}

std::vector<MethodSample>
liger::generateMethodCorpus(const CorpusOptions &Options,
                            CorpusStats *StatsOut) {
  // One independent slot per raw method: workers never touch shared
  // state, and the reduction below runs in index order, so the corpus
  // is a pure function of Options regardless of the thread count.
  struct SampleSlot {
    bool Kept = false;
    MethodSample Sample;
    CorpusStats Stats;
  };
  std::vector<SampleSlot> Slots(Options.NumMethods);

  // Force the magic statics (task library, interner-style pools)
  // before the parallel region.
  const std::vector<TaskSpec> &Library = taskLibrary();

  forEachClaimed(Options.NumMethods, Options.Threads, [&](size_t Index) {
    SampleSlot &Slot = Slots[Index];
    ++Slot.Stats.Requested;
    Rng R(perTaskSeed(Options.Seed, Index, /*Salt=*/0x4D455448)); // "METH"
    const TaskSpec &Task = Library[R.nextBelow(Library.size())];
    const TaskVariant &Variant =
        Task.Variants[R.nextBelow(Task.Variants.size())];

    std::string Source = Variant.Source;
    if (R.nextBool(Options.DeadCodeProb))
      Source = injectDeadCode(Source, R);
    Source = mutateIdentifiers(Source, Task, Options.GenericNameProb,
                               Options.MisleadingNameProb, R);

    DefectKind Defect = DefectKind::None;
    double Draw = R.nextDouble();
    if (Draw < Options.SyntaxDefectRate)
      Defect = DefectKind::Syntax;
    else if (Draw < Options.SyntaxDefectRate + Options.ExternalRefRate)
      Defect = DefectKind::ExternalRef;
    else if (Draw < Options.SyntaxDefectRate + Options.ExternalRefRate +
                        Options.NonTerminationRate)
      Defect = DefectKind::NonTermination;
    else if (Draw < Options.SyntaxDefectRate + Options.ExternalRefRate +
                        Options.NonTerminationRate + Options.TooSmallRate)
      Defect = DefectKind::TooSmall;
    Source = applyDefect(std::move(Source), Defect, R);

    Slot.Kept = buildSample(Source, composeName(Task, R), Options.TraceGen,
                            Options.Seed * 7919 + Index, Options.Cache,
                            Slot.Stats, Slot.Sample);
  });

  CorpusStats Stats;
  std::vector<MethodSample> Samples;
  Samples.reserve(Options.NumMethods);
  for (SampleSlot &Slot : Slots) {
    accumulateStats(Stats, Slot.Stats);
    if (!Slot.Kept)
      continue;
    Slot.Sample.Project =
        "proj" + std::to_string(Samples.size() / Options.MethodsPerProject);
    Samples.push_back(std::move(Slot.Sample));
  }

  if (StatsOut)
    *StatsOut = Stats;
  return Samples;
}

std::vector<MethodSample>
liger::generateCosetCorpus(const CosetOptions &Options,
                           std::vector<std::string> &ClassNames,
                           CorpusStats *StatsOut) {
  ClassNames.clear();

  // Enumerate (problem, algorithm) classes up front; each class is one
  // independent parallel task with its own RNG stream and trace seeds,
  // reduced in class order.
  struct ClassSpec {
    const TaskSpec *Problem = nullptr;
    const TaskVariant *Variant = nullptr;
  };
  std::vector<ClassSpec> Classes;
  for (const TaskSpec *Problem : cosetProblems())
    for (const TaskVariant &Variant : Problem->Variants) {
      Classes.push_back({Problem, &Variant});
      ClassNames.push_back(Problem->Key + "/" + Variant.Algorithm);
    }

  struct ClassSlot {
    std::vector<MethodSample> Samples;
    CorpusStats Stats; // COSET pipeline only drops crashing programs
  };
  std::vector<ClassSlot> Slots(Classes.size());

  forEachClaimed(Classes.size(), Options.Threads, [&](size_t C) {
    const ClassSpec &Spec = Classes[C];
    ClassSlot &Slot = Slots[C];
    Rng R(perTaskSeed(Options.Seed, C, /*Salt=*/0x434F5345)); // "COSE"
    size_t Made = 0;
    size_t Attempts = 0;
    while (Made < Options.ProgramsPerClass &&
           Attempts < Options.ProgramsPerClass * 3) {
      ++Attempts;
      ++Slot.Stats.Requested;
      std::string Source = Spec.Variant->Source;
      if (R.nextBool(Options.DeadCodeProb))
        Source = injectDeadCode(Source, R);
      Source = mutateIdentifiers(Source, *Spec.Problem,
                                 Options.GenericNameProb,
                                 Options.MisleadingNameProb, R);
      MethodSample Sample;
      if (!buildSample(Source, composeName(*Spec.Problem, R),
                       Options.TraceGen,
                       Options.Seed * 104729 + C * 131071 + Attempts,
                       Options.Cache, Slot.Stats, Sample))
        continue;
      Sample.ClassId = static_cast<int>(C);
      Slot.Samples.push_back(std::move(Sample));
      ++Made;
    }
  });

  CorpusStats Stats;
  std::vector<MethodSample> Samples;
  for (ClassSlot &Slot : Slots) {
    accumulateStats(Stats, Slot.Stats);
    for (MethodSample &Sample : Slot.Samples) {
      Sample.Project = "coset" + std::to_string(Samples.size() % 10);
      Samples.push_back(std::move(Sample));
    }
  }
  if (StatsOut)
    *StatsOut = Stats;
  return Samples;
}

uint64_t liger::corpusFingerprint(const std::vector<MethodSample> &Samples) {
  StableHash H;
  H.addU64(Samples.size());
  for (const MethodSample &Sample : Samples) {
    H.addString(Sample.Fn ? Sample.Fn->Name : std::string());
    H.addI64(Sample.ClassId);
    H.addString(Sample.Project);
    H.addU64(Sample.NameSubtokens.size());
    for (const std::string &Tok : Sample.NameSubtokens)
      H.addString(Tok);
    H.addU64(Sample.Traces.VarNames.size());
    for (const std::string &Name : Sample.Traces.VarNames)
      H.addString(Name);
    H.addU64(Sample.Traces.Paths.size());
    for (const BlendedTrace &Path : Sample.Traces.Paths) {
      H.addU64(Path.Symbolic.Steps.size());
      for (const SymbolicStep &Step : Path.Symbolic.Steps) {
        H.addU32(Step.Statement->id());
        H.addU8(static_cast<uint8_t>(Step.Kind));
      }
      auto AddState = [&H](const std::vector<Value> &Values) {
        H.addU64(Values.size());
        for (const Value &V : Values)
          H.addString(V.str());
      };
      H.addU64(Path.Concrete.size());
      for (const StateTrace &ST : Path.Concrete) {
        AddState(ST.Initial.Values);
        H.addU64(ST.States.size());
        for (const ProgramState &State : ST.States)
          AddState(State.Values);
      }
      H.addU64(Path.Inputs.size());
      for (const std::vector<Value> &Inputs : Path.Inputs)
        AddState(Inputs);
    }
  }
  return H.digest();
}

SplitCorpus liger::splitByProject(std::vector<MethodSample> Samples,
                                  double ValidFrac, double TestFrac,
                                  uint64_t Seed) {
  // Collect distinct projects in first-seen order, then shuffle them.
  std::vector<std::string> Projects;
  std::map<std::string, size_t> Index;
  for (const MethodSample &Sample : Samples)
    if (Index.emplace(Sample.Project, Projects.size()).second)
      Projects.push_back(Sample.Project);
  Rng R(Seed);
  R.shuffle(Projects);

  size_t NumValid =
      static_cast<size_t>(static_cast<double>(Projects.size()) * ValidFrac);
  size_t NumTest =
      static_cast<size_t>(static_cast<double>(Projects.size()) * TestFrac);
  std::set<std::string> ValidSet(Projects.begin(),
                                 Projects.begin() + NumValid);
  std::set<std::string> TestSet(Projects.begin() + NumValid,
                                Projects.begin() + NumValid + NumTest);

  SplitCorpus Split;
  for (MethodSample &Sample : Samples) {
    if (ValidSet.count(Sample.Project))
      Split.Valid.push_back(std::move(Sample));
    else if (TestSet.count(Sample.Project))
      Split.Test.push_back(std::move(Sample));
    else
      Split.Train.push_back(std::move(Sample));
  }
  return Split;
}
