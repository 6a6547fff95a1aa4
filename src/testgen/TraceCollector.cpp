//===-- testgen/TraceCollector.cpp - Feedback-directed trace harvest ------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "testgen/TraceCollector.h"

#include "support/BinaryIO.h"
#include "support/Stopwatch.h"
#include "symx/SymExec.h"
#include "testgen/TraceCache.h"

#include <map>
#include <unordered_map>

using namespace liger;

namespace {

/// Inputs selected per path, in path-discovery order. Runs accepted
/// during the recording phases (symbolic seeding, mutation) already
/// carry their state-recorded ExecResult, so phase 4 reuses them
/// instead of executing the same inputs a second time; Recorded and
/// HasRecorded are parallel to Inputs.
struct PathBucket {
  std::vector<std::vector<Value>> Inputs;
  std::vector<ExecResult> Recorded;
  std::vector<char> HasRecorded;

  void accept(const std::vector<Value> &In, ExecResult Run, bool Record) {
    Inputs.push_back(In);
    HasRecorded.push_back(Record ? 1 : 0);
    Recorded.push_back(Record ? std::move(Run) : ExecResult());
  }
};

/// Execution mutates reference-typed arguments in place (arrays are
/// aliased, exactly like Java) — always run on a deep copy so stored
/// inputs stay pristine and replays are faithful.
std::vector<Value> deepCopyInputs(const std::vector<Value> &Inputs) {
  std::vector<Value> Copy;
  Copy.reserve(Inputs.size());
  for (const Value &V : Inputs)
    Copy.push_back(V.deepCopy());
  return Copy;
}

/// Appends \p V's exact, self-delimiting encoding to \p Out: a kind
/// tag, then the int (zigzag, so small negatives stay short) or bool
/// payload, a string's length and bytes, an array's length and
/// elements, or a struct's declaration, field count and fields. Every
/// number is a LEB128 varint: one byte for the small values the input
/// domains draw.
void encodeValue(const Value &V, std::string &Out) {
  Out.push_back(static_cast<char>(V.kind()));
  switch (V.kind()) {
  case ValueKind::Undef:
    return;
  case ValueKind::Int:
    appendVarint(Out, zigzagEncode(V.asInt()));
    return;
  case ValueKind::Bool:
    Out.push_back(V.asBool() ? 1 : 0);
    return;
  case ValueKind::String:
    appendVarint(Out, V.asString().size());
    Out += V.asString();
    return;
  case ValueKind::Struct:
    appendVarint(Out, reinterpret_cast<uintptr_t>(V.structDecl()));
    [[fallthrough]];
  case ValueKind::Array:
    appendVarint(Out, V.elements().size());
    for (const Value &Elem : V.elements())
      encodeValue(Elem, Out);
    return;
  }
  LIGER_UNREACHABLE("covered switch");
}

/// The probe memo's key for \p Inputs. Executions run on a deep copy
/// (deepCopyInputs), which shares no heap with anything, so an
/// execution sees exactly what the key encodes. Typical inputs encode
/// in a few bytes, within std::string's inline buffer.
std::string probeKey(const std::vector<Value> &Inputs) {
  std::string Key;
  for (const Value &V : Inputs)
    encodeValue(V, Key);
  return Key;
}

/// What the phase-1 probe of one distinct input found: everything a
/// repeat of the input needs, since it would take the same path.
struct ProbeOutcome {
  /// The bucket of a new path found once TargetPaths paths were known.
  /// Buckets are only added below the target, so a repeat of the input
  /// is rejected too.
  static constexpr size_t Rejected = ~size_t(0);
  ExecStatus Status = ExecStatus::Ok;
  /// For an Ok run, the bucket of its path, or Rejected.
  size_t Bucket = Rejected;
};

/// The four-phase discovery pipeline. Fills \p LocalStats (discovery
/// counters plus per-phase timings).
///
/// Output is a pure function of (P, Fn, Options): the interpreter and
/// both input generators are deterministic, and state recording never
/// influences path keys or control flow (the recorded-step cap applies
/// identically with recording on or off), so accepting a run straight
/// from a recording execution is bitwise-equivalent to probing first
/// and re-executing later. For the same reason a phase-1 input that was
/// already probed is answered from the probe memo instead of run again.
MethodTraces runPipeline(const Program &P, const FunctionDecl &Fn,
                         const TestGenOptions &Options,
                         CollectStats &LocalStats) {
  Rng R(Options.Seed);
  Stopwatch Phase;

  // Resolved once; every execution of this method shares it.
  FrameLayout Layout(P, Fn);
  InterpOptions ProbeOptions = Options.Interp;
  ProbeOptions.RecordStates = false; // discovery probes skip snapshots
  InterpOptions FullOptions = Options.Interp;
  FullOptions.RecordStates = true;

  std::map<std::string, size_t> PathIndex;
  std::vector<PathBucket> Buckets;
  // Phase-1 outcomes by input content. Execution is a pure function of
  // (layout, input content, options), so a repeated probe is looked up,
  // not run; it counts and fills buckets exactly as its run would.
  std::unordered_map<std::string, ProbeOutcome> Probes;

  // Counts a run that ended with \p Status; true when it returned.
  auto CountRun = [&](ExecStatus Status) {
    switch (Status) {
    case ExecStatus::Ok:
      ++LocalStats.OkRuns;
      return true;
    case ExecStatus::OutOfFuel:
      ++LocalStats.Timeouts;
      return false;
    case ExecStatus::MemoryLimit:
      ++LocalStats.MemoryExceeded;
      return false;
    case ExecStatus::RuntimeError:
      ++LocalStats.Faults;
      return false;
    }
    LIGER_UNREACHABLE("covered switch");
  };

  // Accepts a run on the known path of bucket \p Index if the bucket
  // has room.
  auto Fill = [&](size_t Index, const std::vector<Value> &Inputs,
                  ExecResult Run, bool Record) {
    PathBucket &Bucket = Buckets[Index];
    if (Bucket.Inputs.size() >= Options.ExecutionsPerPath)
      return false;
    Bucket.accept(Inputs, std::move(Run), Record);
    return true;
  };

  // Executes one candidate input and accepts it if it discovers a new
  // path or fills an unsaturated one. With \p Record set the execution
  // snapshots states and, on acceptance, is kept for phase 4 — used by
  // the phases whose acceptance rate is high enough that recording
  // up front is cheaper than re-executing later. Without it the input
  // goes through the probe memo.
  auto TryInput = [&](const std::vector<Value> &Inputs, bool Record) -> bool {
    ++LocalStats.Attempts;
    // Points into Probes; nothing else is inserted before it is filled.
    ProbeOutcome *Probe = nullptr;
    if (!Record) {
      auto [It, Fresh] = Probes.try_emplace(probeKey(Inputs));
      Probe = &It->second;
      if (!Fresh)
        return CountRun(Probe->Status) &&
               Probe->Bucket != ProbeOutcome::Rejected &&
               Fill(Probe->Bucket, Inputs, ExecResult(), /*Record=*/false);
    }
    ++LocalStats.Executions;
    ExecResult Run = execute(Layout, deepCopyInputs(Inputs),
                             Record ? FullOptions : ProbeOptions);
    if (Probe)
      Probe->Status = Run.Status;
    if (!CountRun(Run.Status))
      return false;
    std::string Key = pathKeyOf(Run);
    auto It = PathIndex.find(Key);
    if (It == PathIndex.end()) {
      if (Buckets.size() >= Options.TargetPaths)
        return false; // enough paths; ignore further novelty
      if (Probe)
        Probe->Bucket = Buckets.size();
      PathIndex.emplace(std::move(Key), Buckets.size());
      Buckets.emplace_back();
      Buckets.back().accept(Inputs, std::move(Run), Record);
      return true;
    }
    if (Probe)
      Probe->Bucket = It->second;
    return Fill(It->second, Inputs, std::move(Run), Record);
  };

  // Phase 1: random exploration. Methods that look hostile (every
  // early probe exhausts its fuel or memory budget) are abandoned
  // quickly — the Table 1 "takes too long" filter and its allocation-
  // bomb sibling should not themselves take long.
  // Probes stay recording-free: most random inputs are rejected, so
  // snapshotting them up front would be wasted work. The input domains
  // are small, so many probes repeat an earlier one and skip the
  // interpreter; the Rng still draws every attempt's inputs.
  for (unsigned Attempt = 0; Attempt < Options.MaxAttempts; ++Attempt) {
    unsigned Hostile = LocalStats.Timeouts + LocalStats.MemoryExceeded;
    if (Hostile >= 8 && Hostile == LocalStats.Attempts)
      break;
    if (Buckets.size() >= Options.TargetPaths) {
      // Stop early once every discovered path is also saturated.
      bool AllFull = true;
      for (const PathBucket &Bucket : Buckets)
        if (Bucket.Inputs.size() < Options.ExecutionsPerPath) {
          AllFull = false;
          break;
        }
      if (AllFull)
        break;
    }
    TryInput(randomInputs(Fn, P, R, Options.Input), /*Record=*/false);
  }
  LocalStats.ExploreSeconds = Phase.seconds();

  // Phase 2: symbolic seeding of paths random testing missed. Witness
  // inputs target an undiscovered path, so acceptance is near-certain:
  // record immediately and spare phase 4 the re-execution.
  Phase.reset();
  if (Options.UseSymbolicSeeding &&
      Buckets.size() < Options.TargetPaths) {
    SymxOptions Symx;
    Symx.MaxPaths = Options.TargetPaths;
    Symx.Solver.Seed = Options.Seed ^ 0x5EEDu;
    for (const SymbolicPath &Path : enumeratePaths(P, Fn, Symx)) {
      if (Buckets.size() >= Options.TargetPaths)
        break;
      if (PathIndex.count(Path.Trace.pathKey()))
        continue;
      if (TryInput(Path.WitnessInputs, /*Record=*/true))
        ++LocalStats.SymbolicSeeds;
    }
  }
  LocalStats.SymbolicSeconds = Phase.seconds();

  // Phase 3: mutate per-path representatives to fill concrete slots.
  // Mutants mostly stay on their seed's path, so record these too.
  Phase.reset();
  for (size_t Index = 0; Index < Buckets.size(); ++Index) {
    unsigned Budget = Options.MutationAttemptsPerPath;
    while (Buckets[Index].Inputs.size() < Options.ExecutionsPerPath &&
           Budget-- > 0) {
      const std::vector<Value> &Seed =
          Buckets[Index].Inputs[R.nextBelow(Buckets[Index].Inputs.size())];
      TryInput(mutateInputs(Seed, R, Options.Input), /*Record=*/true);
    }
  }
  LocalStats.MutateSeconds = Phase.seconds();

  // Phase 4: assemble every selected input's state-recorded execution,
  // running the interpreter only for inputs accepted without recording
  // (phase-1 discoveries).
  Phase.reset();
  size_t TotalAccepted = 0;
  for (const PathBucket &Bucket : Buckets)
    TotalAccepted += Bucket.Inputs.size();
  std::vector<ExecResult> Results;
  std::vector<std::vector<Value>> AllInputs;
  Results.reserve(TotalAccepted);
  AllInputs.reserve(TotalAccepted);
  for (PathBucket &Bucket : Buckets)
    for (size_t I = 0; I < Bucket.Inputs.size(); ++I) {
      if (Bucket.HasRecorded[I]) {
        Results.push_back(std::move(Bucket.Recorded[I]));
      } else {
        ++LocalStats.Executions;
        Results.push_back(
            execute(Layout, deepCopyInputs(Bucket.Inputs[I]), FullOptions));
      }
      AllInputs.push_back(std::move(Bucket.Inputs[I]));
    }
  MethodTraces Out =
      groupByPath(Fn, std::move(Results), std::move(AllInputs));
  LocalStats.RecordSeconds = Phase.seconds();
  return Out;
}

} // namespace

MethodTraces liger::collectTraces(const Program &P, const FunctionDecl &Fn,
                                  const TestGenOptions &Options,
                                  CollectStats *Stats) {
  CollectStats LocalStats;
  LocalStats.CacheBypasses = 1;
  MethodTraces Out = runPipeline(P, Fn, Options, LocalStats);
  if (Stats)
    *Stats = LocalStats;
  return Out;
}

MethodTraces liger::collectTracesCached(const Program &P,
                                        const FunctionDecl &Fn,
                                        const std::string &SourceText,
                                        const TestGenOptions &Options,
                                        TraceCache *Cache,
                                        CollectStats *Stats) {
  if (!Cache || Cache->mode() == TraceCacheMode::Off)
    return collectTraces(P, Fn, Options, Stats);

  CollectStats LocalStats;
  TraceCacheKey Key = traceCacheKey(SourceText, Fn.Name, Options);
  if (std::shared_ptr<const std::string> Entry = Cache->lookup(Key)) {
    // A hit parses the cached traces against P and restores the
    // discovery counters, so corpus filter decisions match the cold run.
    Stopwatch Replay;
    MethodTraces Out;
    if (parseCacheEntry(*Entry, Key, P, Fn, LocalStats, Out)) {
      LocalStats.ReplaySeconds = Replay.seconds();
      LocalStats.CacheHits = 1;
      if (Stats)
        *Stats = LocalStats;
      return Out;
    }
    // Unapplicable entry (e.g. hashed-field-set change without a salt
    // bump during development): recompute from scratch.
    LocalStats = CollectStats();
  }

  LocalStats.CacheMisses = 1;
  MethodTraces Out = runPipeline(P, Fn, Options, LocalStats);
  Cache->store(Key, serializeCacheEntry(Key, LocalStats, Out));

  if (Stats)
    *Stats = LocalStats;
  return Out;
}
