//===-- serve/Serve.cpp - Embedding/naming service core --------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"

#include "lang/Parser.h"
#include "nn/Checkpoint.h"
#include "support/Error.h"
#include "support/Hash.h"
#include "testgen/TraceCache.h"

#include <chrono>
#include <cstring>

using namespace liger;

namespace {

using Clock = std::chrono::steady_clock;

double millisSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Deterministic per-request trace seed: a function of the source,
/// method name, and corpus seed only, so repeated requests for the
/// same method key identically into the shared trace cache.
uint64_t requestTraceSeed(const ServeRequest &Request, uint64_t Seed) {
  StableHash H;
  H.addString(Request.Source);
  H.addString(Request.MethodName);
  H.addU64(Seed);
  return H.digest();
}

} // namespace

LigerConfig liger::serveLigerConfig(const ExperimentScale &Scale) {
  return ligerConfig(Scale);
}

const char *liger::serveStatusName(ServeStatus Status) {
  switch (Status) {
  case ServeStatus::Ok:
    return "ok";
  case ServeStatus::ParseError:
    return "parse-error";
  case ServeStatus::NoSuchMethod:
    return "no-such-method";
  case ServeStatus::TooSmall:
    return "too-small";
  case ServeStatus::NoTraces:
    return "no-traces";
  case ServeStatus::DeadlineExceeded:
    return "deadline-exceeded";
  }
  LIGER_UNREACHABLE("covered switch");
}

/// RAII lease of one pooled inference engine. ThreadPool::run hands
/// tasks an index, not a stable worker identity, so engines are
/// checked out of a free list for the duration of one request.
struct ServeEngine::EngineLease {
  ServeEngine &S;
  size_t Index;

  explicit EngineLease(ServeEngine &S) : S(S) {
    std::unique_lock<std::mutex> Lock(S.EngineMutex);
    S.EngineAvailable.wait(Lock, [&] { return !S.FreeEngines.empty(); });
    Index = S.FreeEngines.back();
    S.FreeEngines.pop_back();
  }
  ~EngineLease() {
    {
      std::lock_guard<std::mutex> Lock(S.EngineMutex);
      S.FreeEngines.push_back(Index);
    }
    S.EngineAvailable.notify_one();
  }
  LigerInference &engine() { return *S.Engines[Index]; }
};

ServeEngine::ServeEngine(const ServeConfig &Config)
    : Config(Config), ModelConfig(serveLigerConfig(Config.Scale)),
      Cache(Config.Scale.Cache), Pool(Config.Workers) {
  // Rebuild the task for its vocabularies: corpus generation is
  // deterministic in (Scale, UseLarge), so the ids match the run that
  // produced the checkpoint as long as the scales match.
  NameTask Task = buildNameTask(Config.Scale, Config.UseLarge);
  Joint = std::move(Task.Joint);
  Target = std::move(Task.Target);

  // Materialize parameters exactly as training would have initialized
  // them, optionally overwrite from a checkpoint, bake the immutable
  // weight image, and drop the graph-capable model: serving never
  // needs Nodes or gradients again.
  {
    LigerNamePredictor Net(Joint, Target, ModelConfig, Config.Scale.Seed);
    if (!Config.CheckpointPath.empty()) {
      std::string Error;
      bool Loaded = loadCheckpoint(Config.CheckpointPath, Net.params(),
                                   nullptr, nullptr, &Error);
      LIGER_CHECK(Loaded, "liger_serve: cannot load checkpoint");
    }
    Image = WeightImage::fromStore(Net.params());
  }

  size_t NumEngines = Config.Workers == 0 ? 1 : Config.Workers;
  Engines.reserve(NumEngines);
  FreeEngines.reserve(NumEngines);
  for (size_t I = 0; I < NumEngines; ++I) {
    Engines.push_back(std::make_unique<LigerInference>(Image, Joint, &Target,
                                                       ModelConfig));
    FreeEngines.push_back(I);
  }
}

ServeResponse ServeEngine::handle(const ServeRequest &Request) {
  EngineLease Lease(*this);
  LigerInference &Engine = Lease.engine();
  // The engine's counters are only read while this request leases it;
  // stats() sees them as the deltas added here under StatsMutex.
  LigerInference::CacheStats Before = Engine.cacheStats();
  ServeResponse Resp = handleOn(Request, Engine);
  const LigerInference::CacheStats &After = Engine.cacheStats();

  std::lock_guard<std::mutex> Lock(StatsMutex);
  Stats.Embeddings.StmtHits += After.StmtHits - Before.StmtHits;
  Stats.Embeddings.StmtMisses += After.StmtMisses - Before.StmtMisses;
  Stats.Embeddings.StateHits += After.StateHits - Before.StateHits;
  Stats.Embeddings.StateMisses += After.StateMisses - Before.StateMisses;
  ++Stats.Requests;
  switch (Resp.Status) {
  case ServeStatus::Ok:
    ++Stats.Ok;
    break;
  case ServeStatus::ParseError:
    ++Stats.ParseErrors;
    break;
  case ServeStatus::NoSuchMethod:
    ++Stats.NoSuchMethod;
    break;
  case ServeStatus::TooSmall:
    ++Stats.TooSmall;
    break;
  case ServeStatus::NoTraces:
    ++Stats.NoTraces;
    break;
  case ServeStatus::DeadlineExceeded:
    ++Stats.DeadlineExceeded;
    break;
  }
  return Resp;
}

ServeResponse ServeEngine::handleOn(const ServeRequest &Request,
                                    LigerInference &Engine) {
  Clock::time_point Start = Clock::now();
  uint64_t DeadlineMs = Request.DeadlineMillis != 0
                            ? Request.DeadlineMillis
                            : Config.DefaultDeadlineMillis;
  auto pastDeadline = [&] {
    return DeadlineMs != 0 && millisSince(Start) > double(DeadlineMs);
  };

  ServeResponse Resp;
  auto finish = [&](ServeStatus Status, const std::string &Diag) {
    Resp.Status = Status;
    Resp.Diagnostic = Diag;
    Resp.Millis = millisSince(Start);
    return Resp;
  };
  auto deadline = [&](const char *Phase) {
    return finish(ServeStatus::DeadlineExceeded,
                  std::string("deadline of ") + std::to_string(DeadlineMs) +
                      "ms exceeded after " + Phase);
  };

  // The corpus pipeline, phase by phase (dataset/Corpus.cpp
  // buildSample), with a wall-clock check after each phase. The fuel /
  // memory / attempt budgets of DESIGN.md §12 bound each phase's work
  // but not its time, and nothing checks the clock inside a phase: the
  // symbolic phase alone can return 0.5-1.8 s after a 1 ms deadline in
  // an optimized build (DESIGN.md §13.3; preempting inside a phase is
  // an open ROADMAP item).
  DiagnosticSink Diags;
  std::optional<Program> Parsed = parseAndCheck(Request.Source, Diags);
  if (!Parsed)
    return finish(ServeStatus::ParseError, Diags.str());

  const FunctionDecl *Fn = Parsed->findFunction(Request.MethodName);
  if (!Fn || !Fn->Body)
    return finish(ServeStatus::NoSuchMethod,
                  "no function '" + Request.MethodName + "' in source");

  // The service rejects exactly what corpus generation would have
  // dropped, so served methods look like training-distribution methods.
  if (countStatements(Fn->Body) < MinMethodStatements)
    return finish(ServeStatus::TooSmall,
                  "method under the " + std::to_string(MinMethodStatements) +
                      "-statement corpus threshold");
  if (pastDeadline())
    return deadline("parse");

  TestGenOptions TraceGen = Config.Scale.traceGenOptions();
  TraceGen.Seed = requestTraceSeed(Request, Config.Scale.Seed);
  CollectStats Collect;
  MethodTraces Traces = collectTracesCached(*Parsed, *Fn, Request.Source,
                                            TraceGen, Cache.get(), &Collect);
  Resp.TraceCacheHit = Collect.CacheHits > 0;
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    Stats.TraceCacheHits += Collect.CacheHits;
    Stats.TraceCacheMisses += Collect.CacheMisses;
  }
  // Deadline dominates the trace-outcome filters: a request that blew
  // its wall-clock budget reports DeadlineExceeded even when the
  // collection outcome would also have been terminal.
  if (pastDeadline())
    return deadline("trace collection");
  if (Collect.allTimedOut())
    return finish(ServeStatus::NoTraces, "every execution timed out");
  if (Collect.allMemoryExceeded())
    return finish(ServeStatus::NoTraces,
                  "every execution exceeded the memory budget");
  if (Traces.Paths.empty())
    return finish(ServeStatus::NoTraces, "no successful execution");

  LigerInference::Encoding Encoded = Engine.encodeForDecode(Traces);
  if (Config.ReturnEmbedding) {
    Resp.Embedding.assign(Encoded.Program,
                          Encoded.Program + ModelConfig.Hidden);
    if (pastDeadline())
      return deadline("encode");
  }
  Resp.NameSubtokens = Engine.predictName(Encoded);
  return finish(ServeStatus::Ok, "");
}

std::vector<ServeResponse>
ServeEngine::handleBatch(const std::vector<ServeRequest> &Requests) {
  std::vector<ServeResponse> Out(Requests.size());
  Pool.run(Requests.size(),
           [&](size_t I) { Out[I] = handle(Requests[I]); });
  return Out;
}

ServeStats ServeEngine::stats() const {
  ServeStats Out;
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    Out = Stats;
  }
  if (Cache) {
    Out.TraceCacheEntries = Cache->entries();
    Out.TraceCacheBytes = Cache->residentBytes();
  }
  return Out;
}
