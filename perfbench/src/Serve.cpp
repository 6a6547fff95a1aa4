//===-- perfbench/src/Serve.cpp - The serve workload ----------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// A ServeEngine with K = min(4, nproc) workers and an empty Full-mode
// trace cache, driven by K closed-loop clients: each
// calls handle() and sends its next request only when the previous one
// returned, as callers of liger_serve do. The request streams come from
// Requests.h, one per client and session. The model is the seed-derived
// initial one on the mini-med vocabularies (fixed corpus seed, as in the
// train workload).
//
// With tracing on, every session is served twice: through handle(), and
// then, on a fresh cache, through a copy of its phases built from public
// calls (parseAndCheck, collectTracesCached, predictName on one
// LigerInference per client), which must give every request the same
// status and names.
//
//===----------------------------------------------------------------------===//

#include "Requests.h"
#include "Spans.h"
#include "Workloads.h"

#include "lang/Parser.h"
#include "support/Hash.h"
#include "support/Stopwatch.h"
#include "testgen/TraceCache.h"

#include <thread>
#include <unordered_set>

using namespace liger;
using namespace perfbench;

namespace {

constexpr uint64_t MiniMedCorpusSeed = 7;
/// Requests each client sends per session. A session builds a fresh
/// engine (one set-up sample) and serves a fixed amount of traffic, so
/// its memory and cache ratios do not depend on the machine's speed; the
/// run repeats sessions until its time is up. The Full-mode cache keeps
/// every entry in memory for the engine's lifetime (about 0.25 MiB per
/// novel request at this scale), which sessions also bound.
constexpr size_t RequestsPerClient = 600;
/// Sessions run at least, whatever the time; peak_rss_mb is the median
/// peak over them.
constexpr size_t MinSessions = 3;

/// The serving scale with a fresh, empty Full-mode trace cache. The
/// cache is memory-only for the reason given in Corpus.cpp: LGTR files
/// made the run measure the machine's disk.
ExperimentScale serveScale() {
  ExperimentScale Scale;
  Scale.Seed = MiniMedCorpusSeed;
  Scale.Threads = benchThreads();
  Scale.CacheMode = TraceCacheMode::Full;
  Scale.Cache = std::make_shared<TraceCache>(Scale.CacheMode, "");
  return Scale;
}

/// What one client saw in one session half.
struct ClientLog {
  std::vector<ServeStatus> Status;
  std::vector<std::vector<std::string>> Names;
  std::vector<double> Ms, NovelMs, RepeatMs, LeaseWaitMs;
  uint64_t TraceHits = 0, TraceMisses = 0;
  Checks Outcomes;
};

/// Records request \p I's outcome and checks it: the expected status,
/// never a deadline, and a repeat predicts what its original predicted.
void recordResponse(const std::vector<StreamRequest> &Stream, size_t I,
                    ServeStatus Status, std::vector<std::string> Names,
                    ClientLog &Log) {
  const StreamRequest &SR = Stream[I];
  bool Ok = Status == SR.Expected && Status != ServeStatus::DeadlineExceeded;
  if (Ok && SR.Kind == RequestKind::Repeat)
    Ok = Log.Status[SR.RepeatOf] == ServeStatus::Ok &&
         Log.Names[SR.RepeatOf] == Names;
  Log.Outcomes.check(Ok, std::string(requestKindName(SR.Kind)) + " request " +
                             SR.Request.MethodName + ": got " +
                             serveStatusName(Status) + ", expected " +
                             serveStatusName(SR.Expected));
  Log.Status[I] = Status;
  Log.Names[I] = std::move(Names);
}

/// Runs one closed-loop client thread per stream until every stream is
/// served; \p Handle serves request I of client C into its log. Returns
/// the logs and the wall seconds.
template <typename HandleFn>
std::pair<std::vector<ClientLog>, double>
closedLoop(const std::vector<std::vector<StreamRequest>> &Streams,
           HandleFn &&Handle) {
  std::vector<ClientLog> Logs(Streams.size());
  for (size_t C = 0; C < Streams.size(); ++C) {
    Logs[C].Status.resize(Streams[C].size());
    Logs[C].Names.resize(Streams[C].size());
  }
  Stopwatch Wall;
  std::vector<std::thread> Clients;
  for (size_t C = 0; C < Streams.size(); ++C)
    Clients.emplace_back([&, C] {
      for (size_t I = 0; I < Streams[C].size(); ++I)
        Handle(C, I, Logs[C]);
    });
  for (std::thread &T : Clients)
    T.join();
  return {std::move(Logs), Wall.seconds()};
}

/// The request phases of ServeEngine::handleOn, with a span per call.
void handleTraced(const ServeRequest &Req, uint64_t Id, uint64_t Root,
                  const ExperimentScale &Scale, LigerInference &Engine,
                  SpanRecorder &Rec, ServeStatus &Status,
                  std::vector<std::string> &Names) {
  ScopedSpan Span(&Rec, "serve.request", Id, Root);
  std::optional<Program> Parsed;
  const FunctionDecl *Fn = nullptr;
  {
    ScopedSpan Parse(&Rec, "lang.parse_typecheck", Id);
    DiagnosticSink Diags;
    Parsed = parseAndCheck(Req.Source, Diags);
    Fn = Parsed ? Parsed->findFunction(Req.MethodName) : nullptr;
    if (!Parsed)
      Status = ServeStatus::ParseError;
    else if (!Fn || !Fn->Body)
      Status = ServeStatus::NoSuchMethod;
    else if (statementCount(Fn->Body) < 3)
      Status = ServeStatus::TooSmall;
    else
      Status = ServeStatus::Ok;
  }
  if (Status != ServeStatus::Ok)
    return;

  TestGenOptions TraceGen = Scale.traceGenOptions();
  StableHash H;
  H.addString(Req.Source);
  H.addString(Req.MethodName);
  H.addU64(Scale.Seed);
  TraceGen.Seed = H.digest();
  CollectStats Collect;
  MethodTraces Traces;
  {
    ScopedSpan Span(&Rec, "testgen.collect_miss", Id);
    Traces = collectTracesCached(*Parsed, *Fn, Req.Source, TraceGen,
                                 Scale.Cache.get(), &Collect);
    if (Collect.CacheHits > 0)
      Span.rename("testgen.collect_hit");
  }
  if (Collect.allTimedOut() || Collect.allMemoryExceeded() ||
      Traces.Paths.empty()) {
    Status = ServeStatus::NoTraces;
    return;
  }
  ScopedSpan Predict(&Rec, "models.predict", Id);
  Names = Engine.predictName(Traces);
}

/// Sums over a run's sessions.
struct ServeTotals {
  double Items = 0, Seconds = 0, DistinctSources = 0, ArenaFloats = 0;
  double Kinds[5] = {0, 0, 0, 0, 0};
  uint64_t TraceHits = 0, TraceMisses = 0;
  size_t TracedSessions = 0;
  LigerInference::CacheStats Embeddings;
};

/// Adds one untraced session half: latency samples, its throughput, and
/// the traffic it carried.
void addUntraced(const std::vector<std::vector<StreamRequest>> &Streams,
                 const std::vector<ClientLog> &Logs, double Seconds,
                 Report &Out, ServeTotals &T) {
  std::unordered_set<uint64_t> Sources;
  double Requests = 0;
  for (size_t C = 0; C < Logs.size(); ++C) {
    const ClientLog &Log = Logs[C];
    Out.Outcomes.merge(Log.Outcomes);
    auto append = [&](const char *Name, const std::vector<double> &From) {
      std::vector<double> &To = Out.series(Name);
      To.insert(To.end(), From.begin(), From.end());
    };
    append("op_ms", Log.Ms);
    append("novel_ms", Log.NovelMs);
    append("repeat_ms", Log.RepeatMs);
    append("lease_wait_ms", Log.LeaseWaitMs);
    for (const StreamRequest &SR : Streams[C]) {
      StableHash H;
      H.addString(SR.Request.Source);
      H.addString(SR.Request.MethodName);
      Sources.insert(H.digest());
      ++T.Kinds[static_cast<size_t>(SR.Kind)];
    }
    Requests += static_cast<double>(Streams[C].size());
    T.TraceHits += Log.TraceHits;
    T.TraceMisses += Log.TraceMisses;
  }
  Out.series("rate").push_back(Requests / Seconds);
  T.Items += Requests;
  T.Seconds += Seconds;
  T.DistinctSources += static_cast<double>(Sources.size());
}

/// Serves the session's streams again through handleTraced on a fresh
/// cache and checks that every request gets what handle() gave it.
void runTraced(const std::vector<std::vector<StreamRequest>> &Streams,
               const std::vector<ClientLog> &Untraced,
               const ServeEngine &Engine,
               uint64_t Session, SpanRecorder &Rec, Report &Out,
               ServeTotals &T) {
  ExperimentScale Scale = serveScale();
  std::vector<std::unique_ptr<LigerInference>> Engines;
  for (size_t C = 0; C < Streams.size(); ++C)
    Engines.push_back(std::make_unique<LigerInference>(
        Engine.weightImage(), Engine.jointVocab(), &Engine.targetVocab(),
        Engine.modelConfig()));
  std::vector<ClientLog> Traced;
  {
    ScopedSpan Root(&Rec, "bench.serve", Session);
    uint64_t RootId = Root.id();
    Traced = closedLoop(Streams, [&](size_t C, size_t I, ClientLog &Log) {
               ServeStatus Status = ServeStatus::Ok;
               std::vector<std::string> Names;
               Stopwatch Timer;
               handleTraced(Streams[C][I].Request,
                            (Session << 40) | (uint64_t(C) << 32) | I, RootId,
                            Scale, *Engines[C], Rec, Status, Names);
               Log.Ms.push_back(Timer.millis());
               recordResponse(Streams[C], I, Status, std::move(Names), Log);
             }).first;
  }
  for (size_t C = 0; C < Streams.size(); ++C) {
    Out.Outcomes.merge(Traced[C].Outcomes);
    for (size_t I = 0; I < Streams[C].size(); ++I)
      Out.Outcomes.check(Traced[C].Status[I] == Untraced[C].Status[I] &&
                             Traced[C].Names[I] == Untraced[C].Names[I],
                         "traced request " + Streams[C][I].Request.MethodName +
                             " predicted other names than handle()");
    std::vector<double> &To = Out.series("traced_op_ms");
    To.insert(To.end(), Traced[C].Ms.begin(), Traced[C].Ms.end());
    T.ArenaFloats += static_cast<double>(Engines[C]->arenaFloats());
  }
  ++T.TracedSessions;
}

double ratio(uint64_t Hits, uint64_t Misses) {
  return Hits + Misses ? double(Hits) / double(Hits + Misses) : 0;
}

} // namespace

void perfbench::runServe(const RunOptions &Run, Report &Out) {
  const size_t K = benchThreads();
  std::unique_ptr<SpanRecorder> Rec;
  if (Run.Trace)
    Rec = std::make_unique<SpanRecorder>();
  ServeTotals T;

  Stopwatch Elapsed;
  for (size_t S = 0; S < MinSessions || Elapsed.seconds() < Run.Seconds; ++S) {
    std::vector<std::vector<StreamRequest>> Streams;
    for (size_t C = 0; C < K; ++C)
      Streams.push_back(generateStream(deriveSeed(Run.Seed, "serve", S), C,
                                       RequestsPerClient));

    // Set-up: engine construction (vocabulary rebuild, model init,
    // weight image, per-worker engines) with an empty trace cache.
    ServeConfig Config;
    Config.Scale = serveScale();
    Config.Workers = K;
    if (S < MinSessions)
      resetPeakRss();
    Stopwatch SetupTimer;
    ServeEngine Engine(Config);
    Out.addSetup(SetupTimer.seconds());

    auto [Logs, Seconds] =
        closedLoop(Streams, [&](size_t C, size_t I, ClientLog &Log) {
          const StreamRequest &SR = Streams[C][I];
          Stopwatch Timer;
          ServeResponse Resp = Engine.handle(SR.Request);
          double Ms = Timer.millis();
          Log.Ms.push_back(Ms);
          Log.LeaseWaitMs.push_back(Ms - Resp.Millis);
          if (Resp.Status == ServeStatus::Ok) {
            (Resp.TraceCacheHit ? Log.RepeatMs : Log.NovelMs).push_back(Ms);
            ++(Resp.TraceCacheHit ? Log.TraceHits : Log.TraceMisses);
          }
          recordResponse(Streams[C], I, Resp.Status,
                         std::move(Resp.NameSubtokens), Log);
        });
    addUntraced(Streams, Logs, Seconds, Out, T);
    if (S < MinSessions)
      Out.series("rss_mb").push_back(peakRssMb());
    const LigerInference::CacheStats &E = Engine.stats().Embeddings;
    T.Embeddings.StmtHits += E.StmtHits;
    T.Embeddings.StmtMisses += E.StmtMisses;
    T.Embeddings.StateHits += E.StateHits;
    T.Embeddings.StateMisses += E.StateMisses;
    if (Run.Trace)
      runTraced(Streams, Logs, Engine, S, *Rec, Out, T);
  }

  Out.value("requests_per_s", T.Items / T.Seconds);
  Out.value("min_samples", double(MinSessions * K * RequestsPerClient));
  for (size_t Kind = 0; Kind < 5; ++Kind)
    Out.value(std::string("traffic.") +
                  requestKindName(static_cast<RequestKind>(Kind)),
              T.Kinds[Kind]);
  Out.value("traffic.distinct_sources", T.DistinctSources);
  Out.value("testgen.trace_cache_lookups",
            static_cast<double>(T.TraceHits + T.TraceMisses));
  Out.value("testgen.trace_cache_hit_ratio", ratio(T.TraceHits, T.TraceMisses));
  const LigerInference::CacheStats &E = T.Embeddings;
  Out.value("models.stmt_cache_lookups", double(E.StmtHits + E.StmtMisses));
  Out.value("models.stmt_cache_hit_ratio", ratio(E.StmtHits, E.StmtMisses));
  Out.value("models.state_cache_lookups", double(E.StateHits + E.StateMisses));
  Out.value("models.state_cache_hit_ratio", ratio(E.StateHits, E.StateMisses));
  if (!Run.Trace)
    return;

  Out.value("models.arena_floats", T.ArenaFloats / double(T.TracedSessions));
  // The vocabulary rebuild inside engine construction, timed alone.
  {
    ExperimentScale Scale = serveScale();
    Stopwatch Timer;
    NameTask Task = buildNameTask(Scale, /*Large=*/false);
    Out.value("dataset.vocab_rebuild_s", Timer.seconds());
  }
  std::string SpanFile = Run.WorkDir + "/spans.tsv";
  Out.Outcomes.check(Rec->write(SpanFile), "cannot write " + SpanFile);
  Out.info("spans", SpanFile);
}
