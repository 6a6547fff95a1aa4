//===-- tools/liger_serve.cpp - Embedding service front-end ---------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Line-protocol front-end over serve/Serve.h: reads method-source
/// requests from stdin, batches them across the engine's worker pool,
/// and prints predicted method names (and optionally the embeddings).
///
/// Protocol (stdin):
///   METHOD <name> [deadline-ms]   start a request for function <name>
///   <source lines...>             MiniLang source of the request
///   END                           finish the request
///   GO                            dispatch the accumulated batch
/// EOF dispatches any remaining requests and prints a STATS line.
///
/// Responses (stdout), in request order:
///   RESP <idx> <status> <millis> <hit|miss|->[ <subtokens...>]
///   EMB <idx> <f0> <f1> ...       (--emit-embedding, Ok only)
///   STATS requests=N ok=N ... trace-hits=N trace-misses=N
///         trace-cache-entries=N trace-cache-bytes=N stmt-hits=N ...
///         (one line; trace-cache-*: what the trace cache holds in
///         memory, its entries and their LGTR bytes)
///
/// Flags: --workers=N --deadline-ms=N --checkpoint=PATH --large
///        --emit-embedding --smoke, plus every ExperimentScale flag
///        (--hidden=, --trace-cache-dir=, ...; unknown flags are
///        fatal, as in the bench binaries). Numeric values are plain
///        decimal digits that fit; --workers is at most MaxWorkers.
///        A bad flag, or a malformed request (a METHOD header whose
///        deadline is not plain digits that fit, or that has trailing
///        tokens; a missing END), exits with status 2.
///
/// --smoke runs a built-in self-test instead of serving: a burst of
/// valid, repeated (trace-cache hit), malformed, hostile
/// (non-terminating spin), and deadline-starved requests, asserting
/// each terminal status; nonzero exit on any violation. Wired into
/// ctest (serve_smoke) on the SIMD and sanitized builds.
///
//===----------------------------------------------------------------------===//

#include "dataset/Tasks.h"
#include "serve/Serve.h"
#include "support/StringUtils.h"
#include "testgen/TraceCache.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <unistd.h>
#include <sstream>
#include <string>
#include <vector>

using namespace liger;

namespace {

/// Upper bound on --workers: each worker is a thread plus an inference
/// engine with its own embedding store, so a larger count is a typo,
/// not a configuration.
constexpr uint64_t MaxWorkers = 256;

struct ServeToolOptions {
  ServeConfig Config;
  bool Smoke = false;
};

/// The value of a numeric flag: plain decimal digits that fit and are
/// at most \p Max; anything else exits with status 2, as
/// ExperimentScale::fromArgs does for its flags.
uint64_t numericFlag(const std::string &Arg, size_t PrefixLen,
                     uint64_t Max) {
  uint64_t Value = 0;
  if (!parseDecimal(Arg.substr(PrefixLen), Value) || Value > Max) {
    std::fprintf(stderr, "liger_serve: bad numeric value in flag: %s\n",
                 Arg.c_str());
    std::exit(2);
  }
  return Value;
}

/// Splits serve-specific flags from the ExperimentScale flags, which
/// are handed to ExperimentScale::fromArgs (fatal on unknown keys).
ServeToolOptions parseArgs(int Argc, char **Argv) {
  ServeToolOptions Opts;
  Opts.Config.Workers = 1;
  std::vector<char *> Rest;
  Rest.push_back(Argv[0]);
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (startsWith(Arg, "--workers=")) {
      Opts.Config.Workers = static_cast<size_t>(
          numericFlag(Arg, std::strlen("--workers="), MaxWorkers));
      continue;
    }
    if (startsWith(Arg, "--deadline-ms=")) {
      Opts.Config.DefaultDeadlineMillis =
          numericFlag(Arg, std::strlen("--deadline-ms="), UINT64_MAX);
      continue;
    }
    if (Arg.rfind("--checkpoint=", 0) == 0) {
      Opts.Config.CheckpointPath = Arg.substr(std::strlen("--checkpoint="));
      continue;
    }
    if (Arg == "--large") {
      Opts.Config.UseLarge = true;
      continue;
    }
    if (Arg == "--emit-embedding") {
      Opts.Config.ReturnEmbedding = true;
      continue;
    }
    if (Arg == "--smoke") {
      Opts.Smoke = true;
      continue;
    }
    Rest.push_back(Argv[I]);
  }
  Opts.Config.Scale =
      ExperimentScale::fromArgs(static_cast<int>(Rest.size()), Rest.data());
  return Opts;
}

void printResponse(size_t Index, const ServeResponse &Resp,
                   bool EmitEmbedding) {
  const char *Cache = Resp.Status == ServeStatus::ParseError ||
                              Resp.Status == ServeStatus::NoSuchMethod ||
                              Resp.Status == ServeStatus::TooSmall
                          ? "-"
                          : (Resp.TraceCacheHit ? "hit" : "miss");
  std::printf("RESP %zu %s %.3f %s", Index, serveStatusName(Resp.Status),
              Resp.Millis, Cache);
  for (const std::string &Tok : Resp.NameSubtokens)
    std::printf(" %s", Tok.c_str());
  std::printf("\n");
  if (!Resp.Diagnostic.empty())
    std::fprintf(stderr, "note: request %zu: %s\n", Index,
                 Resp.Diagnostic.c_str());
  if (EmitEmbedding && Resp.Status == ServeStatus::Ok) {
    std::printf("EMB %zu", Index);
    for (float V : Resp.Embedding)
      std::printf(" %.9g", V);
    std::printf("\n");
  }
  std::fflush(stdout);
}

void printStats(const ServeStats &S) {
  std::printf("STATS requests=%llu ok=%llu parse-error=%llu "
              "no-such-method=%llu too-small=%llu no-traces=%llu "
              "deadline-exceeded=%llu trace-hits=%llu trace-misses=%llu "
              "trace-cache-entries=%llu trace-cache-bytes=%llu "
              "stmt-hits=%llu stmt-misses=%llu state-hits=%llu "
              "state-misses=%llu\n",
              (unsigned long long)S.Requests, (unsigned long long)S.Ok,
              (unsigned long long)S.ParseErrors,
              (unsigned long long)S.NoSuchMethod,
              (unsigned long long)S.TooSmall,
              (unsigned long long)S.NoTraces,
              (unsigned long long)S.DeadlineExceeded,
              (unsigned long long)S.TraceCacheHits,
              (unsigned long long)S.TraceCacheMisses,
              (unsigned long long)S.TraceCacheEntries,
              (unsigned long long)S.TraceCacheBytes,
              (unsigned long long)S.Embeddings.StmtHits,
              (unsigned long long)S.Embeddings.StmtMisses,
              (unsigned long long)S.Embeddings.StateHits,
              (unsigned long long)S.Embeddings.StateMisses);
  std::fflush(stdout);
}

int serveLoop(ServeEngine &Engine, bool EmitEmbedding) {
  std::vector<ServeRequest> Batch;
  size_t NextIndex = 0;
  std::string Line;
  auto flush = [&] {
    if (Batch.empty())
      return;
    std::vector<ServeResponse> Out = Engine.handleBatch(Batch);
    for (size_t I = 0; I < Out.size(); ++I)
      printResponse(NextIndex + I, Out[I], EmitEmbedding);
    NextIndex += Out.size();
    Batch.clear();
  };
  while (std::getline(std::cin, Line)) {
    if (Line.empty())
      continue;
    if (Line == "GO") {
      flush();
      continue;
    }
    std::istringstream Header(Line);
    std::string Keyword, Deadline, Trailing;
    ServeRequest Req;
    Header >> Keyword >> Req.MethodName >> Deadline >> Trailing;
    if (Keyword != "METHOD") {
      std::fprintf(stderr, "liger_serve: expected METHOD/GO, got: %s\n",
                   Line.c_str());
      return 2;
    }
    if (Req.MethodName.empty()) {
      std::fprintf(stderr, "liger_serve: METHOD needs a name\n");
      return 2;
    }
    if (!Trailing.empty() ||
        (!Deadline.empty() && !parseDecimal(Deadline, Req.DeadlineMillis))) {
      std::fprintf(stderr,
                   "liger_serve: bad METHOD header (expected METHOD <name> "
                   "[deadline-ms], deadline plain digits): %s\n",
                   Line.c_str());
      return 2;
    }
    std::string Source;
    bool Ended = false;
    while (std::getline(std::cin, Line)) {
      if (Line == "END") {
        Ended = true;
        break;
      }
      Source += Line;
      Source += '\n';
    }
    if (!Ended) {
      std::fprintf(stderr, "liger_serve: unterminated request (missing END)\n");
      return 2;
    }
    Req.Source = std::move(Source);
    Batch.push_back(std::move(Req));
  }
  flush();
  printStats(Engine.stats());
  return 0;
}

//===----------------------------------------------------------------------===//
// --smoke self-test
//===----------------------------------------------------------------------===//

int SmokeFailures = 0;

void expect(bool Cond, const char *What) {
  if (Cond) {
    std::printf("smoke: ok   %s\n", What);
  } else {
    std::printf("smoke: FAIL %s\n", What);
    ++SmokeFailures;
  }
}

/// A method whose every execution runs out of fuel: the NonTermination
/// defect shape of the corpus generator. Its loop repeats its state, so
/// the interpreter skips to the end of the budget.
std::string hostileSpinSource(const std::string &Name) {
  std::string Source = "int FN(int x) {\n"
                       "  int spin3 = 0;\n"
                       "  while (spin3 == 0) { spin3 = spin3 * 1; }\n"
                       "  return spin3;\n"
                       "}\n";
  return replaceIdentifier(Source, "FN", Name);
}

/// A method of chained symbolic-index writes: the symbolic executor
/// fans each write out over every in-bounds index, so trace collection
/// re-executes it until the executor's run budget (SymxOptions::MaxRuns)
/// is spent, about a hundred milliseconds in an optimized build.
std::string symbolicBlowupSource(const std::string &Name) {
  return replaceIdentifier(
      "int FN(int a1, int a2, int a3, int a4, int a5, int a6) {\n"
      "  int[] a = new int[8];\n"
      "  a[a1] = 1;\n"
      "  a[a2] = 2;\n"
      "  a[a3] = 3;\n"
      "  a[a4] = 4;\n"
      "  a[a5] = 5;\n"
      "  a[a6] = 6;\n"
      "  return a[0];\n"
      "}\n",
      "FN", Name);
}

int runSmoke(ServeToolOptions Opts) {
  // Tiny deterministic scale: the corpus rebuild for vocabularies is
  // the expensive part and the smoke test only needs a working model.
  ExperimentScale &Scale = Opts.Config.Scale;
  Scale.MethodsMed = 16;
  Scale.Hidden = 16;
  Scale.EmbedDim = 16;
  Scale.TargetPaths = 4;
  Scale.ExecutionsPerPath = 3;
  if (!Scale.Cache) {
    Scale.CacheMode = TraceCacheMode::Full;
    Scale.Cache =
        std::make_shared<TraceCache>(Scale.CacheMode, Scale.TraceCacheDir);
  }
  if (Opts.Config.Workers < 2)
    Opts.Config.Workers = 2;

  std::printf("smoke: building engine (workers=%zu)...\n",
              Opts.Config.Workers);
  ServeEngine Engine(Opts.Config);

  const TaskSpec &Task = taskLibrary().front();
  std::string ValidSource =
      replaceIdentifier(Task.Variants.front().Source, "FN", "smokeTarget");

  std::vector<ServeRequest> Burst;
  Burst.push_back({"smokeTarget", ValidSource, 0});
  Burst.push_back({"smokeTarget", ValidSource, 0}); // trace-cache hit
  Burst.push_back({"smokeTarget", "int broken(", 0});
  Burst.push_back({"missingName", ValidSource, 0});
  Burst.push_back({"spinForever", hostileSpinSource("spinForever"), 0});
  // The deadline check only matters on work that is actually slow, so
  // this request must be a trace-cache *miss* even when --trace-cache-dir
  // points at a directory populated by a previous smoke run (verify.sh
  // shares one cache dir across its smoke steps): a per-process nonce
  // in the method name keeps the key fresh. Its symbolic phase then
  // takes about a hundred times the 1ms wall-clock deadline, so the
  // deadline fires however fast the rest of the request is.
  std::string Starved =
      "starvedChain" +
      std::to_string(
          static_cast<unsigned long long>(::getpid()) * 1000003ull ^
          static_cast<unsigned long long>(
              std::chrono::steady_clock::now().time_since_epoch().count()));
  Burst.push_back({Starved, symbolicBlowupSource(Starved), 1});

  std::vector<ServeResponse> Out = Engine.handleBatch(Burst);
  expect(Out.size() == Burst.size(), "batch answered in full");
  expect(Out[0].Status == ServeStatus::Ok, "valid method is Ok");
  expect(!Out[0].NameSubtokens.empty(), "valid method predicts a name");
  expect(Out[1].Status == ServeStatus::Ok, "repeated method is Ok");
  expect(Out[0].TraceCacheHit || Out[1].TraceCacheHit,
         "repeated method hits the shared trace cache");
  expect(Out[1].NameSubtokens == Out[0].NameSubtokens,
         "repeat prediction is identical");
  expect(Out[2].Status == ServeStatus::ParseError,
         "malformed source is parse-error");
  expect(Out[3].Status == ServeStatus::NoSuchMethod,
         "wrong name is no-such-method");
  expect(Out[4].Status == ServeStatus::NoTraces ||
             Out[4].Status == ServeStatus::DeadlineExceeded,
         "hostile spin method is terminal non-Ok");
  expect(Out[5].Status == ServeStatus::DeadlineExceeded,
         "1ms-deadline request is deadline-exceeded");

  // A second burst after the failures: the engine must still serve.
  std::vector<ServeResponse> Again =
      Engine.handleBatch({{"smokeTarget", ValidSource, 0}});
  expect(Again.size() == 1 && Again[0].Status == ServeStatus::Ok,
         "engine serves after terminal statuses");
  expect(Again[0].TraceCacheHit, "second burst hits the trace cache");
  expect(Again[0].NameSubtokens == Out[0].NameSubtokens,
         "second burst prediction is identical");

  ServeStats Stats = Engine.stats();
  expect(Stats.Requests == Burst.size() + 1, "stats count every request");
  expect(Stats.DeadlineExceeded >= 1, "stats count deadline hits");
  expect(Stats.ParseErrors == 1, "stats count parse errors");
  expect(Stats.TraceCacheHits >= 2, "stats count trace-cache hits");
  printStats(Stats);

  if (SmokeFailures) {
    std::printf("smoke: %d FAILURES\n", SmokeFailures);
    return 1;
  }
  std::printf("smoke: all checks passed\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  ServeToolOptions Opts = parseArgs(Argc, Argv);
  if (Opts.Smoke)
    return runSmoke(std::move(Opts));

  std::fprintf(stderr,
               "liger_serve: building engine (workers=%zu, deadline=%llums, "
               "checkpoint=%s)...\n",
               Opts.Config.Workers,
               (unsigned long long)Opts.Config.DefaultDeadlineMillis,
               Opts.Config.CheckpointPath.empty()
                   ? "<seed params>"
                   : Opts.Config.CheckpointPath.c_str());
  ServeEngine Engine(Opts.Config);
  std::fprintf(stderr, "liger_serve: ready (param version %s)\n",
               Engine.weightImage().version().hex().c_str());
  return serveLoop(Engine, Opts.Config.ReturnEmbedding);
}
