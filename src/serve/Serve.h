//===-- serve/Serve.h - Embedding/naming service core -----------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer behind the liger_serve tool and the
/// serve_throughput bench: a ServeEngine owns a frozen WeightImage
/// (DESIGN.md §13), the vocabularies of a deterministically rebuilt
/// NameTask, a shared TraceCache, and a pool of per-worker
/// forward-only LigerInference engines. A request carries raw method
/// source; handling runs the exact corpus pipeline — parse ->
/// typecheck -> statement-count filter -> cached trace collection ->
/// encode -> greedy decode — and returns predicted name sub-tokens
/// (plus, optionally, the program embedding itself).
///
/// Batches fan out over a support/ThreadPool; engines are borrowed
/// from a free list because the pool hands tasks an index, not a
/// worker identity. Each request runs under a wall-clock deadline
/// layered on top of the interpreter's fuel and memory budgets: the
/// budgets bound every individual execution, the deadline bounds the
/// whole request and is checked at pipeline phase boundaries only, so
/// a request overshoots it by whatever the phase then running takes
/// (seconds for some symbolic phases; DESIGN.md §13.3). Deadline hits
/// are a distinct terminal status, visible per-response and counted
/// in ServeStats.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_SERVE_SERVE_H
#define LIGER_SERVE_SERVE_H

#include "eval/Experiments.h"
#include "models/Inference.h"
#include "support/ThreadPool.h"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace liger {

/// Terminal status of one serve request. Every non-Ok status maps to
/// one filter of the corpus pipeline except DeadlineExceeded, which
/// is the serving layer's own wall-clock cutoff.
enum class ServeStatus {
  Ok,
  ParseError,       ///< Does not parse / typecheck.
  NoSuchMethod,     ///< Parsed, but no function of that name.
  TooSmall,         ///< Under the 3-statement corpus threshold.
  NoTraces,         ///< All runs timed out / blew memory / no paths.
  DeadlineExceeded, ///< Wall-clock deadline hit at a phase boundary.
};

const char *serveStatusName(ServeStatus Status);

/// The model configuration serving derives from a scale — the
/// full-model ablation of eval's ligerConfig(). Exposed so benches and
/// tests construct autodiff models that bind the same tensors the
/// serving engine binds.
LigerConfig serveLigerConfig(const ExperimentScale &Scale);

struct ServeRequest {
  /// Name of the function to embed within \p Source.
  std::string MethodName;
  /// Full MiniLang source text (may define helper functions too).
  std::string Source;
  /// Per-request wall-clock deadline; 0 uses the engine default.
  uint64_t DeadlineMillis = 0;
};

struct ServeResponse {
  ServeStatus Status = ServeStatus::ParseError;
  /// Predicted method-name sub-tokens (Ok only).
  std::vector<std::string> NameSubtokens;
  /// Program embedding (Ok and ServeConfig::ReturnEmbedding only).
  std::vector<float> Embedding;
  /// Wall-clock milliseconds spent handling this request.
  double Millis = 0;
  /// True when trace collection was served from the shared cache.
  bool TraceCacheHit = false;
  /// Human-readable detail for non-Ok statuses.
  std::string Diagnostic;
};

/// Aggregated over every request an engine has handled.
struct ServeStats {
  uint64_t Requests = 0;
  uint64_t Ok = 0;
  uint64_t ParseErrors = 0;
  uint64_t NoSuchMethod = 0;
  uint64_t TooSmall = 0;
  uint64_t NoTraces = 0;
  uint64_t DeadlineExceeded = 0;
  uint64_t TraceCacheHits = 0;
  uint64_t TraceCacheMisses = 0;
  /// What the shared trace cache holds in memory when stats() is read:
  /// its entries and their summed LGTR bytes (0 without a cache).
  uint64_t TraceCacheEntries = 0;
  uint64_t TraceCacheBytes = 0;
  /// The worker engines' embedding-store lookups, added per request.
  LigerInference::CacheStats Embeddings;
};

struct ServeConfig {
  /// Scale knobs; vocabularies are rebuilt deterministically from it,
  /// so it must match the scale the checkpoint was trained at.
  /// Scale.Cache (when set) becomes the shared trace cache.
  ExperimentScale Scale;
  /// Use the "large" corpus substitute's vocabularies.
  bool UseLarge = false;
  /// Worker threads (also the number of pooled inference engines).
  /// 0 serves inline on the caller thread with one engine.
  size_t Workers = 1;
  /// Default per-request deadline; 0 disables the wall-clock cutoff.
  uint64_t DefaultDeadlineMillis = 2000;
  /// Optional LGCK checkpoint to serve; empty serves the seed-derived
  /// initial parameters (still deterministic — useful for benching).
  std::string CheckpointPath;
  /// Copy the program embedding into ServeResponse::Embedding.
  bool ReturnEmbedding = false;
};

/// The serving engine. Construction is the expensive part (corpus
/// rebuild for vocabularies, checkpoint load, weight-image bake);
/// handling is allocation-light. Thread-safe: handle() may be called
/// concurrently, handleBatch() fans out internally.
class ServeEngine {
public:
  explicit ServeEngine(const ServeConfig &Config);

  ServeResponse handle(const ServeRequest &Request);
  std::vector<ServeResponse> handleBatch(
      const std::vector<ServeRequest> &Requests);

  ServeStats stats() const;
  const WeightImage &weightImage() const { return Image; }
  const Vocabulary &jointVocab() const { return Joint; }
  const Vocabulary &targetVocab() const { return Target; }
  const LigerConfig &modelConfig() const { return ModelConfig; }

private:
  struct EngineLease;
  ServeResponse handleOn(const ServeRequest &Request, LigerInference &Engine);

  ServeConfig Config;
  LigerConfig ModelConfig;
  Vocabulary Joint;  ///< Copied out of the rebuilt NameTask.
  Vocabulary Target; ///< Method-name sub-token vocabulary.
  WeightImage Image;
  std::shared_ptr<TraceCache> Cache; ///< Shared; may be null.
  ThreadPool Pool;

  // Free list of per-worker inference engines (ThreadPool::run hands
  // out task indices, not worker identities, so engines are leased).
  std::mutex EngineMutex;
  std::condition_variable EngineAvailable;
  std::vector<std::unique_ptr<LigerInference>> Engines;
  std::vector<size_t> FreeEngines;

  mutable std::mutex StatsMutex;
  ServeStats Stats;
};

} // namespace liger

#endif // LIGER_SERVE_SERVE_H
