//===-- testgen/TraceCache.h - Content-addressed trace cache ----*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed cache for the trace-construction pipeline. The
/// key is a stable 128-bit hash over (instantiated method source,
/// method name, every TestGenOptions field that influences the
/// pipeline, seed); the value is everything needed to reproduce
/// collectTraces' output without re-running discovery or the
/// interpreter:
///
///  - the discovery outcome counters (so corpus filter decisions and
///    funnel statistics are identical between cold and warm runs);
///  - the recorded MethodTraces themselves (statements are stored by
///    NodeId and re-bound to the re-parsed AST).
///
/// Entries live in a thread-safe in-memory map and, when a directory
/// is configured, in one LGTR-versioned file per entry (same
/// magic/version/section discipline as the LGCK checkpoint format,
/// written atomically through support/BinaryIO). Every entry carries a
/// checksum over its payload: truncated, bit-flipped, or
/// version-mismatched files degrade to a cache miss, never a crash.
///
/// Values inside entries are stored in a program-independent portable
/// form (struct types by name, statements by id) because every corpus
/// sample re-parses its own Program; materialization re-binds them and
/// fails softly — any unresolvable name or id turns the hit into a
/// miss. See DESIGN.md §10 for the container layout.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_TESTGEN_TRACECACHE_H
#define LIGER_TESTGEN_TRACECACHE_H

#include "support/Hash.h"
#include "testgen/TraceCollector.h"

#include <atomic>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace liger {

/// Whether the pipeline may reuse cached traces.
enum class TraceCacheMode {
  Off,  ///< Cache disabled; every method runs the full pipeline.
  Full, ///< Reuse the recorded traces; skip the interpreter entirely.
};

/// Parses "off" / "full"; returns false on anything else.
bool parseTraceCacheMode(const std::string &Text, TraceCacheMode &Out);

/// The content-addressed key of one pipeline invocation.
using TraceCacheKey = Digest128;

/// Computes the cache key for collecting traces of method \p MethodName
/// inside \p SourceText under \p Options. Every option that can change
/// the pipeline's output is hashed (input domains, fuel, path/execution
/// budgets, seed, dataset scope); a format-version salt invalidates old
/// keys when the hashed field set changes.
TraceCacheKey traceCacheKey(const std::string &SourceText,
                            const std::string &MethodName,
                            const TestGenOptions &Options);

/// A runtime Value lifted into program-independent form: struct types
/// are referenced by name and re-bound at materialization time.
struct PortableValue {
  ValueKind Kind = ValueKind::Undef;
  int64_t Int = 0;
  bool Bool = false;
  std::string Str;        ///< String payload or struct type name.
  std::vector<PortableValue> Elements; ///< Array/struct elements.
};

/// One symbolic-trace step, with the statement referenced by NodeId.
struct PortableStep {
  uint32_t StmtId = 0;
  StepKind Kind = StepKind::Plain;
};

/// Def. 2.3 in portable form.
struct PortableStateTrace {
  std::vector<PortableValue> Initial;
  std::vector<std::vector<PortableValue>> States;
};

/// Def. 5.1 in portable form.
struct PortableBlendedTrace {
  std::vector<PortableStep> Steps;
  std::vector<PortableStateTrace> Concrete;
  std::vector<std::vector<PortableValue>> Inputs;
};

/// A whole MethodTraces in portable form.
struct PortableMethodTraces {
  std::vector<std::string> VarNames;
  std::vector<PortableBlendedTrace> Paths;
};

/// One cache entry: discovery counters and the recorded traces.
struct CachedTraceEntry {
  /// CollectStats discovery counters of the original cold run.
  uint32_t Attempts = 0;
  uint32_t OkRuns = 0;
  uint32_t Faults = 0;
  uint32_t Timeouts = 0;
  uint32_t MemoryExceeded = 0;
  uint32_t SymbolicSeeds = 0;
  PortableMethodTraces Traces;
};

/// Lifts a runtime value into portable form.
PortableValue toPortable(const Value &V);

/// Re-binds a portable value against \p P (struct declarations looked
/// up by name). Returns false when a referenced struct is missing.
bool fromPortable(const PortableValue &PV, const Program &P, Value &Out);

/// Lifts collected traces into portable form (statements by id).
PortableMethodTraces toPortable(const MethodTraces &Traces);

/// Re-binds portable traces against the re-parsed \p P / \p Fn.
/// Returns false when any statement id or struct name fails to
/// resolve — callers treat that as a cache miss.
bool materializeTraces(const PortableMethodTraces &PT, const Program &P,
                       const FunctionDecl &Fn, MethodTraces &Out);

/// Thread-safe content-addressed trace cache: an in-memory map plus an
/// optional on-disk LGTR store. Shared by every corpus worker thread.
class TraceCache {
public:
  /// \p Dir may be empty for a memory-only cache. The directory (and
  /// missing parents) is created on first store. \p MaxBytes bounds
  /// the on-disk footprint: when the directory's .lgtr entries exceed
  /// it after a store, the least-recently-used entries (oldest mtime,
  /// file name as the deterministic tiebreaker) are unlinked until the
  /// total fits again. The entry just stored is never evicted, so a
  /// bound smaller than one entry still keeps the newest. 0 =
  /// unbounded. The in-memory map is never evicted — the bound exists
  /// to keep long-lived shared cache directories from growing without
  /// limit across bench sweeps.
  TraceCache(TraceCacheMode Mode, std::string Dir, uint64_t MaxBytes = 0);

  TraceCacheMode mode() const { return Mode; }
  const std::string &dir() const { return Dir; }
  uint64_t maxBytes() const { return MaxBytes; }

  /// Looks \p Key up in memory, then on disk. Disk hits are promoted
  /// into memory. Malformed disk entries count as BadEntries and miss.
  ///
  /// Safe under concurrency, including across processes sharing one
  /// directory (serve workers, parallel bench sweeps): entry files are
  /// only ever replaced atomically by rename, and the reader sizes the
  /// file from its own open handle, so every read observes one whole
  /// entry snapshot — a replacement race can at worst miss, never
  /// corrupt or misattribute an entry (the key and payload checksum
  /// are re-verified on every disk read regardless).
  bool lookup(const TraceCacheKey &Key, CachedTraceEntry &Out);

  /// Stores \p Entry in memory and, when a directory is configured, as
  /// an LGTR file (written atomically; failures are non-fatal — the
  /// cache degrades to memory-only for that entry).
  void store(const TraceCacheKey &Key, CachedTraceEntry Entry);

  /// File name (without directory) of \p Key's on-disk entry.
  static std::string entryFileName(const TraceCacheKey &Key);
  /// Full path of \p Key's on-disk entry ("" for memory-only caches).
  std::string entryPath(const TraceCacheKey &Key) const;

  // Global counters (across all threads, monotone).
  uint64_t hits() const { return Hits.load(); }
  uint64_t misses() const { return Misses.load(); }
  uint64_t stores() const { return Stores.load(); }
  /// Disk entries rejected as corrupt/truncated/version-mismatched.
  uint64_t badEntries() const { return BadEntries.load(); }
  /// On-disk entries unlinked by the MaxBytes LRU bound.
  uint64_t evictions() const { return Evictions.load(); }

private:
  /// Unlinks LRU .lgtr entries until the directory fits MaxBytes,
  /// never touching \p KeepFile (the entry just stored). Called with
  /// Mutex held so concurrent stores scan a consistent directory.
  void evictOverBudget(const std::string &KeepFile);

  TraceCacheMode Mode;
  std::string Dir;
  uint64_t MaxBytes = 0;

  std::mutex Mutex;
  std::unordered_map<std::string, CachedTraceEntry> Memory;

  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Stores{0};
  std::atomic<uint64_t> BadEntries{0};
  std::atomic<uint64_t> Evictions{0};
};

/// Serializes \p Entry into LGTR container bytes (exposed for tests).
std::string serializeCacheEntry(const TraceCacheKey &Key,
                                const CachedTraceEntry &Entry);

/// Parses LGTR container bytes. Returns false (never throws, never
/// over-allocates) on any malformed input or key mismatch.
bool deserializeCacheEntry(const std::string &Bytes,
                           const TraceCacheKey &Key, CachedTraceEntry &Out);

} // namespace liger

#endif // LIGER_TESTGEN_TRACECACHE_H
