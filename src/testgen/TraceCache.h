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
/// An entry is its LGTR bytes (same magic/version/section discipline
/// as the LGCK checkpoint format, through support/BinaryIO), in memory
/// as well as on disk. A miss serializes the live traces once; that
/// buffer goes to the entry's file, when a directory is configured,
/// and into a thread-safe in-memory map as a shared, immutable string.
/// A hit copies the pointer under the map's mutex and parses the bytes
/// outside it, straight into Values. Each recorded state is stored as
/// the slots that changed since the previous state of its execution;
/// the parse rebuilds whole states whose unchanged slots share the
/// previous state's heap payloads. Every entry carries a checksum
/// over its payload: truncated, bit-flipped, or version-mismatched
/// files degrade to a cache miss, never a crash.
///
/// Struct types are stored by name and statements by id because every
/// corpus sample re-parses its own Program; parsing binds them to that
/// Program and fails softly — any unresolvable name or id turns the hit
/// into a miss. See DESIGN.md §10 for the container layout.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_TESTGEN_TRACECACHE_H
#define LIGER_TESTGEN_TRACECACHE_H

#include "support/Hash.h"
#include "testgen/TraceCollector.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

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

/// Serializes one pipeline invocation into LGTR bytes, straight from
/// the live values: \p Stats' six discovery counters (STAT) and
/// \p Traces (TRCE), with struct types written by name, statements
/// by NodeId, and every state after the initial one as its changed
/// slots (Value::equals against the previous state). The bytes are
/// what the cache holds in memory and writes to disk.
std::string serializeCacheEntry(const TraceCacheKey &Key,
                                const CollectStats &Stats,
                                const MethodTraces &Traces);

/// Parses LGTR bytes into the discovery counters of \p Stats and into
/// \p Out, bound to the re-parsed \p P / \p Fn (struct types looked up
/// by name with a field-count check, statements by id). An unchanged
/// slot of a state is a copy of the previous state's Value, sharing its
/// heap payload; the values equal the serialized ones bit for bit.
/// Verifies magic, version, key, payload length and checksum first.
/// Returns false on any malformed input or unresolvable name or id —
/// callers treat that as a miss — and never throws or over-allocates:
/// every count is checked against the bytes left before anything is
/// reserved. \p Stats and \p Out are unspecified after a false return.
bool parseCacheEntry(const std::string &Bytes, const TraceCacheKey &Key,
                     const Program &P, const FunctionDecl &Fn,
                     CollectStats &Stats, MethodTraces &Out);

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

  /// Looks \p Key up in memory, then on disk, and returns the entry's
  /// LGTR bytes (null on a miss). Every hit on one key returns the same
  /// buffer. A disk entry enters memory only once its header and
  /// payload checksum verify; a malformed one counts as a BadEntry and
  /// misses.
  ///
  /// Safe under concurrency, including across processes sharing one
  /// directory (serve workers, parallel bench sweeps): entry files are
  /// only ever replaced atomically by rename, and the reader sizes the
  /// file from its own open handle, so every read observes one whole
  /// entry snapshot — a replacement race can at worst miss, never
  /// corrupt or misattribute an entry (the key and payload checksum
  /// are re-verified on every read regardless).
  std::shared_ptr<const std::string> lookup(const TraceCacheKey &Key);

  /// Stores \p Bytes (serializeCacheEntry's output for \p Key) in
  /// memory and, when a directory is configured, as an LGTR file
  /// (written atomically; failures are non-fatal — the cache degrades
  /// to memory-only for that entry).
  void store(const TraceCacheKey &Key, std::string Bytes);

  /// File name (without directory) of \p Key's on-disk entry.
  static std::string entryFileName(const TraceCacheKey &Key);
  /// Full path of \p Key's on-disk entry ("" for memory-only caches).
  std::string entryPath(const TraceCacheKey &Key) const;

  /// Entries held in memory.
  size_t entries() const;
  /// Summed size of the LGTR buffers held in memory.
  uint64_t residentBytes() const;

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

  /// Keys are StableHash digests already: any 64 of their bits hash.
  struct KeyHash {
    size_t operator()(const TraceCacheKey &Key) const {
      return static_cast<size_t>(Key.Lo);
    }
  };

  mutable std::mutex Mutex;
  std::unordered_map<TraceCacheKey, std::shared_ptr<const std::string>,
                     KeyHash>
      Memory;
  uint64_t ResidentBytes = 0; ///< Sum of Memory's buffer sizes.

  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Stores{0};
  std::atomic<uint64_t> BadEntries{0};
  std::atomic<uint64_t> Evictions{0};
};

} // namespace liger

#endif // LIGER_TESTGEN_TRACECACHE_H
