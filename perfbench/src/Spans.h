//===-- perfbench/src/Spans.h - In-memory span recorder ---------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans for the benchmark's traced runs. The benchmark opens a span
/// around each of its own calls into a module's public functions; the
/// program itself is not instrumented. Every thread appends finished
/// spans to its own buffer (no locking on the recording path), and the
/// buffers are merged once, after the traced phase, and written out.
///
/// A span names its parent explicitly when the parent runs on another
/// thread (a training shard on a pool worker under the step on the
/// calling thread, a client request under the run); otherwise it nests
/// under the innermost open span of its own thread.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// One finished span.
struct Span {
  const char *Name = "";  ///< "<layer>.<call>"; a string literal.
  uint64_t Id = 0;        ///< Unique within the recorder, > 0.
  uint64_t Parent = 0;    ///< 0 for a root span.
  uint64_t Request = 0;   ///< Request, step or pass the span serves.
  uint32_t Thread = 0;    ///< Recorder-local thread index.
  int64_t StartNs = 0;    ///< Since the recorder was created.
  int64_t EndNs = 0;
};

class SpanRecorder {
public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder &) = delete;
  SpanRecorder &operator=(const SpanRecorder &) = delete;

  int64_t nowNs() const;
  uint64_t newId() { return NextId.fetch_add(1) + 1; }
  /// Appends \p S to the calling thread's buffer.
  void record(const Span &S);

  /// Every thread's spans ordered by (start, id). Call only while no
  /// thread records (after the traced phase has been joined).
  std::vector<Span> merged() const;
  /// Writes merged() as tab-separated lines
  /// "id parent thread request start_ns end_ns name"; false on error.
  bool write(const std::string &Path) const;

private:
  struct ThreadBuffer {
    std::thread::id Owner;
    uint32_t Index = 0;
    std::vector<Span> Spans;
  };
  ThreadBuffer &buffer();

  const uint64_t Serial; ///< Tells recorders apart in the thread cache.
  const std::chrono::steady_clock::time_point Origin;
  std::atomic<uint64_t> NextId{0};
  mutable std::mutex Mutex; ///< Guards Buffers (registration only).
  std::vector<std::unique_ptr<ThreadBuffer>> Buffers;
};

/// Opens a span at construction and records it at destruction. A null
/// recorder makes it a no-op, so one code path serves traced and
/// untraced phases.
class ScopedSpan {
public:
  static constexpr uint64_t InheritParent = ~uint64_t(0);

  ScopedSpan(SpanRecorder *Recorder, const char *Name, uint64_t Request = 0,
             uint64_t Parent = InheritParent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Id for children on other threads (0 when not recording).
  uint64_t id() const { return S.Id; }
  /// Renames the span once its outcome is known (e.g. cache hit/miss).
  void rename(const char *Name) { S.Name = Name; }

private:
  SpanRecorder *Recorder;
  Span S;
  ScopedSpan *Outer = nullptr;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
