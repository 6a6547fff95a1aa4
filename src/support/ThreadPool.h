//===-- support/ThreadPool.h - Persistent worker pool -----------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size pool of persistent worker threads for data-
/// parallel loops. run(N, Fn) partitions task indices [0, N) into
/// contiguous chunks, one per worker, and blocks until every index has
/// been processed. Workers persist across run() calls, so per-batch
/// dispatch costs two condition-variable round trips instead of thread
/// creation.
///
/// Static contiguous partitioning (rather than work stealing) keeps
/// the mapping of task index to thread deterministic. The trainer's
/// epoch loop (eval/Training.cpp: runEpochBatched) relies on it: task I
/// always runs on the same worker, so its thread-routed GraphArena, and
/// the thread pool its GradSink buffers return to, are reused
/// reproducibly from one mini-batch to the next. Result determinism
/// itself comes from the caller reducing per-index outputs in index
/// order, so callers with uneven tasks may balance load on top of the
/// pool instead: corpus construction (dataset/Corpus.cpp) runs one task
/// per worker and has each claim method indices from a shared atomic
/// counter. ServeEngine uses neither property: it leases engines per
/// request.
///
/// Fn must not throw (the codebase reports fatal errors via
/// LIGER_CHECK, which aborts).
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_SUPPORT_THREADPOOL_H
#define LIGER_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace liger {

/// Fixed pool of worker threads executing indexed task batches.
class ThreadPool {
public:
  /// Spawns \p NumThreads persistent workers. Zero is allowed and
  /// makes run() execute inline on the caller (useful for serial
  /// fallback without branching at every call site).
  explicit ThreadPool(size_t NumThreads);
  ~ThreadPool();
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  size_t size() const { return Workers.size(); }

  /// Calls Fn(I) for every I in [0, NumTasks), spread over the workers
  /// in contiguous chunks (task I runs on worker I * size() /
  /// NumTasks-ish; exact chunking is stable for fixed NumTasks and
  /// size()). Blocks until all tasks finish. The caller thread does
  /// not execute tasks unless the pool is empty.
  void run(size_t NumTasks, const std::function<void(size_t)> &Fn);

private:
  void workerLoop(size_t WorkerIndex);

  std::vector<std::thread> Workers;

  std::mutex Mutex;
  std::condition_variable WakeWorkers;
  std::condition_variable BatchDone;
  uint64_t Generation = 0;   ///< Bumped per run(); workers wait on it.
  size_t NumTasks = 0;       ///< Tasks in the active batch.
  size_t WorkersLeft = 0;    ///< Workers still running the active batch.
  const std::function<void(size_t)> *Fn = nullptr;
  bool ShuttingDown = false;
};

} // namespace liger

#endif // LIGER_SUPPORT_THREADPOOL_H
