//===-- nn/Tensor.cpp - Thread-local tensor buffer pool --------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The freelist behind Tensor storage. Each thread owns a pool keyed by
// exact element count; training and inference cycle through a small,
// fixed set of shapes (hidden sizes, vocabulary widths), so exact-size
// keying gives a ~100% hit rate after the first batch.
//
// Buffers may be released on a different thread than the one that
// acquired them (the epoch loop reduces worker-produced gradient
// tensors on the main thread); a released buffer simply joins the
// releasing thread's freelist. A per-thread cap bounds drift from such
// migration, and a destroyed-pool flag keeps releases that happen
// during thread teardown (thread_local destruction order is
// unspecified across translation units) safe by falling back to plain
// delete[].
//
//===----------------------------------------------------------------------===//

#include "nn/Tensor.h"

#include <new>
#include <unordered_map>

using namespace liger;

namespace {

/// Per-thread cap on cached bytes; beyond it, released buffers are
/// freed eagerly. Bounds freelist growth when buffers migrate between
/// threads (worker-allocated gradients released by the main thread).
constexpr size_t PoolCapBytes = size_t(128) << 20;

/// Every pool buffer starts on a cache-line boundary, so an 8-lane
/// vector load of a fresh tensor never straddles two lines and the
/// compiler/CPU see consistently aligned hot loops.
constexpr std::align_val_t BufferAlign{64};

float *allocAligned(size_t N) {
  return static_cast<float *>(::operator new(N * sizeof(float), BufferAlign));
}

void freeAligned(float *Data) { ::operator delete(Data, BufferAlign); }

struct BufferPool {
  std::unordered_map<size_t, std::vector<float *>> Free;
  size_t CachedBytes = 0;
  static thread_local bool Destroyed;

  ~BufferPool() {
    trim();
    Destroyed = true;
  }

  void trim() {
    for (auto &Entry : Free)
      for (float *Buffer : Entry.second)
        freeAligned(Buffer);
    Free.clear();
    CachedBytes = 0;
  }
};

thread_local bool BufferPool::Destroyed = false;

BufferPool &pool() {
  thread_local BufferPool Pool;
  return Pool;
}

} // namespace

float *liger::detail::bufferAcquire(size_t N) {
  if (N == 0)
    return nullptr;
  if (!BufferPool::Destroyed) {
    BufferPool &P = pool();
    auto It = P.Free.find(N);
    if (It != P.Free.end() && !It->second.empty()) {
      float *Buffer = It->second.back();
      It->second.pop_back();
      P.CachedBytes -= N * sizeof(float);
      return Buffer;
    }
  }
  return allocAligned(N);
}

void liger::detail::bufferRelease(float *Data, size_t N) {
  if (!Data)
    return;
  if (BufferPool::Destroyed) {
    freeAligned(Data);
    return;
  }
  BufferPool &P = pool();
  if (P.CachedBytes + N * sizeof(float) > PoolCapBytes) {
    freeAligned(Data);
    return;
  }
  P.Free[N].push_back(Data);
  P.CachedBytes += N * sizeof(float);
}
