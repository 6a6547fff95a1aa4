//===-- nn/GraphArena.h - Arena allocation for autodiff graphs --*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bump allocation for define-by-run autodiff graphs. One training or
/// inference step builds thousands of Nodes that all die together, so
/// nodes are placement-constructed into slabs and reclaimed wholesale
/// by reset(); parent-pointer and per-op payload arrays come from a
/// byte arena reclaimed the same way. Slabs and chunks are retained
/// across resets, so a warmed-up arena constructs graphs without
/// touching the system allocator at all (tensor buffers come from the
/// thread-local pool in Tensor.cpp).
///
/// Allocation is routed through a per-thread "current" arena: an
/// explicit GraphArena activated via GraphArena::Scope, or a lazily
/// created per-thread default arena. Graph nodes live until their
/// arena is reset or destroyed — code that builds many graphs in a
/// loop (an epoch, an evaluation sweep) should scope an arena and
/// reset it at iteration boundaries.
///
/// The arena is also backward's tape: nodes are numbered in creation
/// order (node(I)), which is a topological order of every graph built
/// in it, and backward() runs a graph by walking the current arena
/// newest first. A graph must therefore be differentiated while the
/// arena it was built in is current and before that arena is reset
/// (the one-arena contract in nn/Graph.h).
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_NN_GRAPHARENA_H
#define LIGER_NN_GRAPHARENA_H

#include <cstddef>
#include <memory>
#include <vector>

namespace liger {

struct Node;

/// Owns the memory of autodiff graph nodes built while it is current.
class GraphArena {
public:
  GraphArena();
  ~GraphArena();
  GraphArena(const GraphArena &) = delete;
  GraphArena &operator=(const GraphArena &) = delete;

  /// Bump-allocates one default-constructed Node.
  Node *newNode();

  /// Bump-allocates \p Bytes with the given alignment. The memory is
  /// treated as trivially destructible and reclaimed wholesale by
  /// reset().
  void *allocBytes(size_t Bytes, size_t Align);

  /// Bump-allocates an uninitialized array of \p Count trivially
  /// destructible Ts.
  template <typename T> T *allocArray(size_t Count) {
    return static_cast<T *>(allocBytes(Count * sizeof(T), alignof(T)));
  }

  /// Destroys every node allocated since the last reset (returning
  /// their tensor buffers to the thread-local pool) and rewinds the
  /// byte arena. Slabs and chunks are kept for reuse.
  void reset();

  /// Nodes allocated since the last reset.
  size_t numLive() const { return Live; }
  /// Live node \p I in creation order: 0 is the oldest node since the
  /// last reset, numLive() - 1 the newest. backward() walks these
  /// newest first (the reverse of creation order is a topological order
  /// of every graph built in the arena).
  Node *node(size_t I) const;
  /// High-water mark of numLive() over the arena's lifetime.
  size_t peakLive() const { return Peak; }

  /// The arena node allocations on this thread go to: the innermost
  /// active Scope's arena, or a lazily created per-thread default.
  static GraphArena &current();

  /// RAII: makes \p Arena current on this thread for the Scope's
  /// lifetime; restores the previous routing on destruction.
  class Scope {
  public:
    explicit Scope(GraphArena &Arena);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    GraphArena *Prev;
  };

private:
  struct NodeSlab;
  struct ByteChunk;

  std::vector<std::unique_ptr<NodeSlab>> Slabs;
  size_t SlabIndex = 0; ///< Slab currently being filled.
  size_t SlabUsed = 0;  ///< Nodes used in that slab.
  std::vector<std::unique_ptr<ByteChunk>> Chunks;
  size_t ChunkIndex = 0;
  size_t ChunkUsed = 0;
  size_t Live = 0;
  size_t Peak = 0;
};

} // namespace liger

#endif // LIGER_NN_GRAPHARENA_H
