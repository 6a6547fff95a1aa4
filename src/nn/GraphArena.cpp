//===-- nn/GraphArena.cpp - Arena allocation for autodiff graphs -----------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "nn/GraphArena.h"

#include "nn/Graph.h"

#include <new>

using namespace liger;

namespace {

constexpr size_t NodesPerSlab = 256;
constexpr size_t ByteChunkBytes = size_t(1) << 16;

/// The thread's explicitly scoped arena, if any (see GraphArena::Scope).
thread_local GraphArena *CurrentArena = nullptr;

} // namespace

/// Uninitialized storage for NodesPerSlab nodes.
struct GraphArena::NodeSlab {
  alignas(Node) std::byte Mem[NodesPerSlab * sizeof(Node)];

  Node *at(size_t I) {
    return std::launder(reinterpret_cast<Node *>(Mem + I * sizeof(Node)));
  }
};

/// One block of the POD byte arena. Oversized requests get a dedicated
/// chunk of exactly the requested size. Backing memory is cache-line
/// aligned so a 64-byte-aligned allocBytes request (fused-cell
/// activation payloads) is satisfiable at any offset.
struct GraphArena::ByteChunk {
  explicit ByteChunk(size_t Bytes)
      : Mem(static_cast<std::byte *>(
            ::operator new(Bytes, std::align_val_t(64)))),
        Capacity(Bytes) {}

  ~ByteChunk() { ::operator delete(Mem, std::align_val_t(64)); }
  ByteChunk(const ByteChunk &) = delete;
  ByteChunk &operator=(const ByteChunk &) = delete;

  std::byte *Mem;
  size_t Capacity;
};

GraphArena::GraphArena() = default;

GraphArena::~GraphArena() { reset(); }

Node *GraphArena::newNode() {
  if (SlabUsed == NodesPerSlab) {
    ++SlabIndex;
    SlabUsed = 0;
  }
  if (SlabIndex == Slabs.size())
    Slabs.push_back(std::make_unique<NodeSlab>());
  Node *N = new (Slabs[SlabIndex]->Mem + SlabUsed * sizeof(Node)) Node();
  ++SlabUsed;
  ++Live;
  if (Live > Peak)
    Peak = Live;
  return N;
}

Node *GraphArena::node(size_t I) const {
  return Slabs[I / NodesPerSlab]->at(I % NodesPerSlab);
}

void *GraphArena::allocBytes(size_t Bytes, size_t Align) {
  if (Bytes == 0)
    return nullptr;
  if (Bytes > ByteChunkBytes) {
    // Dedicated chunk; insert behind the cursor so bump allocation can
    // continue in the current chunk.
    auto Dedicated = std::make_unique<ByteChunk>(Bytes);
    void *P = Dedicated->Mem;
    Chunks.insert(Chunks.begin() + static_cast<long>(ChunkIndex),
                  std::move(Dedicated));
    ++ChunkIndex;
    return P;
  }
  while (true) {
    if (ChunkIndex == Chunks.size()) {
      Chunks.push_back(std::make_unique<ByteChunk>(ByteChunkBytes));
      ChunkUsed = 0;
    }
    ByteChunk &C = *Chunks[ChunkIndex];
    size_t Offset = (ChunkUsed + Align - 1) & ~(Align - 1);
    if (Offset + Bytes <= C.Capacity) {
      ChunkUsed = Offset + Bytes;
      return C.Mem + Offset;
    }
    ++ChunkIndex;
    ChunkUsed = 0;
  }
}

void GraphArena::reset() {
  for (size_t S = 0; S <= SlabIndex && S < Slabs.size(); ++S) {
    size_t Used = S == SlabIndex ? SlabUsed : NodesPerSlab;
    for (size_t I = 0; I < Used; ++I)
      Slabs[S]->at(I)->~Node();
  }
  SlabIndex = 0;
  SlabUsed = 0;
  ChunkIndex = 0;
  ChunkUsed = 0;
  Live = 0;
}

GraphArena &GraphArena::current() {
  if (CurrentArena)
    return *CurrentArena;
  thread_local GraphArena Default;
  return Default;
}

GraphArena::Scope::Scope(GraphArena &Arena) : Prev(CurrentArena) {
  CurrentArena = &Arena;
}

GraphArena::Scope::~Scope() { CurrentArena = Prev; }
