//===-- models/StateTrie.h - Token-id keys of state embeddings --*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The keys under which LIGER reuses state embeddings (DESIGN.md §13.2,
/// §14.2). f1 reads an object value only through its flattened leaf
/// token ids, and f2 reads a state only through its sequence of variable
/// components, so sharing on two levels is exact:
///  - object values are interned by their leaf-id sequence, and equal
///    sequences share one f1 final state;
///  - states are nodes of an f2 prefix trie. An edge is keyed by
///    (parent node, component), where a component is a primitive's token
///    id or an object's entry, kind-tagged so int 5 and the one-element
///    array [5] never share an edge. A node stands for f2's state after
///    the components on its path, so a state costs only the f2 steps
///    below its deepest existing prefix.
///
/// The serving store (LigerInference) keeps one trie for the life of a
/// weight image; the lockstep training encoder (LigerEncoder::encodeBatch)
/// builds one per call, since the parameters change every step. Both keep
/// their payloads in vectors indexed by the dense entry and node numbers
/// handed out here.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_MODELS_STATETRIE_H
#define LIGER_MODELS_STATETRIE_H

#include "interp/Value.h"
#include "trace/Vocabulary.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace liger {

/// Most leaf tokens of an object value that f1 reads: attr(v) is cut to
/// its first MaxFlattenedValues tokens.
constexpr size_t MaxFlattenedValues = 12;

/// Token ids of runtime values read straight from Values: id() equals
/// Vocab.lookup(valueToken(V)) for a primitive, and objectIds() the ids
/// of valueTokens(V) after truncation, without building token strings,
/// token vectors or Value::flatten copies. Only strings of at most 8
/// bytes reach Vocabulary::lookup, with a key that fits std::string's
/// inline buffer; every other primitive reads a table built once.
class ValueTokenIds {
public:
  /// \p Vocab must outlive the table.
  explicit ValueTokenIds(const Vocabulary &Vocab);

  /// Id of a primitive value (⊥, bool, int or string).
  int id(const Value &Primitive) const;

  /// Replaces \p Out by the ids of an array/struct value's leaves in
  /// order, cut at MaxFlattenedValues, or by <empty> when it has none.
  void objectIds(const Value &Object, std::vector<int> &Out) const;

private:
  void appendLeaves(const Value &Object, std::vector<int> &Out) const;

  const Vocabulary &Vocab;
  int Undef = 0, True = 0, False = 0, Empty = 0;
  int SmallInts[129] = {};   ///< -64..64.
  int IntBuckets[2][4] = {}; ///< [negative][e2, e3, e4, big].
  int StrBuckets[3] = {};    ///< len16, len32, len64.
};

/// splitmix64's finalizer: a bijection on 64-bit words, so a key hashed
/// by it alone is identified exactly by its hash.
inline uint64_t mix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X;
}

/// Hash of an id sequence (its length, then each id).
uint64_t hashIds(const std::vector<int> &Ids);

/// Open-addressing index from 64-bit hashes to entry numbers. A hash
/// may name several keys; find() asks \p Match to confirm a candidate
/// entry.
class HashIndex {
public:
  static constexpr uint32_t None = UINT32_MAX;

  template <typename MatchFn>
  uint32_t find(uint64_t Hash, MatchFn &&Match) const {
    if (Slots.empty())
      return None;
    size_t Mask = Slots.size() - 1;
    for (size_t I = Hash & Mask; Slots[I].Entry != None; I = (I + 1) & Mask)
      if (Slots[I].Hash == Hash && Match(Slots[I].Entry))
        return Slots[I].Entry;
    return None;
  }
  uint32_t find(uint64_t Hash) const; ///< For exact (bijective) hashes.
  void insert(uint64_t Hash, uint32_t Entry);
  void clear();

private:
  struct Slot {
    uint64_t Hash = 0;
    uint32_t Entry = None;
  };
  std::vector<Slot> Slots;
  size_t Used = 0;
};

/// Interned id sequences: entry E is the E-th distinct sequence.
class SequenceMemo {
public:
  /// The entry of \p Seq, whose hash is \p Hash, or HashIndex::None.
  uint32_t find(const std::vector<int> &Seq, uint64_t Hash) const;
  /// Interns \p Seq, which must be absent, as the next entry.
  uint32_t insert(const std::vector<int> &Seq, uint64_t Hash);
  /// The ids of entry \p E, as the range [first, second).
  std::pair<const int *, const int *> ids(uint32_t E) const {
    return {Ids.data() + Offsets[E], Ids.data() + Offsets[E + 1]};
  }

private:
  HashIndex Index;
  std::vector<int> Ids; ///< All sequences, concatenated.
  /// Entry E is Ids[Offsets[E], Offsets[E + 1]).
  std::vector<uint32_t> Offsets = {0};
};

/// The object memo and the f2 prefix trie of the two-level state
/// embedding. Entries and nodes are numbered densely in insertion
/// order; node 0 is the root, the empty tuple.
class StateTrie {
public:
  static constexpr uint32_t None = HashIndex::None;
  static constexpr uint32_t Root = 0;

  /// The component of a primitive value with token id \p TokenId.
  static uint64_t primitive(int TokenId) {
    return uint64_t(static_cast<uint32_t>(TokenId)) << 1;
  }
  /// The component of an object value with entry \p Entry.
  static uint64_t object(uint32_t Entry) { return uint64_t(Entry) << 1 | 1; }
  static bool isObject(uint64_t Component) { return Component & 1; }
  /// The token id of a primitive component, or the entry of an object
  /// component.
  static uint32_t payload(uint64_t Component) {
    return static_cast<uint32_t>(Component >> 1);
  }

  /// The entry of the object value with leaf ids \p Ids; a new sequence
  /// becomes the next entry and sets \p Added.
  uint32_t objectEntry(const std::vector<int> &Ids, bool &Added);
  /// The leaf ids of object entry \p Entry, as [first, second).
  std::pair<const int *, const int *> objectIds(uint32_t Entry) const {
    return Objects.ids(Entry);
  }

  /// The node \p Component leads to from \p Parent, or None.
  uint32_t child(uint32_t Parent, uint64_t Component) const {
    return Edges.find(edgeKey(Parent, Component));
  }
  /// Adds the absent edge (\p Parent, \p Component); returns its node.
  uint32_t addChild(uint32_t Parent, uint64_t Component);

private:
  static uint64_t edgeKey(uint32_t Parent, uint64_t Component) {
    return mix64(uint64_t(Parent) << 33 | Component);
  }

  SequenceMemo Objects;
  HashIndex Edges;
  uint32_t NumNodes = 1;
};

} // namespace liger

#endif // LIGER_MODELS_STATETRIE_H
