//===-- models/StateTrie.cpp - Token-id keys of state embeddings -----------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "models/StateTrie.h"

#include "support/Error.h"

#include <algorithm>

using namespace liger;

//===----------------------------------------------------------------------===//
// ValueTokenIds
//===----------------------------------------------------------------------===//

ValueTokenIds::ValueTokenIds(const Vocabulary &Vocab) : Vocab(Vocab) {
  // Every spelling valueToken()/valueTokens() can produce outside
  // short strings.
  Undef = Vocab.lookup(valueToken(Value::undef()));
  True = Vocab.lookup(valueToken(Value::makeBool(true)));
  False = Vocab.lookup(valueToken(Value::makeBool(false)));
  Empty = Vocab.lookup(valueTokens(Value::makeArray({})).front());
  for (int64_t X = -64; X <= 64; ++X)
    SmallInts[X + 64] = Vocab.lookup(valueToken(Value::makeInt(X)));
  // One representative magnitude per bucket: 256, 4096, 65536, 2^20.
  const int64_t Magnitudes[4] = {256, 4096, 65536, int64_t(1) << 20};
  for (int B = 0; B < 4; ++B) {
    IntBuckets[0][B] = Vocab.lookup(valueToken(Value::makeInt(Magnitudes[B])));
    IntBuckets[1][B] =
        Vocab.lookup(valueToken(Value::makeInt(-Magnitudes[B])));
  }
  for (int B = 0; B < 3; ++B)
    StrBuckets[B] =
        Vocab.lookup(valueToken(Value::makeString(std::string(16u << B, 'x'))));
}

int ValueTokenIds::id(const Value &V) const {
  switch (V.kind()) {
  case ValueKind::Undef:
    return Undef;
  case ValueKind::Bool:
    return V.asBool() ? True : False;
  case ValueKind::Int: {
    // valueToken's buckets: exact in [-64, 64], then magnitude <= 256,
    // <= 4096, <= 65536, beyond.
    int64_t X = V.asInt();
    if (X >= -64 && X <= 64)
      return SmallInts[X + 64];
    uint64_t Mag = X < 0 ? static_cast<uint64_t>(-(X + 1)) + 1
                         : static_cast<uint64_t>(X);
    int Bucket = Mag <= 256 ? 0 : Mag <= 4096 ? 1 : Mag <= 65536 ? 2 : 3;
    return IntBuckets[X < 0][Bucket];
  }
  case ValueKind::String: {
    const std::string &S = V.asString();
    if (S.size() <= 8) {
      // At most 10 bytes: stays in the string's inline buffer.
      std::string Key;
      Key += '"';
      Key += S;
      Key += '"';
      return Vocab.lookup(Key);
    }
    return StrBuckets[S.size() <= 16 ? 0 : S.size() <= 32 ? 1 : 2];
  }
  case ValueKind::Array:
  case ValueKind::Struct:
    LIGER_UNREACHABLE("ValueTokenIds::id expects a primitive");
  }
  LIGER_UNREACHABLE("covered switch");
}

void ValueTokenIds::appendLeaves(const Value &Object,
                                 std::vector<int> &Out) const {
  for (const Value &Elem : Object.elements()) {
    if (Out.size() == MaxFlattenedValues)
      return;
    if (Elem.isArray() || Elem.isStruct())
      appendLeaves(Elem, Out);
    else
      Out.push_back(id(Elem));
  }
}

void ValueTokenIds::objectIds(const Value &Object,
                              std::vector<int> &Out) const {
  Out.clear();
  appendLeaves(Object, Out);
  // valueTokens() emits <empty> for a leafless value.
  if (Out.empty())
    Out.push_back(Empty);
}

//===----------------------------------------------------------------------===//
// Indexes
//===----------------------------------------------------------------------===//

uint64_t liger::hashIds(const std::vector<int> &Ids) {
  uint64_t H = mix64(Ids.size());
  for (int Id : Ids)
    H = mix64(H ^ static_cast<uint32_t>(Id));
  return H;
}

uint32_t HashIndex::find(uint64_t Hash) const {
  return find(Hash, [](uint32_t) { return true; });
}

void HashIndex::insert(uint64_t Hash, uint32_t Entry) {
  // Grow at 3/4 load; the capacity stays a power of two.
  if (4 * (Used + 1) > 3 * Slots.size()) {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 16 : 2 * Old.size(), Slot());
    Used = 0;
    for (const Slot &S : Old)
      if (S.Entry != None)
        insert(S.Hash, S.Entry);
  }
  size_t Mask = Slots.size() - 1;
  size_t I = Hash & Mask;
  while (Slots[I].Entry != None)
    I = (I + 1) & Mask;
  Slots[I] = {Hash, Entry};
  ++Used;
}

void HashIndex::clear() {
  std::fill(Slots.begin(), Slots.end(), Slot());
  Used = 0;
}

uint32_t SequenceMemo::find(const std::vector<int> &Seq, uint64_t Hash) const {
  return Index.find(Hash, [&](uint32_t E) {
    size_t Begin = Offsets[E], End = Offsets[E + 1];
    return End - Begin == Seq.size() &&
           std::equal(Seq.begin(), Seq.end(), Ids.begin() + Begin);
  });
}

uint32_t SequenceMemo::insert(const std::vector<int> &Seq, uint64_t Hash) {
  uint32_t E = static_cast<uint32_t>(Offsets.size() - 1);
  Ids.insert(Ids.end(), Seq.begin(), Seq.end());
  Offsets.push_back(static_cast<uint32_t>(Ids.size()));
  Index.insert(Hash, E);
  return E;
}

//===----------------------------------------------------------------------===//
// StateTrie
//===----------------------------------------------------------------------===//

uint32_t StateTrie::objectEntry(const std::vector<int> &Ids, bool &Added) {
  uint64_t Hash = hashIds(Ids);
  uint32_t E = Objects.find(Ids, Hash);
  Added = E == None;
  return Added ? Objects.insert(Ids, Hash) : E;
}

uint32_t StateTrie::addChild(uint32_t Parent, uint64_t Component) {
  uint32_t Node = NumNodes++;
  Edges.insert(edgeKey(Parent, Component), Node);
  return Node;
}
