//===-- testgen/TraceCache.cpp - Content-addressed trace cache ------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "testgen/TraceCache.h"

#include "support/BinaryIO.h"

#include <algorithm>
#include <unordered_map>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace liger;

namespace {

//===----------------------------------------------------------------------===//
// LGTR container constants
//===----------------------------------------------------------------------===//

constexpr uint32_t MagicLGTR = tagOf('L', 'G', 'T', 'R');
/// v2: MemoryExceeded in STAT. v3: the accepted-inputs section (INPT)
/// is gone; TRCE is required. v4: counts, lengths, ids and ints are
/// varints, and a state stores only the slots that changed since the
/// previous state of its execution.
constexpr uint32_t FormatVersion = 4;
constexpr uint32_t TagStats = tagOf('S', 'T', 'A', 'T');
constexpr uint32_t TagTraces = tagOf('T', 'R', 'C', 'E');

/// Bump to invalidate every existing key when the hashed field set of
/// traceCacheKey changes.
constexpr uint64_t KeySalt = 0x4C47545203ULL; // "LGTR" + key schema 03

/// Sanity bounds: real entries are small, so anything bigger marks
/// corruption and is rejected before any allocation happens.
constexpr uint64_t MaxStringLen = 1ULL << 20;
constexpr uint64_t MaxSections = 16;
constexpr uint64_t MaxEntryBytes = 1ULL << 30;
constexpr unsigned MaxValueDepth = 64;

/// magic, version, key (hi, lo), payload length, checksum (hi, lo).
constexpr size_t HeaderBytes = 4 + 4 + 8 + 8 + 8 + 8 + 8;
/// Offset of the payload length; the checksum follows it.
constexpr size_t PayloadSizeAt = 4 + 4 + 8 + 8;

//===----------------------------------------------------------------------===//
// Writing: straight from the live values
//===----------------------------------------------------------------------===//

void writeValueList(ByteWriter &W, const std::vector<Value> &Vs);

void writeValue(ByteWriter &W, const Value &V) {
  W.writeU8(static_cast<uint8_t>(V.kind()));
  switch (V.kind()) {
  case ValueKind::Undef:
    break;
  case ValueKind::Int:
    W.writeZigzag(V.asInt());
    break;
  case ValueKind::Bool:
    W.writeU8(V.asBool() ? 1 : 0);
    break;
  case ValueKind::String:
    W.writeVarString(V.asString());
    break;
  case ValueKind::Struct:
    W.writeVarString(V.structDecl()->Name);
    [[fallthrough]];
  case ValueKind::Array:
    writeValueList(W, V.elements());
    break;
  }
}

void writeValueList(ByteWriter &W, const std::vector<Value> &Vs) {
  W.writeVarint(Vs.size());
  for (const Value &V : Vs)
    writeValue(W, V);
}

/// Bytes of a changed-slot bitmap over \p Arity slots.
size_t bitmapBytes(size_t Arity) { return (Arity + 7) / 8; }

/// Writes \p State against \p Prev, the previous state of its execution
/// (the initial state for the first), which has the same arity: every
/// state of an execution snapshots the same variable tuple. A bitmap
/// marks the changed slots (Value::equals against Prev's), slot I in
/// bit I % 8 of byte I / 8, and the changed slots' values follow in
/// slot order.
void writeState(ByteWriter &W, const std::vector<Value> &State,
                const std::vector<Value> &Prev) {
  LIGER_CHECK(State.size() == Prev.size(),
              "every state of an execution has its initial state's arity");
  size_t BitmapAt = W.size();
  for (size_t Byte = 0; Byte < bitmapBytes(State.size()); ++Byte)
    W.writeU8(0);
  // Each bitmap byte is patched in once its eight slots are written.
  uint8_t Bits = 0;
  for (size_t I = 0; I < State.size(); ++I) {
    if (!State[I].equals(Prev[I])) {
      Bits |= static_cast<uint8_t>(1u << (I % 8));
      writeValue(W, State[I]);
    }
    if (I % 8 == 7 || I + 1 == State.size()) {
      W.patchU8(BitmapAt + I / 8, Bits);
      Bits = 0;
    }
  }
}

void writeStats(ByteWriter &W, const CollectStats &S) {
  for (unsigned Counter : {S.Attempts, S.OkRuns, S.Faults, S.Timeouts,
                           S.MemoryExceeded, S.SymbolicSeeds})
    W.writeVarint(Counter);
}

void writeTraces(ByteWriter &W, const MethodTraces &T) {
  W.writeVarint(T.VarNames.size());
  for (const std::string &Name : T.VarNames)
    W.writeVarString(Name);
  W.writeVarint(T.Paths.size());
  for (const BlendedTrace &Path : T.Paths) {
    W.writeVarint(Path.Symbolic.Steps.size());
    for (const SymbolicStep &Step : Path.Symbolic.Steps) {
      W.writeVarint(Step.Statement->id());
      W.writeU8(static_cast<uint8_t>(Step.Kind));
    }
    W.writeVarint(Path.Concrete.size());
    for (const StateTrace &ST : Path.Concrete) {
      writeValueList(W, ST.Initial.Values);
      W.writeVarint(ST.States.size());
      const std::vector<Value> *Prev = &ST.Initial.Values;
      for (const ProgramState &State : ST.States) {
        writeState(W, State.Values, *Prev);
        Prev = &State.Values;
      }
    }
    W.writeVarint(Path.Inputs.size());
    for (const std::vector<Value> &In : Path.Inputs)
      writeValueList(W, In);
  }
}

//===----------------------------------------------------------------------===//
// Reading: bounded, straight into Values bound to one Program
//===----------------------------------------------------------------------===//

/// Reads a varint element count no larger than the bytes left (every
/// element costs at least one byte), so no corrupt count can reach a
/// reserve.
bool readCount(ByteReader &R, uint64_t &Count) {
  return R.readVarint(Count) && R.plausibleCount(Count);
}

bool readValueList(ByteReader &R, const Program &P, unsigned Depth,
                   std::vector<Value> &Out);

bool readValue(ByteReader &R, const Program &P, unsigned Depth,
               Value &Out) {
  if (Depth > MaxValueDepth)
    return false;
  uint8_t Kind = 0;
  if (!R.readU8(Kind) || Kind > static_cast<uint8_t>(ValueKind::Struct))
    return false;
  switch (static_cast<ValueKind>(Kind)) {
  case ValueKind::Undef:
    Out = Value::undef();
    return true;
  case ValueKind::Int: {
    int64_t I = 0;
    if (!R.readZigzag(I))
      return false;
    Out = Value::makeInt(I);
    return true;
  }
  case ValueKind::Bool: {
    uint8_t B = 0;
    if (!R.readU8(B) || B > 1)
      return false;
    Out = Value::makeBool(B != 0);
    return true;
  }
  case ValueKind::String: {
    std::string S;
    if (!R.readVarString(S, MaxStringLen))
      return false;
    Out = Value::makeString(std::move(S));
    return true;
  }
  case ValueKind::Array: {
    std::vector<Value> Elements;
    if (!readValueList(R, P, Depth + 1, Elements))
      return false;
    Out = Value::makeArray(std::move(Elements));
    return true;
  }
  case ValueKind::Struct: {
    std::string Name;
    if (!R.readVarString(Name, MaxStringLen))
      return false;
    // A stale entry against an evolved (or absent) struct fails softly.
    const StructDecl *Decl = P.findStruct(Name);
    std::vector<Value> Fields;
    if (!Decl || !readValueList(R, P, Depth + 1, Fields) ||
        Fields.size() != Decl->Fields.size())
      return false;
    Out = Value::makeStruct(Decl, std::move(Fields));
    return true;
  }
  }
  return false;
}

bool readValueList(ByteReader &R, const Program &P, unsigned Depth,
                   std::vector<Value> &Out) {
  uint64_t Count = 0;
  if (!readCount(R, Count))
    return false;
  Out.resize(static_cast<size_t>(Count));
  for (Value &V : Out)
    if (!readValue(R, P, Depth, V))
      return false;
  return true;
}

/// Reads a writeState() state against \p Prev into \p Out. Unchanged
/// slots are copies of Prev's Values, which share Prev's heap payloads.
/// A bitmap bit past the last slot is rejected. The state allocates
/// Prev's arity in slots only once its bitmap, one byte per eight of
/// them, is read.
bool readState(ByteReader &R, const Program &P, const std::vector<Value> &Prev,
               std::vector<Value> &Out) {
  size_t Arity = Prev.size();
  const char *Bitmap = nullptr;
  if (!R.readView(Bitmap, bitmapBytes(Arity)))
    return false;
  if (Arity % 8 != 0 &&
      static_cast<uint8_t>(Bitmap[Arity / 8]) >> (Arity % 8) != 0)
    return false;
  Out = Prev;
  for (size_t I = 0; I < Arity; ++I)
    if (static_cast<uint8_t>(Bitmap[I / 8]) >> (I % 8) & 1)
      if (!readValue(R, P, 0, Out[I]))
        return false;
  return true;
}

bool readStats(ByteReader &R, CollectStats &S) {
  for (unsigned *Counter : {&S.Attempts, &S.OkRuns, &S.Faults, &S.Timeouts,
                            &S.MemoryExceeded, &S.SymbolicSeeds}) {
    uint64_t V = 0;
    if (!R.readVarint(V) || V > UINT32_MAX)
      return false;
    *Counter = static_cast<unsigned>(V);
  }
  return true;
}

void collectStmtIds(const Stmt *S,
                    std::unordered_map<uint32_t, const Stmt *> &Map) {
  if (!S)
    return;
  Map.emplace(S->id(), S);
  forEachChildStmt(S, [&](const Stmt *Child) { collectStmtIds(Child, Map); });
}

bool readTraces(ByteReader &R, const Program &P, MethodTraces &T) {
  // Statements can come from any function in the program (the
  // interpreter records across calls), so index them all.
  std::unordered_map<uint32_t, const Stmt *> StmtById;
  for (const FunctionDecl &F : P.Functions)
    collectStmtIds(F.Body, StmtById);

  uint64_t Count = 0;
  if (!readCount(R, Count))
    return false;
  T.VarNames.resize(static_cast<size_t>(Count));
  for (std::string &Name : T.VarNames)
    if (!R.readVarString(Name, MaxStringLen))
      return false;
  if (!readCount(R, Count))
    return false;
  T.Paths.resize(static_cast<size_t>(Count));
  for (BlendedTrace &Path : T.Paths) {
    if (!readCount(R, Count))
      return false;
    Path.Symbolic.Steps.resize(static_cast<size_t>(Count));
    for (SymbolicStep &Step : Path.Symbolic.Steps) {
      uint64_t Id = 0;
      uint8_t Kind = 0;
      if (!R.readVarint(Id) || Id > UINT32_MAX || !R.readU8(Kind) ||
          Kind > static_cast<uint8_t>(StepKind::CondFalse))
        return false;
      auto It = StmtById.find(static_cast<uint32_t>(Id));
      if (It == StmtById.end())
        return false;
      Step = {It->second, static_cast<StepKind>(Kind)};
    }
    if (!readCount(R, Count))
      return false;
    Path.Concrete.resize(static_cast<size_t>(Count));
    for (StateTrace &ST : Path.Concrete) {
      if (!readValueList(R, P, 0, ST.Initial.Values) || !readCount(R, Count))
        return false;
      ST.States.resize(static_cast<size_t>(Count));
      const std::vector<Value> *Prev = &ST.Initial.Values;
      for (ProgramState &State : ST.States) {
        if (!readState(R, P, *Prev, State.Values))
          return false;
        Prev = &State.Values;
      }
    }
    if (!readCount(R, Count))
      return false;
    Path.Inputs.resize(static_cast<size_t>(Count));
    for (std::vector<Value> &In : Path.Inputs)
      if (!readValueList(R, P, 0, In))
        return false;
  }
  return true;
}

/// True when \p Bytes is a whole LGTR entry for \p Key: magic,
/// version, key, payload length and payload checksum all match. The
/// payload then starts at HeaderBytes.
bool entryIntact(const std::string &Bytes, const TraceCacheKey &Key) {
  ByteReader Header(Bytes);
  uint32_t Magic = 0, Version = 0;
  uint64_t KeyHi = 0, KeyLo = 0, PayloadSize = 0, SumHi = 0, SumLo = 0;
  if (!Header.readU32(Magic) || Magic != MagicLGTR)
    return false;
  if (!Header.readU32(Version) || Version != FormatVersion)
    return false;
  if (!Header.readU64(KeyHi) || !Header.readU64(KeyLo) ||
      KeyHi != Key.Hi || KeyLo != Key.Lo)
    return false;
  if (!Header.readU64(PayloadSize) || !Header.readU64(SumHi) ||
      !Header.readU64(SumLo) || PayloadSize != Header.remaining())
    return false;

  StableHash Checksum;
  Checksum.addBytes(Bytes.data() + HeaderBytes,
                    static_cast<size_t>(PayloadSize));
  Digest128 Sum = Checksum.digest128();
  return Sum.Hi == SumHi && Sum.Lo == SumLo;
}

} // namespace

//===----------------------------------------------------------------------===//
// Mode parsing and key computation
//===----------------------------------------------------------------------===//

bool liger::parseTraceCacheMode(const std::string &Text,
                                TraceCacheMode &Out) {
  if (Text == "off")
    Out = TraceCacheMode::Off;
  else if (Text == "full")
    Out = TraceCacheMode::Full;
  else
    return false;
  return true;
}

TraceCacheKey liger::traceCacheKey(const std::string &SourceText,
                                   const std::string &MethodName,
                                   const TestGenOptions &Options) {
  StableHash H;
  H.addU64(KeySalt);
  H.addString(SourceText);
  H.addString(MethodName);
  // Input domain.
  H.addI64(Options.Input.IntLo);
  H.addI64(Options.Input.IntHi);
  H.addU64(Options.Input.ArrayLenChoices.size());
  for (size_t Len : Options.Input.ArrayLenChoices)
    H.addU64(Len);
  H.addU64(Options.Input.StringPool.size());
  for (const std::string &S : Options.Input.StringPool)
    H.addString(S);
  H.addF64(Options.Input.InterestingProb);
  // Interpreter budgets. RecordStates is deliberately excluded: the
  // pipeline overrides it per phase, so it never affects the output.
  H.addU64(Options.Interp.Fuel);
  H.addU64(Options.Interp.MaxRecordedSteps);
  H.addU64(Options.Interp.MaxMemoryBytes);
  // Pipeline budgets and seed.
  H.addU32(Options.TargetPaths);
  H.addU32(Options.ExecutionsPerPath);
  H.addU32(Options.MaxAttempts);
  H.addU32(Options.MutationAttemptsPerPath);
  H.addBool(Options.UseSymbolicSeeding);
  H.addU64(Options.Seed);
  // Dataset scope: partitions one shared cache directory per corpus.
  H.addString(Options.Scope);
  return H.digest128();
}

//===----------------------------------------------------------------------===//
// Container serialization
//===----------------------------------------------------------------------===//

// Entries are serialized into a buffer first so the payload checksum
// can be computed before anything touches the disk, and parsed from a
// buffer so a checksum mismatch rejects the entry before any payload
// byte is interpreted.

std::string liger::serializeCacheEntry(const TraceCacheKey &Key,
                                       const CollectStats &Stats,
                                       const MethodTraces &Traces) {
  // One buffer: the header with placeholders for the payload length and
  // checksum, then the payload (section count, then tag/size/bytes per
  // section) written in place, then the placeholders patched.
  ByteWriter W;
  W.writeU32(MagicLGTR);
  W.writeU32(FormatVersion);
  W.writeU64(Key.Hi);
  W.writeU64(Key.Lo);
  W.writeU64(0); // payload length
  W.writeU64(0); // checksum hi
  W.writeU64(0); // checksum lo
  W.writeU32(2); // STAT and TRCE
  size_t Section = W.beginSection(TagStats);
  writeStats(W, Stats);
  W.endSection(Section);
  Section = W.beginSection(TagTraces);
  writeTraces(W, Traces);
  W.endSection(Section);

  size_t PayloadSize = W.size() - HeaderBytes;
  StableHash Checksum;
  Checksum.addBytes(W.bytes().data() + HeaderBytes, PayloadSize);
  Digest128 Sum = Checksum.digest128();
  W.patchU64(PayloadSizeAt, PayloadSize);
  W.patchU64(PayloadSizeAt + 8, Sum.Hi);
  W.patchU64(PayloadSizeAt + 16, Sum.Lo);
  return W.bytes();
}

bool liger::parseCacheEntry(const std::string &Bytes,
                            const TraceCacheKey &Key, const Program &P,
                            const FunctionDecl &Fn, CollectStats &Stats,
                            MethodTraces &Out) {
  if (!entryIntact(Bytes, Key))
    return false;
  ByteReader R(Bytes.data() + HeaderBytes, Bytes.size() - HeaderBytes);
  uint32_t NumSections = 0;
  if (!R.readU32(NumSections) || NumSections > MaxSections)
    return false;
  Out = MethodTraces();
  Out.Fn = &Fn;
  bool SawStats = false, SawTraces = false;
  for (uint32_t I = 0; I < NumSections; ++I) {
    uint32_t Tag = 0;
    uint64_t Size = 0;
    if (!R.readU32(Tag) || !R.readU64(Size) || Size > R.remaining())
      return false;
    uint64_t Before = R.remaining();
    if (Tag == TagStats) {
      if (!readStats(R, Stats))
        return false;
      SawStats = true;
    } else if (Tag == TagTraces) {
      if (!readTraces(R, P, Out))
        return false;
      SawTraces = true;
    } else {
      // Unknown section from a future writer at the same version is
      // still corruption here (the version gates format changes), but
      // skipping keeps the reader total either way.
      if (!R.skip(Size))
        return false;
    }
    // A section must consume exactly the bytes it declared.
    if (Before - R.remaining() != Size)
      return false;
  }
  return R.ok() && R.remaining() == 0 && SawStats && SawTraces;
}

//===----------------------------------------------------------------------===//
// TraceCache
//===----------------------------------------------------------------------===//

TraceCache::TraceCache(TraceCacheMode Mode, std::string Dir,
                       uint64_t MaxBytes)
    : Mode(Mode), Dir(std::move(Dir)), MaxBytes(MaxBytes) {}

std::string TraceCache::entryFileName(const TraceCacheKey &Key) {
  return Key.hex() + ".lgtr";
}

std::string TraceCache::entryPath(const TraceCacheKey &Key) const {
  if (Dir.empty())
    return "";
  return Dir + "/" + entryFileName(Key);
}

size_t TraceCache::entries() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Memory.size();
}

uint64_t TraceCache::residentBytes() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return ResidentBytes;
}

std::shared_ptr<const std::string>
TraceCache::lookup(const TraceCacheKey &Key) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Memory.find(Key);
    if (It != Memory.end()) {
      Hits.fetch_add(1);
      return It->second;
    }
  }
  if (!Dir.empty()) {
    std::string Bytes;
    // Absent (never created, or unlinked between the caller's decision
    // and the open) is not corruption: replacement races only miss.
    switch (readWholeFile(entryPath(Key), MaxEntryBytes, Bytes)) {
    case ReadResult::Ok:
      if (entryIntact(Bytes, Key)) {
        auto Held = std::make_shared<const std::string>(std::move(Bytes));
        std::lock_guard<std::mutex> Lock(Mutex);
        // A racing store or promotion may have got here first; every
        // hit then shares its buffer.
        auto [It, Inserted] = Memory.emplace(Key, std::move(Held));
        if (Inserted)
          ResidentBytes += It->second->size();
        Hits.fetch_add(1);
        return It->second;
      }
      BadEntries.fetch_add(1);
      break;
    case ReadResult::Bad:
      BadEntries.fetch_add(1);
      break;
    case ReadResult::Absent:
      break;
    }
  }
  Misses.fetch_add(1);
  return nullptr;
}

void TraceCache::store(const TraceCacheKey &Key, std::string Bytes) {
  auto Held = std::make_shared<const std::string>(std::move(Bytes));
  bool Wrote = false;
  if (!Dir.empty() && ensureDirExists(Dir)) {
    // Failures are non-fatal: the entry still serves from memory, and
    // the next cold run will simply re-store it.
    Wrote = atomicWriteFile(entryPath(Key), *Held);
  }
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Wrote && MaxBytes != 0)
    evictOverBudget(entryFileName(Key));
  std::shared_ptr<const std::string> &Slot = Memory[Key];
  if (Slot)
    ResidentBytes -= Slot->size();
  ResidentBytes += Held->size();
  Slot = std::move(Held);
  Stores.fetch_add(1);
}

void TraceCache::evictOverBudget(const std::string &KeepFile) {
  // One scan per store keeps this free of persistent bookkeeping that
  // could drift from the directory (other processes store here too).
  struct DiskEntry {
    std::string Name;
    uint64_t Size;
    int64_t Mtime;
  };
  DIR *D = opendir(Dir.c_str());
  if (!D)
    return;
  std::vector<DiskEntry> Entries;
  uint64_t Total = 0;
  while (struct dirent *E = readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() < 5 || Name.compare(Name.size() - 5, 5, ".lgtr") != 0)
      continue;
    struct stat St;
    if (::stat((Dir + "/" + Name).c_str(), &St) != 0 || !S_ISREG(St.st_mode))
      continue;
    Total += static_cast<uint64_t>(St.st_size);
    Entries.push_back({std::move(Name), static_cast<uint64_t>(St.st_size),
                       static_cast<int64_t>(St.st_mtime)});
  }
  closedir(D);
  if (Total <= MaxBytes)
    return;
  // Oldest mtime first; name breaks ties so eviction order is stable
  // even when a burst of stores lands within one mtime granule.
  std::sort(Entries.begin(), Entries.end(),
            [](const DiskEntry &A, const DiskEntry &B) {
              return A.Mtime != B.Mtime ? A.Mtime < B.Mtime : A.Name < B.Name;
            });
  for (const DiskEntry &E : Entries) {
    if (Total <= MaxBytes)
      break;
    if (E.Name == KeepFile)
      continue;
    // A concurrent eviction racing us just means the unlink fails and
    // the bytes were freed anyway; only successful unlinks count.
    if (::unlink((Dir + "/" + E.Name).c_str()) == 0) {
      Total -= E.Size;
      Evictions.fetch_add(1);
    }
  }
}
