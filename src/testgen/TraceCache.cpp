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
/// is gone; TRCE is required.
constexpr uint32_t FormatVersion = 3;
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

//===----------------------------------------------------------------------===//
// Portable value serialization
//===----------------------------------------------------------------------===//

void writeValue(ByteWriter &W, const PortableValue &V) {
  W.writeU8(static_cast<uint8_t>(V.Kind));
  switch (V.Kind) {
  case ValueKind::Undef:
    break;
  case ValueKind::Int:
    W.writeI64(V.Int);
    break;
  case ValueKind::Bool:
    W.writeU8(V.Bool ? 1 : 0);
    break;
  case ValueKind::String:
    W.writeString(V.Str);
    break;
  case ValueKind::Struct:
    W.writeString(V.Str); // struct type name
    [[fallthrough]];
  case ValueKind::Array:
    W.writeU64(V.Elements.size());
    for (const PortableValue &E : V.Elements)
      writeValue(W, E);
    break;
  }
}

bool readValue(ByteReader &R, PortableValue &Out, unsigned Depth) {
  if (Depth > MaxValueDepth)
    return false;
  uint8_t Kind = 0;
  if (!R.readU8(Kind) || Kind > static_cast<uint8_t>(ValueKind::Struct))
    return false;
  Out.Kind = static_cast<ValueKind>(Kind);
  Out.Elements.clear();
  switch (Out.Kind) {
  case ValueKind::Undef:
    return true;
  case ValueKind::Int:
    return R.readI64(Out.Int);
  case ValueKind::Bool: {
    uint8_t B = 0;
    if (!R.readU8(B))
      return false;
    Out.Bool = B != 0;
    return true;
  }
  case ValueKind::String:
    return R.readString(Out.Str, MaxStringLen);
  case ValueKind::Struct:
    if (!R.readString(Out.Str, MaxStringLen))
      return false;
    [[fallthrough]];
  case ValueKind::Array: {
    uint64_t Count = 0;
    if (!R.readU64(Count) || !R.plausibleCount(Count))
      return false;
    Out.Elements.resize(static_cast<size_t>(Count));
    for (PortableValue &E : Out.Elements)
      if (!readValue(R, E, Depth + 1))
        return false;
    return true;
  }
  }
  return false;
}

void writeValueList(ByteWriter &W, const std::vector<PortableValue> &Vs) {
  W.writeU64(Vs.size());
  for (const PortableValue &V : Vs)
    writeValue(W, V);
}

bool readValueList(ByteReader &R, std::vector<PortableValue> &Out) {
  uint64_t Count = 0;
  if (!R.readU64(Count) || !R.plausibleCount(Count))
    return false;
  Out.resize(static_cast<size_t>(Count));
  for (PortableValue &V : Out)
    if (!readValue(R, V, 0))
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Section payloads
//===----------------------------------------------------------------------===//

ByteWriter statsSection(const CachedTraceEntry &E) {
  ByteWriter W;
  W.writeU32(E.Attempts);
  W.writeU32(E.OkRuns);
  W.writeU32(E.Faults);
  W.writeU32(E.Timeouts);
  W.writeU32(E.MemoryExceeded);
  W.writeU32(E.SymbolicSeeds);
  return W;
}

bool readStatsSection(ByteReader &R, CachedTraceEntry &E) {
  return R.readU32(E.Attempts) && R.readU32(E.OkRuns) &&
         R.readU32(E.Faults) && R.readU32(E.Timeouts) &&
         R.readU32(E.MemoryExceeded) && R.readU32(E.SymbolicSeeds);
}

ByteWriter tracesSection(const PortableMethodTraces &T) {
  ByteWriter W;
  W.writeU64(T.VarNames.size());
  for (const std::string &Name : T.VarNames)
    W.writeString(Name);
  W.writeU64(T.Paths.size());
  for (const PortableBlendedTrace &Path : T.Paths) {
    W.writeU64(Path.Steps.size());
    for (const PortableStep &Step : Path.Steps) {
      W.writeU32(Step.StmtId);
      W.writeU8(static_cast<uint8_t>(Step.Kind));
    }
    W.writeU64(Path.Concrete.size());
    for (const PortableStateTrace &ST : Path.Concrete) {
      writeValueList(W, ST.Initial);
      W.writeU64(ST.States.size());
      for (const std::vector<PortableValue> &State : ST.States)
        writeValueList(W, State);
    }
    W.writeU64(Path.Inputs.size());
    for (const std::vector<PortableValue> &In : Path.Inputs)
      writeValueList(W, In);
  }
  return W;
}

bool readTracesSection(ByteReader &R, PortableMethodTraces &T) {
  uint64_t Count = 0;
  if (!R.readU64(Count) || !R.plausibleCount(Count))
    return false;
  T.VarNames.resize(static_cast<size_t>(Count));
  for (std::string &Name : T.VarNames)
    if (!R.readString(Name, MaxStringLen))
      return false;
  if (!R.readU64(Count) || !R.plausibleCount(Count))
    return false;
  T.Paths.resize(static_cast<size_t>(Count));
  for (PortableBlendedTrace &Path : T.Paths) {
    if (!R.readU64(Count) || !R.plausibleCount(Count))
      return false;
    Path.Steps.resize(static_cast<size_t>(Count));
    for (PortableStep &Step : Path.Steps) {
      uint8_t Kind = 0;
      if (!R.readU32(Step.StmtId) || !R.readU8(Kind) ||
          Kind > static_cast<uint8_t>(StepKind::CondFalse))
        return false;
      Step.Kind = static_cast<StepKind>(Kind);
    }
    if (!R.readU64(Count) || !R.plausibleCount(Count))
      return false;
    Path.Concrete.resize(static_cast<size_t>(Count));
    for (PortableStateTrace &ST : Path.Concrete) {
      if (!readValueList(R, ST.Initial))
        return false;
      if (!R.readU64(Count) || !R.plausibleCount(Count))
        return false;
      ST.States.resize(static_cast<size_t>(Count));
      for (std::vector<PortableValue> &State : ST.States)
        if (!readValueList(R, State))
          return false;
    }
    if (!R.readU64(Count) || !R.plausibleCount(Count))
      return false;
    Path.Inputs.resize(static_cast<size_t>(Count));
    for (std::vector<PortableValue> &In : Path.Inputs)
      if (!readValueList(R, In))
        return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Statement re-binding
//===----------------------------------------------------------------------===//

void collectStmtIds(const Stmt *S,
                    std::unordered_map<uint32_t, const Stmt *> &Map) {
  if (!S)
    return;
  Map.emplace(S->id(), S);
  forEachChildStmt(S, [&](const Stmt *Child) { collectStmtIds(Child, Map); });
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
// Portable value conversion
//===----------------------------------------------------------------------===//

PortableValue liger::toPortable(const Value &V) {
  PortableValue Out;
  Out.Kind = V.kind();
  switch (V.kind()) {
  case ValueKind::Undef:
    break;
  case ValueKind::Int:
    Out.Int = V.asInt();
    break;
  case ValueKind::Bool:
    Out.Bool = V.asBool();
    break;
  case ValueKind::String:
    Out.Str = V.asString();
    break;
  case ValueKind::Struct:
    Out.Str = V.structDecl()->Name;
    [[fallthrough]];
  case ValueKind::Array:
    Out.Elements.reserve(V.elements().size());
    for (const Value &E : V.elements())
      Out.Elements.push_back(toPortable(E));
    break;
  }
  return Out;
}

bool liger::fromPortable(const PortableValue &PV, const Program &P,
                         Value &Out) {
  switch (PV.Kind) {
  case ValueKind::Undef:
    Out = Value::undef();
    return true;
  case ValueKind::Int:
    Out = Value::makeInt(PV.Int);
    return true;
  case ValueKind::Bool:
    Out = Value::makeBool(PV.Bool);
    return true;
  case ValueKind::String:
    Out = Value::makeString(PV.Str);
    return true;
  case ValueKind::Array: {
    std::vector<Value> Elements;
    Elements.reserve(PV.Elements.size());
    for (const PortableValue &E : PV.Elements) {
      Value V;
      if (!fromPortable(E, P, V))
        return false;
      Elements.push_back(std::move(V));
    }
    Out = Value::makeArray(std::move(Elements));
    return true;
  }
  case ValueKind::Struct: {
    const StructDecl *Decl = P.findStruct(PV.Str);
    if (!Decl || Decl->Fields.size() != PV.Elements.size())
      return false;
    std::vector<Value> Fields;
    Fields.reserve(PV.Elements.size());
    for (const PortableValue &E : PV.Elements) {
      Value V;
      if (!fromPortable(E, P, V))
        return false;
      Fields.push_back(std::move(V));
    }
    Out = Value::makeStruct(Decl, std::move(Fields));
    return true;
  }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Portable trace conversion
//===----------------------------------------------------------------------===//

namespace {

std::vector<PortableValue> toPortableList(const std::vector<Value> &Vs) {
  std::vector<PortableValue> Out;
  Out.reserve(Vs.size());
  for (const Value &V : Vs)
    Out.push_back(toPortable(V));
  return Out;
}

bool fromPortableList(const std::vector<PortableValue> &PVs,
                      const Program &P, std::vector<Value> &Out) {
  Out.clear();
  Out.reserve(PVs.size());
  for (const PortableValue &PV : PVs) {
    Value V;
    if (!fromPortable(PV, P, V))
      return false;
    Out.push_back(std::move(V));
  }
  return true;
}

} // namespace

PortableMethodTraces liger::toPortable(const MethodTraces &Traces) {
  PortableMethodTraces Out;
  Out.VarNames = Traces.VarNames;
  Out.Paths.reserve(Traces.Paths.size());
  for (const BlendedTrace &Path : Traces.Paths) {
    PortableBlendedTrace PPath;
    PPath.Steps.reserve(Path.Symbolic.Steps.size());
    for (const SymbolicStep &Step : Path.Symbolic.Steps)
      PPath.Steps.push_back({Step.Statement->id(), Step.Kind});
    PPath.Concrete.reserve(Path.Concrete.size());
    for (const StateTrace &ST : Path.Concrete) {
      PortableStateTrace PST;
      PST.Initial = toPortableList(ST.Initial.Values);
      PST.States.reserve(ST.States.size());
      for (const ProgramState &State : ST.States)
        PST.States.push_back(toPortableList(State.Values));
      PPath.Concrete.push_back(std::move(PST));
    }
    PPath.Inputs.reserve(Path.Inputs.size());
    for (const std::vector<Value> &In : Path.Inputs)
      PPath.Inputs.push_back(toPortableList(In));
    Out.Paths.push_back(std::move(PPath));
  }
  return Out;
}

bool liger::materializeTraces(const PortableMethodTraces &PT,
                              const Program &P, const FunctionDecl &Fn,
                              MethodTraces &Out) {
  // Statements can come from any function in the program (the
  // interpreter records across calls), so index them all.
  std::unordered_map<uint32_t, const Stmt *> StmtById;
  for (const FunctionDecl &F : P.Functions)
    collectStmtIds(F.Body, StmtById);

  Out = MethodTraces();
  Out.Fn = &Fn;
  Out.VarNames = PT.VarNames;
  Out.Paths.reserve(PT.Paths.size());
  for (const PortableBlendedTrace &PPath : PT.Paths) {
    BlendedTrace Path;
    Path.Symbolic.Steps.reserve(PPath.Steps.size());
    for (const PortableStep &Step : PPath.Steps) {
      auto It = StmtById.find(Step.StmtId);
      if (It == StmtById.end())
        return false;
      Path.Symbolic.Steps.push_back({It->second, Step.Kind});
    }
    Path.Concrete.reserve(PPath.Concrete.size());
    for (const PortableStateTrace &PST : PPath.Concrete) {
      StateTrace ST;
      if (!fromPortableList(PST.Initial, P, ST.Initial.Values))
        return false;
      ST.States.reserve(PST.States.size());
      for (const std::vector<PortableValue> &State : PST.States) {
        ProgramState PS;
        if (!fromPortableList(State, P, PS.Values))
          return false;
        ST.States.push_back(std::move(PS));
      }
      Path.Concrete.push_back(std::move(ST));
    }
    Path.Inputs.reserve(PPath.Inputs.size());
    for (const std::vector<PortableValue> &In : PPath.Inputs) {
      std::vector<Value> Values;
      if (!fromPortableList(In, P, Values))
        return false;
      Path.Inputs.push_back(std::move(Values));
    }
    Out.Paths.push_back(std::move(Path));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Container serialization
//===----------------------------------------------------------------------===//

// Entries are serialized into a buffer first so the payload checksum
// can be computed before anything touches the disk, and parsed from a
// buffer so a checksum mismatch rejects the file before any payload
// byte is interpreted.

std::string liger::serializeCacheEntry(const TraceCacheKey &Key,
                                       const CachedTraceEntry &Entry) {
  // Payload: section count, then tag/size/bytes per section.
  ByteWriter Payload;
  Payload.writeU32(2); // STAT and TRCE
  Payload.writeSection(TagStats, statsSection(Entry));
  Payload.writeSection(TagTraces, tracesSection(Entry.Traces));

  StableHash Checksum;
  Checksum.addBytes(Payload.bytes().data(), Payload.size());
  Digest128 Sum = Checksum.digest128();

  ByteWriter Out;
  Out.writeU32(MagicLGTR);
  Out.writeU32(FormatVersion);
  Out.writeU64(Key.Hi);
  Out.writeU64(Key.Lo);
  Out.writeU64(Payload.size());
  Out.writeU64(Sum.Hi);
  Out.writeU64(Sum.Lo);
  Out.writeBytes(Payload.bytes().data(), Payload.size());
  return Out.bytes();
}

bool liger::deserializeCacheEntry(const std::string &Bytes,
                                  const TraceCacheKey &Key,
                                  CachedTraceEntry &Out) {
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

  const char *Payload = Bytes.data() + Header.position();
  StableHash Checksum;
  Checksum.addBytes(Payload, static_cast<size_t>(PayloadSize));
  Digest128 Sum = Checksum.digest128();
  if (Sum.Hi != SumHi || Sum.Lo != SumLo)
    return false;

  ByteReader R(Payload, static_cast<size_t>(PayloadSize));
  uint32_t NumSections = 0;
  if (!R.readU32(NumSections) || NumSections > MaxSections)
    return false;
  Out = CachedTraceEntry();
  bool SawStats = false, SawTraces = false;
  for (uint32_t I = 0; I < NumSections; ++I) {
    uint32_t Tag = 0;
    uint64_t Size = 0;
    if (!R.readU32(Tag) || !R.readU64(Size) || Size > R.remaining())
      return false;
    uint64_t Before = R.remaining();
    if (Tag == TagStats) {
      if (!readStatsSection(R, Out))
        return false;
      SawStats = true;
    } else if (Tag == TagTraces) {
      if (!readTracesSection(R, Out.Traces))
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

bool TraceCache::lookup(const TraceCacheKey &Key, CachedTraceEntry &Out) {
  std::string Hex = Key.hex();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Memory.find(Hex);
    if (It != Memory.end()) {
      Out = It->second;
      Hits.fetch_add(1);
      return true;
    }
  }
  if (!Dir.empty()) {
    std::string Path = entryPath(Key);
    std::string Bytes;
    // Absent (never created, or unlinked between the caller's decision
    // and the open) is not corruption: replacement races only miss.
    switch (readWholeFile(Path, MaxEntryBytes, Bytes)) {
    case ReadResult::Ok:
      if (deserializeCacheEntry(Bytes, Key, Out)) {
        std::lock_guard<std::mutex> Lock(Mutex);
        Memory.emplace(std::move(Hex), Out);
        Hits.fetch_add(1);
        return true;
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
  return false;
}

void TraceCache::store(const TraceCacheKey &Key, CachedTraceEntry Entry) {
  bool Wrote = false;
  if (!Dir.empty() && ensureDirExists(Dir)) {
    // Failures are non-fatal: the entry still serves from memory, and
    // the next cold run will simply re-store it.
    Wrote = atomicWriteFile(entryPath(Key), serializeCacheEntry(Key, Entry));
  }
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Wrote && MaxBytes != 0)
    evictOverBudget(entryFileName(Key));
  Memory[Key.hex()] = std::move(Entry);
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
