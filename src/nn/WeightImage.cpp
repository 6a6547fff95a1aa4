//===-- nn/WeightImage.cpp - Immutable serving weight image ----------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "nn/WeightImage.h"

#include "nn/Module.h"
#include "support/BinaryIO.h"
#include "support/Error.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace liger;

namespace {

// Hard caps for the bounded reader: far above anything the models
// produce, far below anything that could over-allocate on hostile
// counts before sizes are validated against the file length.
constexpr uint64_t MaxEntries = 1u << 20;
constexpr uint64_t MaxNameLen = 1u << 12;
constexpr uint64_t MaxDim = 1u << 28;

/// File-offset alignment of the float payload (v2). 64 bytes keeps
/// mapped tensors cache-line aligned (mmap bases are page-aligned, so
/// payload alignment within the file is payload alignment in memory).
constexpr uint64_t PayloadAlign = 64;

void fail(std::string *Error, const std::string &Msg) {
  if (Error)
    *Error = Msg;
}

/// Parses and validates everything up to (but not including) the float
/// payload: magic, version, the entry table, the float count, and the
/// alignment pad. On success the reader is positioned at the first
/// payload byte and \p NumFloats bytes of floats plus the digest
/// trailer are known to fit in what remains.
bool parseImageHeader(ByteReader &R, std::vector<WeightImage::Entry> &Entries,
                      uint64_t &NumFloats, const std::string &Path,
                      std::string *Error) {
  uint32_t Magic = 0, Ver = 0;
  if (!R.readU32(Magic) || Magic != WeightImageMagic)
    return fail(Error, "weight image: bad magic in " + Path), false;
  if (!R.readU32(Ver) || Ver != WeightImageVersion)
    return fail(Error, "weight image: unsupported version in " + Path), false;

  uint64_t NumEntries = 0;
  if (!R.readU64(NumEntries) || NumEntries > MaxEntries)
    return fail(Error, "weight image: bad entry count in " + Path), false;

  Entries.clear();
  Entries.reserve(static_cast<size_t>(NumEntries));
  uint64_t ExpectFloats = 0;
  for (uint64_t I = 0; I < NumEntries; ++I) {
    WeightImage::Entry E;
    if (!R.readString(E.Name, MaxNameLen))
      return fail(Error, "weight image: bad tensor name in " + Path), false;
    uint64_t D0 = 0, D1 = 0;
    if (!R.readU32(E.Rank) || (E.Rank != 1 && E.Rank != 2) ||
        !R.readU64(D0) || !R.readU64(D1) || D0 == 0 || D1 == 0 ||
        D0 > MaxDim || D1 > MaxDim || (E.Rank == 1 && D1 != 1))
      return fail(Error, "weight image: bad tensor shape in " + Path), false;
    E.Dims[0] = static_cast<size_t>(D0);
    E.Dims[1] = static_cast<size_t>(D1);
    E.Size = E.Dims[0] * E.Dims[1];
    E.Offset = static_cast<size_t>(ExpectFloats);
    ExpectFloats += E.Size;
    // Each float needs 4 bytes still unread; rejects dim products that
    // could not possibly fit in the file before any allocation.
    if (ExpectFloats * sizeof(float) > R.remaining())
      return fail(Error, "weight image: truncated data in " + Path), false;
    Entries.push_back(std::move(E));
  }

  if (!R.readU64(NumFloats) || NumFloats != ExpectFloats)
    return fail(Error, "weight image: data count mismatch in " + Path), false;
  // Consume the writer's pad up to the aligned payload offset —
  // derived from position, so reader and writer can never disagree.
  // Pad bytes must be zero: they sit outside the content digest, and
  // rejecting nonzero pad keeps "no byte of the file is ignorable".
  uint64_t Pad = (PayloadAlign - R.position() % PayloadAlign) % PayloadAlign;
  char PadBuf[PayloadAlign] = {};
  if (Pad != 0 && !R.readBytes(PadBuf, static_cast<size_t>(Pad)))
    return fail(Error, "weight image: truncated data in " + Path), false;
  for (uint64_t I = 0; I < Pad; ++I)
    if (PadBuf[I] != 0)
      return fail(Error, "weight image: bad payload padding in " + Path),
             false;
  if (NumFloats * sizeof(float) + 2 * sizeof(uint64_t) > R.remaining())
    return fail(Error, "weight image: truncated data in " + Path), false;
  return true;
}

} // namespace

void WeightImage::finalize() {
  Index.clear();
  Index.reserve(Entries.size());
  StableHash H;
  H.addU32(WeightImageMagic);
  H.addU32(WeightImageVersion);
  H.addU64(Entries.size());
  for (size_t I = 0; I < Entries.size(); ++I) {
    const Entry &E = Entries[I];
    Index.emplace(E.Name, I);
    H.addString(E.Name);
    H.addU32(E.Rank);
    H.addU64(E.Dims[0]);
    H.addU64(E.Dims[1]);
  }
  H.addU64(totalScalars());
  H.addBytes(floats(), totalScalars() * sizeof(float));
  Version = H.digest128();
}

WeightImage WeightImage::fromStore(const ParamStore &Store) {
  WeightImage Img;
  const std::vector<Var> &Params = Store.params();
  const std::vector<std::string> &Names = Store.names();
  Img.Entries.reserve(Params.size());
  Img.Data.reserve(Store.numScalars());
  for (size_t I = 0; I < Params.size(); ++I) {
    const Tensor &T = Params[I]->Value;
    Entry E;
    E.Name = Names[I];
    E.Rank = static_cast<uint32_t>(T.rank());
    E.Dims[0] = T.dim(0);
    E.Dims[1] = T.rank() == 2 ? T.dim(1) : 1;
    E.Offset = Img.Data.size();
    E.Size = T.size();
    Img.Entries.push_back(std::move(E));
    Img.Data.insert(Img.Data.end(), T.data(), T.data() + T.size());
  }
  Img.finalize();
  return Img;
}

const WeightImage::Entry *WeightImage::find(const std::string &Name) const {
  auto It = Index.find(Name);
  return It == Index.end() ? nullptr : &Entries[It->second];
}

const float *WeightImage::tensor2d(const std::string &Name, size_t Rows,
                                   size_t Cols) const {
  const Entry *E = find(Name);
  LIGER_CHECK(E, "weight image: missing tensor");
  LIGER_CHECK(E->Rank == 2 && E->Dims[0] == Rows && E->Dims[1] == Cols,
              "weight image: tensor shape mismatch");
  return floats() + E->Offset;
}

const float *WeightImage::tensor1d(const std::string &Name, size_t N) const {
  const Entry *E = find(Name);
  LIGER_CHECK(E, "weight image: missing tensor");
  LIGER_CHECK(E->Size == N, "weight image: tensor size mismatch");
  return floats() + E->Offset;
}

bool WeightImage::save(const std::string &Path, std::string *Error) const {
  ByteWriter W;
  W.writeU32(WeightImageMagic);
  W.writeU32(WeightImageVersion);
  W.writeU64(Entries.size());
  for (const Entry &E : Entries) {
    W.writeString(E.Name);
    W.writeU32(E.Rank);
    W.writeU64(E.Dims[0]);
    W.writeU64(E.Dims[1]);
  }
  W.writeU64(totalScalars());
  // Zero pad to the aligned payload offset (see PayloadAlign).
  static const char Zeros[PayloadAlign] = {};
  W.writeBytes(Zeros, static_cast<size_t>(
                          (PayloadAlign - W.size() % PayloadAlign) %
                          PayloadAlign));
  W.writeFloats(floats(), totalScalars());
  // Content digest trailer: load()/map() recompute it over the decoded
  // image, so any in-body bit flip is caught even when the flipped
  // bytes still parse.
  W.writeU64(Version.Lo);
  W.writeU64(Version.Hi);
  return atomicWriteFile(Path, W.bytes(), Error);
}

bool WeightImage::load(const std::string &Path, WeightImage &Out,
                       std::string *Error) {
  std::string Bytes;
  if (readWholeFile(Path, UINT64_MAX, Bytes) != ReadResult::Ok)
    return fail(Error, "weight image: cannot open " + Path), false;
  ByteReader R(Bytes);

  // Stage into a local image so a malformed tail never half-fills Out.
  WeightImage Img;
  uint64_t NumFloats = 0;
  if (!parseImageHeader(R, Img.Entries, NumFloats, Path, Error))
    return false;
  Img.Data.resize(static_cast<size_t>(NumFloats));
  if (!R.readFloats(Img.Data.data(), Img.Data.size()))
    return fail(Error, "weight image: truncated data in " + Path), false;

  Digest128 Stored;
  if (!R.readU64(Stored.Lo) || !R.readU64(Stored.Hi))
    return fail(Error, "weight image: missing digest in " + Path), false;

  Img.finalize();
  if (Img.Version != Stored)
    return fail(Error, "weight image: content digest mismatch in " + Path),
           false;

  Out = std::move(Img);
  return true;
}

bool WeightImage::map(const std::string &Path, WeightImage &Out,
                      std::string *Error) {
  // Syscall-level failures (no such FS support, exotic mounts) fall
  // back to the buffered reader; validation failures do not — load()
  // would reject the same bytes again.
  int FD = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (FD < 0)
    return load(Path, Out, Error);
  struct stat St;
  if (::fstat(FD, &St) != 0 || !S_ISREG(St.st_mode) || St.st_size <= 0) {
    ::close(FD);
    return load(Path, Out, Error);
  }
  size_t Size = static_cast<size_t>(St.st_size);
  void *Raw = ::mmap(nullptr, Size, PROT_READ, MAP_PRIVATE, FD, 0);
  ::close(FD); // The mapping outlives the descriptor.
  if (Raw == MAP_FAILED)
    return load(Path, Out, Error);
  std::shared_ptr<const void> Mapping(
      static_cast<const void *>(Raw),
      [Size](const void *P) { ::munmap(const_cast<void *>(P), Size); });

  const char *Bytes = static_cast<const char *>(Raw);
  ByteReader R(Bytes, Size);
  WeightImage Img;
  uint64_t NumFloats = 0;
  if (!parseImageHeader(R, Img.Entries, NumFloats, Path, Error))
    return false;
  // parseImageHeader landed the reader on the aligned payload byte.
  Img.Base = reinterpret_cast<const float *>(Bytes + R.position());
  Img.MappedFloats = static_cast<size_t>(NumFloats);
  Img.Mapping = std::move(Mapping);
  if (!R.skip(NumFloats * sizeof(float)))
    return fail(Error, "weight image: truncated data in " + Path), false;

  Digest128 Stored;
  if (!R.readU64(Stored.Lo) || !R.readU64(Stored.Hi))
    return fail(Error, "weight image: missing digest in " + Path), false;

  Img.finalize();
  if (Img.Version != Stored)
    return fail(Error, "weight image: content digest mismatch in " + Path),
           false;

  Out = std::move(Img);
  return true;
}
