//===-- nn/Checkpoint.cpp - Versioned training checkpoints ----------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "nn/Checkpoint.h"

#include "support/BinaryIO.h"

#include <unordered_map>

using namespace liger;

namespace {

constexpr uint32_t TagParams = tagOf('P', 'R', 'M', 'S');
constexpr uint32_t TagAdam = tagOf('A', 'D', 'A', 'M');
constexpr uint32_t TagRng = tagOf('R', 'N', 'G', 'S');
constexpr uint32_t TagTrainer = tagOf('T', 'R', 'N', 'R');

/// Longest parameter name the reader accepts; real names are short
/// ("liger.dec.cell.Wx"), so anything bigger marks corruption.
constexpr uint64_t MaxNameLen = 4096;
/// Sanity bound on the header's section count.
constexpr uint32_t MaxSections = 64;

void setError(std::string *Error, const std::string &Msg) {
  if (Error)
    *Error = Msg;
}

// Each section writer below writes its whole section in place: tag,
// length, payload.

void writeParams(ByteWriter &W, const ParamStore &Store) {
  size_t LengthAt = W.beginSection(TagParams);
  W.writeU64(Store.params().size());
  for (size_t I = 0; I < Store.params().size(); ++I) {
    const Tensor &T = Store.params()[I]->Value;
    W.writeString(Store.names()[I]);
    W.writeU64(T.rank());
    for (size_t D = 0; D < T.rank(); ++D)
      W.writeU64(T.dim(D));
    W.writeFloats(T.data(), T.size());
  }
  W.endSection(LengthAt);
}

void writeAdam(ByteWriter &W, const ParamStore &Store, const Adam &Opt) {
  size_t LengthAt = W.beginSection(TagAdam);
  W.writeU64(Opt.stepCount());
  W.writeU64(Store.params().size());
  for (size_t I = 0; I < Store.params().size(); ++I) {
    W.writeFloats(Opt.firstMoments()[I].data(), Opt.firstMoments()[I].size());
    W.writeFloats(Opt.secondMoments()[I].data(),
                  Opt.secondMoments()[I].size());
  }
  W.endSection(LengthAt);
}

void writeRng(ByteWriter &W, const TrainerState &TS) {
  size_t LengthAt = W.beginSection(TagRng);
  for (uint64_t Word : TS.RngState)
    W.writeU64(Word);
  W.endSection(LengthAt);
}

void writeTrainer(ByteWriter &W, const TrainerState &TS) {
  size_t LengthAt = W.beginSection(TagTrainer);
  W.writeU64(TS.NextEpoch);
  W.writeU64(TS.BestEpoch);
  W.writeF64(TS.BestValidScore);
  W.writeF64(TS.FinalTrainLoss);
  W.writeU8(TS.HasBest ? 1 : 0);
  if (TS.HasBest) {
    W.writeU64(TS.BestParams.size());
    for (const Tensor &T : TS.BestParams)
      W.writeFloats(T.data(), T.size());
  }
  W.endSection(LengthAt);
}

/// Reads a list of raw tensor blobs laid out like the parameter
/// section: \p Entries holds the store index of each of its tensors,
/// in file order (the optimizer and best-snapshot blob lists carry no
/// names of their own). Shapes are dictated by the store's resolution
/// of the parameter section (never by the file — corrupt counts cannot
/// over-allocate); \p Out gets one tensor per store parameter.
bool readTensorBlobList(ByteReader &R, const ParamStore &Store,
                        const std::vector<size_t> &Entries,
                        std::vector<Tensor> &Out, const char *What,
                        std::string *Error) {
  uint64_t Count = 0;
  if (!R.readU64(Count) || Count != Entries.size()) {
    setError(Error, std::string("checkpoint ") + What + " block has " +
                        std::to_string(Count) + " tensors, expected " +
                        std::to_string(Entries.size()));
    return false;
  }
  Out.clear();
  Out.reserve(Store.params().size());
  for (const Var &P : Store.params())
    Out.push_back(Tensor::zerosLike(P->Value));
  for (size_t P : Entries) {
    if (!R.readFloats(Out[P].data(), Out[P].size())) {
      setError(Error, std::string("checkpoint truncated inside ") + What +
                          " block");
      return false;
    }
  }
  return true;
}

} // namespace

bool liger::saveCheckpoint(const std::string &Path, const ParamStore &Params,
                           const Adam *Opt, const TrainerState *Trainer,
                           std::string *Error) {
  if (Trainer && Trainer->HasBest &&
      Trainer->BestParams.size() != Params.params().size()) {
    setError(Error, "trainer best-snapshot size does not match the store");
    return false;
  }
  ByteWriter W;
  W.writeU32(CheckpointMagic);
  W.writeU32(CheckpointVersion);
  W.writeU32(1 + (Opt ? 1 : 0) + (Trainer ? 2 : 0)); // section count
  W.writeU32(0);                                     // reserved
  writeParams(W, Params);
  if (Opt)
    writeAdam(W, Params, *Opt);
  if (Trainer) {
    writeRng(W, *Trainer);
    writeTrainer(W, *Trainer);
  }
  return atomicWriteFile(Path, W.bytes(), Error);
}

bool liger::loadCheckpoint(const std::string &Path, ParamStore &Params,
                           Adam *Opt, TrainerState *Trainer,
                           std::string *Error) {
  // One read of the whole file: the parse below sees one snapshot even
  // when a concurrent save atomically replaces the path.
  std::string Bytes;
  if (readWholeFile(Path, UINT64_MAX, Bytes) != ReadResult::Ok) {
    setError(Error, "cannot open checkpoint " + Path);
    return false;
  }
  ByteReader R(Bytes);
  auto Fail = [&](const std::string &Msg) {
    setError(Error, Msg + " (" + Path + ")");
    return false;
  };

  // Header.
  uint32_t Magic = 0, Version = 0, NumSections = 0, Reserved = 0;
  if (!R.readU32(Magic) || !R.readU32(Version) || !R.readU32(NumSections) ||
      !R.readU32(Reserved))
    return Fail("checkpoint too short for the LGCK header");
  if (Magic != CheckpointMagic)
    return Fail("not a LIGER checkpoint (bad magic)");
  if (Version != CheckpointVersion)
    return Fail("unsupported checkpoint format version " +
                std::to_string(Version) + " (expected " +
                std::to_string(CheckpointVersion) + ")");
  if (NumSections > MaxSections)
    return Fail("implausible section count " + std::to_string(NumSections));

  // Resolve names against the store. The file never dictates a size or
  // destination the store did not declare.
  std::unordered_map<std::string, size_t> Resolver;
  for (size_t I = 0; I < Params.params().size(); ++I)
    Resolver.emplace(Params.names()[I], I);

  // Stage everything; nothing caller-visible mutates until the whole
  // file has validated.
  std::vector<Tensor> StagedParams;
  std::vector<size_t> Entries; ///< Parameter-section tensors, file order.
  uint64_t StagedStep = 0;
  std::vector<Tensor> StagedM, StagedV;
  TrainerState StagedTrainer;
  bool SawParams = false, SawAdam = false, SawRng = false,
       SawTrainer = false;

  for (uint32_t S = 0; S < NumSections; ++S) {
    uint32_t Tag = 0;
    uint64_t Len = 0;
    if (!R.readU32(Tag) || !R.readU64(Len))
      return Fail("checkpoint truncated in the section directory");
    if (Len > R.remaining())
      return Fail("section payload extends past end of file");
    uint64_t Before = R.remaining();

    if (Tag == TagParams) {
      // Each entry must name a store parameter not seen before, so the
      // loop below fails by the entry after the store's last parameter
      // whatever Count says.
      uint64_t Count = 0;
      if (!R.readU64(Count))
        return Fail("checkpoint truncated in the parameter section");
      StagedParams.clear();
      StagedParams.reserve(Params.params().size());
      for (const Var &P : Params.params())
        StagedParams.push_back(Tensor::zerosLike(P->Value));
      Entries.clear();
      std::vector<bool> Covered(Params.params().size(), false);
      for (uint64_t I = 0; I < Count; ++I) {
        std::string Name;
        if (!R.readString(Name, MaxNameLen))
          return Fail("checkpoint truncated in a parameter name");
        auto It = Resolver.find(Name);
        if (It == Resolver.end())
          return Fail("checkpoint parameter '" + Name +
                      "' does not match any store parameter");
        size_t P = It->second;
        if (Covered[P])
          return Fail("parameter '" + Name + "' appears twice");
        Covered[P] = true;
        Tensor &Staged = StagedParams[P];
        uint64_t Rank = 0;
        if (!R.readU64(Rank) || Rank != Staged.rank())
          return Fail("parameter '" + Name + "' has rank " +
                      std::to_string(Rank) + ", store expects " +
                      std::to_string(Staged.rank()));
        for (size_t Dim = 0; Dim < Staged.rank(); ++Dim) {
          uint64_t D = 0;
          if (!R.readU64(D) || D != Staged.dim(Dim))
            return Fail("parameter '" + Name + "' shape mismatch");
        }
        if (!R.readFloats(Staged.data(), Staged.size()))
          return Fail("checkpoint truncated in parameter '" + Name + "'");
        Entries.push_back(P);
      }
      for (size_t I = 0; I < Params.params().size(); ++I)
        if (!Covered[I])
          return Fail("parameter '" + Params.names()[I] +
                      "' is not fully covered by the checkpoint");
      SawParams = true;
    } else if (Tag == TagAdam && Opt) {
      if (!SawParams)
        return Fail("optimizer section precedes the parameter section");
      uint64_t Count = 0;
      if (!R.readU64(StagedStep) || !R.readU64(Count) ||
          Count != Entries.size())
        return Fail("checkpoint optimizer block is malformed");
      StagedM.clear();
      StagedV.clear();
      for (const Var &P : Params.params()) {
        StagedM.push_back(Tensor::zerosLike(P->Value));
        StagedV.push_back(Tensor::zerosLike(P->Value));
      }
      for (size_t P : Entries) {
        if (!R.readFloats(StagedM[P].data(), StagedM[P].size()) ||
            !R.readFloats(StagedV[P].data(), StagedV[P].size()))
          return Fail("checkpoint truncated in the optimizer block");
      }
      SawAdam = true;
    } else if (Tag == TagRng && Trainer) {
      for (uint64_t &Word : StagedTrainer.RngState)
        if (!R.readU64(Word))
          return Fail("checkpoint truncated in the RNG block");
      SawRng = true;
    } else if (Tag == TagTrainer && Trainer) {
      uint8_t HasBest = 0;
      if (!R.readU64(StagedTrainer.NextEpoch) ||
          !R.readU64(StagedTrainer.BestEpoch) ||
          !R.readF64(StagedTrainer.BestValidScore) ||
          !R.readF64(StagedTrainer.FinalTrainLoss) || !R.readU8(HasBest) ||
          HasBest > 1)
        return Fail("checkpoint trainer block is malformed");
      StagedTrainer.HasBest = HasBest == 1;
      if (StagedTrainer.HasBest && !SawParams)
        return Fail("trainer best-snapshot precedes the parameter section");
      if (StagedTrainer.HasBest &&
          !readTensorBlobList(R, Params, Entries, StagedTrainer.BestParams,
                              "best-snapshot", Error))
        return false;
      SawTrainer = true;
    } else {
      // Unknown (or unrequested) section: skip its payload.
      if (!R.skip(Len))
        return Fail("checkpoint truncated in a skipped section");
    }

    if (Before - R.remaining() != Len)
      return Fail("section length disagrees with its contents (corrupt)");
  }

  if (!SawParams) {
    setError(Error, "checkpoint has no parameter section (" + Path + ")");
    return false;
  }
  if (Opt && !SawAdam) {
    setError(Error, "checkpoint has no optimizer state (" + Path + ")");
    return false;
  }
  if (Trainer && (!SawRng || !SawTrainer)) {
    setError(Error, "checkpoint has no trainer/RNG state (" + Path + ")");
    return false;
  }

  // Commit.
  for (size_t I = 0; I < Params.params().size(); ++I)
    Params.params()[I]->Value = std::move(StagedParams[I]);
  if (Opt)
    Opt->setState(StagedStep, std::move(StagedM), std::move(StagedV));
  if (Trainer)
    *Trainer = std::move(StagedTrainer);
  return true;
}
