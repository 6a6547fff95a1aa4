//===-- models/Dypro.cpp - DYPRO dynamic-only baseline ---------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "models/Dypro.h"

#include "models/Inference.h"

using namespace liger;

void liger::addVariableNamesToVocabulary(const MethodSample &Sample,
                                         Vocabulary &Vocab) {
  for (const std::string &Name : Sample.Traces.VarNames)
    Vocab.add(Name);
}

DyproEncoder::DyproEncoder(ParamStore &Store, const Vocabulary &V,
                           const DyproConfig &Cfg, Rng &R)
    : Config(Cfg), Vocab(V),
      Embed(Store, "dypro.embed", V.size(), Cfg.EmbedDim, R),
      F1(Store, "dypro.f1", Cfg.EmbedDim, Cfg.EmbedDim, R),
      F2(Store, "dypro.f2", 2 * Cfg.EmbedDim, Cfg.Hidden, R),
      Trace(Store, "dypro.trace", Cfg.Hidden, Cfg.Hidden, R), ValueIds(V) {}

Var DyproEncoder::tokenEmbed(int Id, EncodeContext &Ctx) const {
  Var &E = Ctx.Tokens[Id];
  if (!E)
    E = Embed.lookup(Id);
  return E;
}

Var DyproEncoder::embedState(const ProgramState &State,
                             const std::vector<int> &NameIds,
                             EncodeContext &Ctx) const {
  std::vector<Var> VarEmbeds;
  VarEmbeds.reserve(State.Values.size());
  for (size_t I = 0; I < State.Values.size(); ++I) {
    const Value &V = State.Values[I];
    Var ValueEmbed;
    if (V.isArray() || V.isStruct()) {
      ValueIds.objectIds(V, Ctx.LeafIds);
      std::vector<Var> Inputs;
      for (int Id : Ctx.LeafIds)
        Inputs.push_back(tokenEmbed(Id, Ctx));
      ValueEmbed = F1.run(Inputs).back();
    } else {
      ValueEmbed = tokenEmbed(ValueIds.id(V), Ctx);
    }
    Var NameEmbed = I < NameIds.size()
                        ? tokenEmbed(NameIds[I], Ctx)
                        : constant(Tensor::zeros(Config.EmbedDim));
    VarEmbeds.push_back(concat(NameEmbed, ValueEmbed));
  }
  if (VarEmbeds.empty())
    return constant(Tensor::zeros(Config.Hidden));
  return F2.run(VarEmbeds).back();
}

GraphEncoding DyproEncoder::encode(const MethodTraces &Traces) const {
  std::vector<int> NameIds;
  NameIds.reserve(Traces.VarNames.size());
  for (const std::string &Name : Traces.VarNames)
    NameIds.push_back(Vocab.lookup(Name));
  EncodeContext Ctx;
  GraphEncoding Out;
  std::vector<Var> TraceEmbeddings;
  size_t Consumed = 0;

  for (const BlendedTrace &Path : Traces.Paths) {
    for (const StateTrace &States : Path.Concrete) {
      if (Consumed >= Config.MaxTraces)
        break;
      ++Consumed;
      Var S = Trace.initial();
      size_t Steps =
          std::min(States.States.size(), Config.MaxStatesPerTrace);
      bool Stepped = false;
      for (size_t J = 0; J < Steps; ++J) {
        if (States.States[J].Values.empty())
          continue;
        Var StateVec = embedState(States.States[J], NameIds, Ctx);
        S = Trace.step(StateVec, S);
        Out.Memory.push_back(S);
        Stepped = true;
      }
      if (Stepped)
        TraceEmbeddings.push_back(S);
    }
  }

  if (TraceEmbeddings.empty()) {
    Out.ProgramEmbedding = constant(Tensor::zeros(Config.Hidden));
    Out.Memory.push_back(Out.ProgramEmbedding);
    return Out;
  }
  Out.ProgramEmbedding = maxPool(TraceEmbeddings);

  // Bound the decoder's attention memory (see MaxAttentionMemory).
  if (Out.Memory.size() > Config.MaxAttentionMemory) {
    std::vector<Var> Strided;
    Strided.reserve(Config.MaxAttentionMemory);
    double Step = static_cast<double>(Out.Memory.size()) /
                  static_cast<double>(Config.MaxAttentionMemory);
    for (size_t I = 0; I < Config.MaxAttentionMemory; ++I)
      Strided.push_back(
          Out.Memory[static_cast<size_t>(Step * static_cast<double>(I))]);
    Out.Memory = std::move(Strided);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Heads
//===----------------------------------------------------------------------===//

DyproNamePredictor::DyproNamePredictor(const Vocabulary &Vocab,
                                       const Vocabulary &Target,
                                       const DyproConfig &Config,
                                       uint64_t Seed)
    : InitRng(Seed), Encoder(Store, Vocab, Config, InitRng),
      Decoder(Store, "dypro.dec", SeqDecoderConfig::forModel(Config, Target),
              InitRng),
      TargetVocab(Target) {}

Var DyproNamePredictor::loss(const MethodSample &Sample) const {
  return Decoder.lossBatch(
      {Encoder.encode(Sample.Traces)},
      {nameTargetIds(Sample.NameSubtokens, TargetVocab)})[0];
}

std::vector<std::vector<std::string>>
DyproNamePredictor::predict(const std::vector<MethodSample> &Samples) const {
  return decodeGraphEncodings(
      Store, Decoder, TargetVocab, Samples,
      [&](const MethodSample &Sample) { return Encoder.encode(Sample.Traces); });
}

DyproClassifier::DyproClassifier(const Vocabulary &Vocab, size_t NumClasses,
                                 const DyproConfig &Config, uint64_t Seed)
    : InitRng(Seed), Encoder(Store, Vocab, Config, InitRng),
      Head(Store, "dypro.head", Config.Hidden, NumClasses, InitRng) {}

Var DyproClassifier::loss(const MethodSample &Sample) const {
  LIGER_CHECK(Sample.ClassId >= 0, "classification sample without label");
  GraphEncoding Enc = Encoder.encode(Sample.Traces);
  return Head.softmaxCrossEntropyBatch(
      Enc.ProgramEmbedding, static_cast<size_t>(Sample.ClassId))[0];
}

int DyproClassifier::predict(const MethodSample &Sample) const {
  GraphEncoding Enc = Encoder.encode(Sample.Traces);
  return static_cast<int>(argmax(Head.apply(Enc.ProgramEmbedding)->Value));
}
