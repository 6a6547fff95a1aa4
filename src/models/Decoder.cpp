//===-- models/Decoder.cpp - Attention sequence decoder -------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "models/Decoder.h"

#include "models/Common.h"

#include <unordered_map>

using namespace liger;

SeqDecoder::SeqDecoder(ParamStore &Store, const std::string &Name,
                       const SeqDecoderConfig &Cfg, Rng &R)
    : Name(Name), Config(Cfg),
      TargetEmbed(Store, Name + ".target_embed", Cfg.TargetVocabSize,
                  Cfg.EmbedDim, R),
      InitProj(Store, Name + ".init", Cfg.InitDim, Cfg.Hidden, R),
      Cell(Store, Name + ".cell", Cfg.EmbedDim + Cfg.MemoryDim, Cfg.Hidden,
           R),
      Attn(Store, Name + ".attn", Cfg.Hidden, Cfg.MemoryDim, Cfg.AttnHidden,
           R),
      OutProj(Store, Name + ".out", Cfg.Hidden + Cfg.MemoryDim,
              Cfg.TargetVocabSize, R) {}

Var SeqDecoder::loss(const GraphEncoding &Enc,
                     const std::vector<int> &TargetIds) const {
  LIGER_CHECK(!Enc.Memory.empty(), "decoder needs a non-empty memory");
  LIGER_CHECK(!TargetIds.empty() && TargetIds.back() == Vocabulary::Eos,
              "targets must end with Eos");
  // Validate every target id once, ahead of the step loop (they feed
  // both the embedding lookups and the cross-entropy targets).
  for (int Id : TargetIds)
    LIGER_CHECK(Id >= 0 &&
                    static_cast<size_t>(Id) < Config.TargetVocabSize,
                "decoder target id out of range");

  Var State = tanhV(InitProj.apply(Enc.ProgramEmbedding));

  // Key-side attention projections: once per decode, shared by every
  // step below.
  AttentionScorer::Memory Mem = Attn.prepare(Enc.Memory);

  // Teacher-forced inputs are [Sos, T_0, ..., T_{n-2}]; hoist the
  // embedding lookups out of the step loop and look each distinct id
  // up once (repeated sub-tokens share one graph node).
  std::vector<Var> Inputs;
  Inputs.reserve(TargetIds.size());
  std::unordered_map<int, Var> EmbedCache;
  int Prev = Vocabulary::Sos;
  for (int Target : TargetIds) {
    Var &Embed = EmbedCache[Prev];
    if (!Embed)
      Embed = TargetEmbed.lookup(Prev);
    Inputs.push_back(Embed);
    Prev = Target; // teacher forcing
  }

  std::vector<Var> Losses;
  Losses.reserve(TargetIds.size());
  for (size_t I = 0; I < TargetIds.size(); ++I) {
    // Attention with the current hidden state as the query
    // (µ_t = a2(H^d_{t-1}, H^e_{i_j})): one fused node per step.
    Var Context = Attn.contextOf(State, Mem).Context;
    State = Cell.step(concat(Inputs[I], Context), State);
    Var Logits = OutProj.apply(concat(State, Context));
    Losses.push_back(
        softmaxCrossEntropy(Logits, static_cast<size_t>(TargetIds[I])));
  }
  return meanLoss(Losses);
}

std::vector<Var>
SeqDecoder::lossBatch(const std::vector<GraphEncoding> &Encs,
                      const std::vector<std::vector<int>> &TargetIds) const {
  size_t B = Encs.size();
  LIGER_CHECK(B > 0 && TargetIds.size() == B,
              "lossBatch needs matching non-empty sample sets");

  // Per-sample validation, initial states, and prepared attention
  // memories, in ascending sample order (the same nodes loss() builds
  // first for each sample).
  std::vector<Var> States(B);
  std::vector<AttentionScorer::Memory> Mems;
  Mems.reserve(B);
  std::vector<size_t> Lens(B);
  for (size_t Bi = 0; Bi < B; ++Bi) {
    LIGER_CHECK(!Encs[Bi].Memory.empty(), "decoder needs a non-empty memory");
    LIGER_CHECK(!TargetIds[Bi].empty() &&
                    TargetIds[Bi].back() == Vocabulary::Eos,
                "targets must end with Eos");
    for (int Id : TargetIds[Bi])
      LIGER_CHECK(Id >= 0 &&
                      static_cast<size_t>(Id) < Config.TargetVocabSize,
                  "decoder target id out of range");
    States[Bi] = tanhV(InitProj.apply(Encs[Bi].ProgramEmbedding));
    Mems.push_back(Attn.prepare(Encs[Bi].Memory));
    Lens[Bi] = TargetIds[Bi].size();
  }

  // Timestep-major walk over the lockstep schedule: each timestep
  // attends every active lane over its own memory in one multi-memory
  // node, advances every lane through one batched cell step, then
  // scores every lane's logits through one batched loss-head node.
  std::vector<std::unordered_map<int, Var>> EmbedCaches(B);
  std::vector<std::vector<Var>> Losses(B);
  for (size_t Bi = 0; Bi < B; ++Bi)
    Losses[Bi].reserve(Lens[Bi]);
  std::vector<std::vector<size_t>> Schedule = lockstepSchedule(Lens);
  for (size_t T = 0; T < Schedule.size(); ++T) {
    const std::vector<size_t> &Active = Schedule[T];
    std::vector<Var> Queries;
    std::vector<const AttentionScorer::Memory *> ActiveMems;
    Queries.reserve(Active.size());
    ActiveMems.reserve(Active.size());
    for (size_t Bi : Active) {
      Queries.push_back(States[Bi]);
      ActiveMems.push_back(&Mems[Bi]);
    }
    std::vector<AttentionScorer::Result> Ctxres =
        Attn.contextOfMultiMemory(Queries, ActiveMems);
    std::vector<Var> Ins, Ctxs;
    std::vector<Var> PrevStates;
    Ins.reserve(Active.size());
    Ctxs.reserve(Active.size());
    PrevStates.reserve(Active.size());
    for (size_t Lane = 0; Lane < Active.size(); ++Lane) {
      size_t Bi = Active[Lane];
      int Prev = T == 0 ? Vocabulary::Sos : TargetIds[Bi][T - 1];
      Var &Embed = EmbedCaches[Bi][Prev];
      if (!Embed)
        Embed = TargetEmbed.lookup(Prev);
      Ins.push_back(concat(Embed, Ctxres[Lane].Context));
      Ctxs.push_back(Ctxres[Lane].Context);
      PrevStates.push_back(States[Bi]);
    }
    std::vector<Var> Next = Cell.stepBatch(Ins, PrevStates);
    std::vector<Var> HeadIns;
    std::vector<size_t> Targets;
    HeadIns.reserve(Active.size());
    Targets.reserve(Active.size());
    for (size_t Lane = 0; Lane < Active.size(); ++Lane) {
      size_t Bi = Active[Lane];
      States[Bi] = Next[Lane];
      HeadIns.push_back(concat(Next[Lane], Ctxs[Lane]));
      Targets.push_back(static_cast<size_t>(TargetIds[Bi][T]));
    }
    std::vector<Var> StepLosses =
        OutProj.softmaxCrossEntropyBatch(HeadIns, Targets);
    for (size_t Lane = 0; Lane < Active.size(); ++Lane)
      Losses[Active[Lane]].push_back(StepLosses[Lane]);
  }

  std::vector<Var> Out;
  Out.reserve(B);
  for (size_t Bi = 0; Bi < B; ++Bi)
    Out.push_back(meanLoss(Losses[Bi]));
  return Out;
}
