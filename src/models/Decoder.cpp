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

std::vector<Var>
SeqDecoder::lossBatch(const std::vector<GraphEncoding> &Encs,
                      const std::vector<std::vector<int>> &TargetIds) const {
  size_t B = Encs.size();
  LIGER_CHECK(B > 0 && TargetIds.size() == B,
              "lossBatch needs matching non-empty sample sets");

  // Per-sample validation, initial states, and prepared attention
  // memories, in ascending sample order.
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
