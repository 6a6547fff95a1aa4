//===-- models/Liger.cpp - The LIGER blended model -------------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "models/Liger.h"

#include "lang/AstTree.h"

using namespace liger;

//===----------------------------------------------------------------------===//
// LigerEncoder
//===----------------------------------------------------------------------===//

LigerEncoder::LigerEncoder(ParamStore &Store, const Vocabulary &JointVocab,
                           const LigerConfig &Cfg, Rng &R)
    : Config(Cfg), Vocab(JointVocab),
      Embed(Store, "liger.embed", JointVocab.size(), Cfg.EmbedDim, R),
      StmtTree(Store, "liger.stmt_tree", Cfg.EmbedDim, Cfg.Hidden, R),
      F1(Store, "liger.f1", Cfg.Cell, Cfg.EmbedDim, Cfg.EmbedDim, R),
      F2(Store, "liger.f2", Cfg.Cell, Cfg.EmbedDim, Cfg.Hidden, R),
      A1(Store, "liger.a1", Cfg.Hidden, Cfg.Hidden, Cfg.AttnHidden, R),
      F3(Store, "liger.f3", Cfg.Cell, Cfg.Hidden, Cfg.Hidden, R) {
  LIGER_CHECK(Cfg.UseStaticFeature || Cfg.UseDynamicFeature,
              "at least one feature dimension must be enabled");
}

Var LigerEncoder::lookupToken(const std::string &Token,
                              EncodeContext &Ctx) const {
  auto It = Ctx.TokenCache.find(Token);
  if (It != Ctx.TokenCache.end())
    return It->second;
  Var E = Embed.lookup(Vocab.lookup(Token));
  Ctx.TokenCache.emplace(Token, E);
  return E;
}

Var LigerEncoder::embedStatement(const Stmt *S, EncodeContext &Ctx) const {
  auto It = Ctx.StmtCache.find(S);
  if (It != Ctx.StmtCache.end())
    return It->second;
  AstTree Tree = buildStmtHeadTree(S);
  Var H = StmtTree.embed(
      Tree, [&](const std::string &Label) { return lookupToken(Label, Ctx); });
  Ctx.StmtCache.emplace(S, H);
  return H;
}

std::string LigerEncoder::stateKey(
    const ProgramState &State,
    std::vector<std::vector<std::string>> &ValueTokens) const {
  std::string Key;
  ValueTokens.reserve(State.Values.size());
  for (const Value &V : State.Values) {
    bool IsObject = V.isArray() || V.isStruct();
    if (IsObject) {
      std::vector<std::string> Tokens = valueTokens(V);
      if (Tokens.size() > Config.MaxFlattenedValues)
        Tokens.resize(Config.MaxFlattenedValues);
      ValueTokens.push_back(std::move(Tokens));
    } else {
      ValueTokens.push_back({valueToken(V)});
    }
    // The kind tag keeps the key injective: a primitive embeds its
    // token directly while an object runs f1 over its flattening, so
    // int 5 and the one-element array [5] — identical token streams —
    // must not share an entry.
    Key += IsObject ? 'O' : 'P';
    for (const std::string &Token : ValueTokens.back()) {
      Key += Token;
      Key += '\x1f'; // token separator
    }
    Key += '\x1e'; // value separator (tokens can't merge across values)
  }
  return Key;
}

Var LigerEncoder::embedState(const ProgramState &State,
                             EncodeContext &Ctx) const {
  // Equal variable valuations embed identically; key the state by its
  // full token signature so repeated states (loop iterations, shared
  // prefixes across executions) cost one f1/f2 run per encode.
  std::vector<std::vector<std::string>> ValueTokens;
  std::string Key = stateKey(State, ValueTokens);
  auto It = Ctx.StateCache.find(Key);
  if (It != Ctx.StateCache.end())
    return It->second;

  // Per-variable embeddings h'_{v}: primitives embed directly; object
  // (array/struct) values run f1 over their flattened attr sequence
  // (Eq. 3).
  std::vector<Var> VarEmbeds;
  VarEmbeds.reserve(State.Values.size());
  for (size_t I = 0; I < State.Values.size(); ++I) {
    const Value &V = State.Values[I];
    if (V.isArray() || V.isStruct()) {
      std::vector<Var> Inputs;
      Inputs.reserve(ValueTokens[I].size());
      for (const std::string &Token : ValueTokens[I])
        Inputs.push_back(lookupToken(Token, Ctx));
      VarEmbeds.push_back(F1.run(Inputs).back().H);
    } else {
      VarEmbeds.push_back(lookupToken(ValueTokens[I][0], Ctx));
    }
  }
  // f2 folds variable embeddings (fixed variable order) into the state
  // vector.
  Var H = VarEmbeds.empty() ? constant(Tensor::zeros(Config.Hidden))
                            : F2.run(VarEmbeds).back().H;
  Ctx.StateCache.emplace(std::move(Key), H);
  return H;
}

void LigerEncoder::embedStatesBatch(
    std::vector<StateEmbedRequest> &Requests,
    std::unordered_map<std::string, Var> &Cache) const {
  // f1 lanes: one per flattened object value across every request, in
  // request order — the order embedState walks them one state at a
  // time — so every object value of every state shares the lockstep
  // f1 recurrence.
  std::vector<std::vector<Var>> F1Seqs;
  for (StateEmbedRequest &Rq : Requests) {
    for (size_t I = 0; I < Rq.State->Values.size(); ++I) {
      const Value &V = Rq.State->Values[I];
      if (!V.isArray() && !V.isStruct())
        continue;
      std::vector<Var> Inputs;
      Inputs.reserve(Rq.ValueTokens[I].size());
      for (const std::string &Token : Rq.ValueTokens[I])
        Inputs.push_back(lookupToken(Token, *Rq.Ctx));
      F1Seqs.push_back(std::move(Inputs));
    }
  }
  std::vector<RecState> F1Out = runCellLockstep(F1, F1Seqs);

  // f2 lanes: each request's variable sequence (primitives embed
  // directly, object values take their f1 final state).
  std::vector<std::vector<Var>> F2Seqs;
  std::vector<size_t> F2Req;
  size_t F1Lane = 0;
  for (size_t R = 0; R < Requests.size(); ++R) {
    StateEmbedRequest &Rq = Requests[R];
    std::vector<Var> VarEmbeds;
    VarEmbeds.reserve(Rq.State->Values.size());
    for (size_t I = 0; I < Rq.State->Values.size(); ++I) {
      const Value &V = Rq.State->Values[I];
      if (V.isArray() || V.isStruct())
        VarEmbeds.push_back(F1Out[F1Lane++].H);
      else
        VarEmbeds.push_back(lookupToken(Rq.ValueTokens[I][0], *Rq.Ctx));
    }
    if (VarEmbeds.empty()) {
      Cache.emplace(std::move(Rq.Key), constant(Tensor::zeros(Config.Hidden)));
      continue;
    }
    F2Req.push_back(R);
    F2Seqs.push_back(std::move(VarEmbeds));
  }
  std::vector<RecState> F2Out = runCellLockstep(F2, F2Seqs);
  for (size_t K = 0; K < F2Seqs.size(); ++K) {
    StateEmbedRequest &Rq = Requests[F2Req[K]];
    Cache.emplace(std::move(Rq.Key), F2Out[K].H);
  }
}

Var LigerEncoder::fuseStep(const BlendedTrace &Path, size_t J,
                           size_t NumConcrete, Var PrevH, EncodeContext &Ctx,
                           const std::vector<Var> *StateComps) const {
  // Collect the feature vectors of this ordered pair; the statement
  // vector (when enabled) is component 0.
  std::vector<Var> Components;
  if (Config.UseStaticFeature)
    Components.push_back(
        embedStatement(Path.Symbolic.Steps[J].Statement, Ctx));
  if (StateComps) {
    Components.insert(Components.end(), StateComps->begin(),
                      StateComps->end());
  } else {
    for (size_t T = 0; T < NumConcrete; ++T) {
      const StateTrace &States = Path.Concrete[T];
      if (J < States.States.size() && !States.States[J].Values.empty())
        Components.push_back(embedState(States.States[J], Ctx));
    }
  }
  if (Components.empty())
    return nullptr; // dynamic-only config with a state-less step

  bool UniformFirstStep = J == 0; // paper: even weights at step one
  if (Components.size() == 1) {
    if (Ctx.Stats && Config.UseStaticFeature) {
      Ctx.Stats->StaticWeightSum += 1.0;
      ++Ctx.Stats->FusionSteps;
    }
    return Components[0];
  }
  if (!Config.UseFusionAttention || UniformFirstStep) {
    Var Fused = meanPool(Components);
    if (Ctx.Stats && Config.UseStaticFeature) {
      Ctx.Stats->StaticWeightSum +=
          1.0 / static_cast<double>(Components.size());
      ++Ctx.Stats->FusionSteps;
    }
    return Fused;
  }
  // Components change every step, so the key-side projections are
  // prepared fresh here; the win is the fused two-node step (key
  // projection + attention op) replacing the per-pair score chain.
  AttentionScorer::Memory Mem = A1.prepare(Components);
  AttentionScorer::Result Fusion = A1.contextOf(PrevH, Mem);
  if (Ctx.Stats && Config.UseStaticFeature) {
    Ctx.Stats->StaticWeightSum += static_cast<double>(Fusion.Weights[0]);
    ++Ctx.Stats->FusionSteps;
  }
  return Fusion.Context;
}

Var LigerEncoder::encodePath(const BlendedTrace &Path, EncodeContext &Ctx,
                             std::vector<Var> &StepMemory) const {
  size_t Steps =
      std::min(Path.Symbolic.Steps.size(), Config.MaxStepsPerTrace);
  size_t NumConcrete = Config.UseDynamicFeature
                           ? std::min(Path.Concrete.size(),
                                      Config.MaxConcretePerPath)
                           : 0;

  RecState Trace = F3.initial();
  Var PrevH = Trace.H; // H^e_{i_0} = 0
  for (size_t J = 0; J < Steps; ++J) {
    Var Fused = fuseStep(Path, J, NumConcrete, PrevH, Ctx);
    if (!Fused)
      continue;
    Trace = F3.step(Fused, Trace);
    PrevH = Trace.H;
    StepMemory.push_back(Trace.H);
  }
  return Trace.H; // H^e_i
}

LigerEncoding LigerEncoder::encode(const MethodTraces &Traces,
                                   FusionStats *Stats) const {
  EncodeContext Ctx;
  Ctx.Stats = Stats;

  std::vector<Var> PathEmbeddings;
  std::vector<Var> StepMemory;
  for (const BlendedTrace &Path : Traces.Paths) {
    if (!Config.UseDynamicFeature && Path.Symbolic.Steps.empty())
      continue;
    if (Config.UseDynamicFeature && !Config.UseStaticFeature &&
        Path.Concrete.empty())
      continue;
    PathEmbeddings.push_back(encodePath(Path, Ctx, StepMemory));
  }

  LigerEncoding Out;
  if (PathEmbeddings.empty()) {
    Out.ProgramEmbedding = constant(Tensor::zeros(Config.Hidden));
    Out.StepMemory.push_back(Out.ProgramEmbedding);
    return Out;
  }
  Out.ProgramEmbedding = Config.MeanPoolPrograms
                             ? meanPool(PathEmbeddings)
                             : maxPool(PathEmbeddings);
  if (StepMemory.empty())
    StepMemory.push_back(Out.ProgramEmbedding);
  Out.StepMemory = std::move(StepMemory);
  return Out;
}

std::vector<LigerEncoding> LigerEncoder::encodeBatch(
    const std::vector<const MethodTraces *> &Batch) const {
  size_t B = Batch.size();
  // Statement and token caches never cross samples. State embeddings
  // DO share one batch-scoped cache: the kind-tagged state key is
  // injective and f1/f2 are deterministic functions of the key's token
  // sequences and the parameters, so a state revisited by another
  // sample reuses a node with bitwise-identical value — per-sample
  // loss values match encode(). Gradient flow through a shared node
  // merges where per-sample caches would duplicate it, which only the
  // (already order-sensitive) batched gradient accumulation can
  // observe.
  std::vector<EncodeContext> Ctxs(B);
  std::unordered_map<std::string, Var> BatchStateCache;

  // One lane per eligible blended trace, in sample-major order.
  struct Lane {
    size_t Sample;
    const BlendedTrace *Path;
    size_t Steps;
    size_t NumConcrete;
    RecState Trace;
    Var PrevH;
    std::vector<Var> Memory;
  };
  std::vector<Lane> Lanes;
  size_t MaxSteps = 0;
  for (size_t S = 0; S < B; ++S) {
    for (const BlendedTrace &Path : Batch[S]->Paths) {
      if (!Config.UseDynamicFeature && Path.Symbolic.Steps.empty())
        continue;
      if (Config.UseDynamicFeature && !Config.UseStaticFeature &&
          Path.Concrete.empty())
        continue;
      Lane L;
      L.Sample = S;
      L.Path = &Path;
      L.Steps =
          std::min(Path.Symbolic.Steps.size(), Config.MaxStepsPerTrace);
      L.NumConcrete = Config.UseDynamicFeature
                          ? std::min(Path.Concrete.size(),
                                     Config.MaxConcretePerPath)
                          : 0;
      L.Trace = F3.initial();
      L.PrevH = L.Trace.H;
      MaxSteps = std::max(MaxSteps, L.Steps);
      Lanes.push_back(std::move(L));
    }
  }

  // Timestep-major lockstep: each round fuses every live lane's step-J
  // components per lane, then advances all lanes with a fused input
  // through one batched F3 step.
  struct PendingSlot {
    size_t LaneIdx;
    size_t CompIdx;
    std::string Key;
  };
  std::vector<std::vector<Var>> LaneStates(Lanes.size());
  std::vector<StateEmbedRequest> Requests;
  std::vector<PendingSlot> Pending;
  std::vector<size_t> Active;
  std::vector<Var> Ins;
  std::vector<RecState> PrevStates;
  for (size_t J = 0; J < MaxSteps; ++J) {
    // Resolve the round's state components up front: cached states
    // fill their lane slots directly, the rest are gathered (deduped
    // across the batch) and embedded through lockstep-batched f1/f2
    // runs, then patched into the slots they came from.
    for (std::vector<Var> &Slots : LaneStates)
      Slots.clear();
    Requests.clear();
    Pending.clear();
    for (size_t Li = 0; Li < Lanes.size(); ++Li) {
      Lane &L = Lanes[Li];
      if (J >= L.Steps)
        continue;
      EncodeContext &Ctx = Ctxs[L.Sample];
      for (size_t T = 0; T < L.NumConcrete; ++T) {
        const StateTrace &States = L.Path->Concrete[T];
        if (J >= States.States.size() || States.States[J].Values.empty())
          continue;
        StateEmbedRequest Rq;
        Rq.Ctx = &Ctx;
        Rq.State = &States.States[J];
        Rq.Key = stateKey(*Rq.State, Rq.ValueTokens);
        auto It = BatchStateCache.find(Rq.Key);
        if (It != BatchStateCache.end()) {
          LaneStates[Li].push_back(It->second);
          continue;
        }
        LaneStates[Li].push_back(nullptr);
        Pending.push_back({Li, LaneStates[Li].size() - 1, Rq.Key});
        bool Queued = false;
        for (const StateEmbedRequest &Prev : Requests)
          Queued |= Prev.Key == Rq.Key;
        if (!Queued)
          Requests.push_back(std::move(Rq));
      }
    }
    if (!Requests.empty())
      embedStatesBatch(Requests, BatchStateCache);
    for (PendingSlot &Slot : Pending)
      LaneStates[Slot.LaneIdx][Slot.CompIdx] = BatchStateCache.at(Slot.Key);

    Active.clear();
    Ins.clear();
    PrevStates.clear();
    for (size_t Li = 0; Li < Lanes.size(); ++Li) {
      Lane &L = Lanes[Li];
      if (J >= L.Steps)
        continue;
      Var Fused = fuseStep(*L.Path, J, L.NumConcrete, L.PrevH,
                           Ctxs[L.Sample], &LaneStates[Li]);
      if (!Fused)
        continue;
      Active.push_back(Li);
      Ins.push_back(Fused);
      PrevStates.push_back(L.Trace);
    }
    if (Active.empty())
      continue;
    std::vector<RecState> Next = F3.stepBatch(Ins, PrevStates);
    for (size_t K = 0; K < Active.size(); ++K) {
      Lane &L = Lanes[Active[K]];
      L.Trace = Next[K];
      L.PrevH = Next[K].H;
      L.Memory.push_back(Next[K].H);
    }
  }

  // Per-sample assembly in encode()'s path-major order.
  std::vector<LigerEncoding> Out(B);
  std::vector<std::vector<Var>> PathEmbeds(B);
  for (Lane &L : Lanes) {
    PathEmbeds[L.Sample].push_back(L.Trace.H);
    Out[L.Sample].StepMemory.insert(Out[L.Sample].StepMemory.end(),
                                    L.Memory.begin(), L.Memory.end());
  }
  for (size_t S = 0; S < B; ++S) {
    if (PathEmbeds[S].empty()) {
      Out[S].ProgramEmbedding = constant(Tensor::zeros(Config.Hidden));
      Out[S].StepMemory.assign(1, Out[S].ProgramEmbedding);
      continue;
    }
    Out[S].ProgramEmbedding = Config.MeanPoolPrograms
                                  ? meanPool(PathEmbeds[S])
                                  : maxPool(PathEmbeds[S]);
    if (Out[S].StepMemory.empty())
      Out[S].StepMemory.push_back(Out[S].ProgramEmbedding);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// LigerNamePredictor
//===----------------------------------------------------------------------===//

namespace {

SeqDecoderConfig decoderConfig(const LigerConfig &Cfg,
                               size_t TargetVocabSize) {
  SeqDecoderConfig DC;
  DC.TargetVocabSize = TargetVocabSize;
  DC.EmbedDim = Cfg.EmbedDim;
  DC.Hidden = Cfg.Hidden;
  DC.AttnHidden = Cfg.AttnHidden;
  DC.MemoryDim = Cfg.Hidden;
  DC.InitDim = Cfg.Hidden;
  DC.Cell = Cfg.Cell;
  return DC;
}

} // namespace

LigerNamePredictor::LigerNamePredictor(const Vocabulary &JointVocab,
                                       const Vocabulary &Target,
                                       const LigerConfig &Config,
                                       uint64_t Seed)
    : InitRng(Seed), Encoder(Store, JointVocab, Config, InitRng),
      Decoder(Store, "liger.dec",
              decoderConfig(Config, static_cast<size_t>(Target.size())),
              InitRng),
      TargetVocab(Target) {}

Var LigerNamePredictor::loss(const MethodSample &Sample) const {
  LigerEncoding Enc = Encoder.encode(Sample.Traces);
  std::vector<int> Targets =
      nameTargetIds(Sample.NameSubtokens, TargetVocab);
  return Decoder.loss(Enc.ProgramEmbedding, Enc.StepMemory, Targets);
}

std::vector<Var> LigerNamePredictor::lossBatch(
    const std::vector<const MethodSample *> &Samples) const {
  std::vector<Var> Embs;
  std::vector<std::vector<Var>> Mems;
  std::vector<std::vector<int>> Targets;
  Embs.reserve(Samples.size());
  Mems.reserve(Samples.size());
  Targets.reserve(Samples.size());
  std::vector<const MethodTraces *> Traces;
  Traces.reserve(Samples.size());
  for (const MethodSample *Sample : Samples) {
    Traces.push_back(&Sample->Traces);
    Targets.push_back(nameTargetIds(Sample->NameSubtokens, TargetVocab));
  }
  // Lockstep-batched encode: all samples' blended traces advance their
  // F3 recurrences together, so same-timestep lanes share one batched
  // cell step exactly as the decoder loop below does.
  std::vector<LigerEncoding> Encs = Encoder.encodeBatch(Traces);
  for (LigerEncoding &Enc : Encs) {
    Embs.push_back(Enc.ProgramEmbedding);
    Mems.push_back(std::move(Enc.StepMemory));
  }
  return Decoder.lossBatch(Embs, Mems, Targets);
}

std::vector<std::string>
LigerNamePredictor::predict(const MethodSample &Sample,
                            FusionStats *Stats) const {
  LigerEncoding Enc = Encoder.encode(Sample.Traces, Stats);
  std::vector<int> Ids =
      Decoder.decodeGreedy(Enc.ProgramEmbedding, Enc.StepMemory,
                           Encoder.config().MaxDecodeLen);
  return idsToSubtokens(Ids, TargetVocab);
}

//===----------------------------------------------------------------------===//
// LigerClassifier
//===----------------------------------------------------------------------===//

LigerClassifier::LigerClassifier(const Vocabulary &JointVocab,
                                 size_t NumClasses, const LigerConfig &Config,
                                 uint64_t Seed)
    : InitRng(Seed), Encoder(Store, JointVocab, Config, InitRng),
      Head(Store, "liger.head", Config.Hidden, NumClasses, InitRng) {}

Var LigerClassifier::loss(const MethodSample &Sample) const {
  LIGER_CHECK(Sample.ClassId >= 0, "classification sample without label");
  LigerEncoding Enc = Encoder.encode(Sample.Traces);
  return softmaxCrossEntropy(Head.apply(Enc.ProgramEmbedding),
                             static_cast<size_t>(Sample.ClassId));
}

int LigerClassifier::predict(const MethodSample &Sample) const {
  LigerEncoding Enc = Encoder.encode(Sample.Traces);
  return static_cast<int>(argmax(Head.apply(Enc.ProgramEmbedding)->Value));
}

Tensor LigerClassifier::embed(const MethodTraces &Traces) const {
  return Encoder.encode(Traces).ProgramEmbedding->Value;
}
