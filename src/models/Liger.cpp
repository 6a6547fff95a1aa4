//===-- models/Liger.cpp - The LIGER blended model -------------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "models/Liger.h"

#include "lang/AstTree.h"
#include "models/Inference.h"

using namespace liger;

//===----------------------------------------------------------------------===//
// LigerEncoder
//===----------------------------------------------------------------------===//

LigerEncoder::LigerEncoder(ParamStore &Store, const Vocabulary &JointVocab,
                           const LigerConfig &Cfg, Rng &R)
    : Config(Cfg), Vocab(JointVocab),
      Embed(Store, "liger.embed", JointVocab.size(), Cfg.EmbedDim, R),
      StmtTree(Store, "liger.stmt_tree", Cfg.EmbedDim, Cfg.Hidden, R),
      F1(Store, "liger.f1", Cfg.EmbedDim, Cfg.EmbedDim, R),
      F2(Store, "liger.f2", Cfg.EmbedDim, Cfg.Hidden, R),
      A1(Store, "liger.a1", Cfg.Hidden, Cfg.Hidden, Cfg.AttnHidden, R),
      F3(Store, "liger.f3", Cfg.Hidden, Cfg.Hidden, R),
      ValueIds(JointVocab) {
  LIGER_CHECK(Cfg.UseStaticFeature || Cfg.UseDynamicFeature,
              "at least one feature dimension must be enabled");
}

Var LigerEncoder::tokenEmbed(int Id, SampleCache &Cache) const {
  auto [It, Added] = Cache.Tokens.try_emplace(Id);
  if (Added)
    It->second = Embed.lookup(Id);
  return It->second;
}

Var LigerEncoder::embedStatement(const Stmt *S, SampleCache &Cache) const {
  auto It = Cache.Stmts.find(S);
  if (It != Cache.Stmts.end())
    return It->second;
  Var H = StmtTree.embed(buildStmtHeadTree(S), [&](const std::string &Label) {
    return tokenEmbed(Vocab.lookup(Label), Cache);
  });
  Cache.Stmts.emplace(S, H);
  return H;
}

Var LigerEncoder::fuse(const std::vector<Var> &Components, size_t J,
                       Var PrevH) const {
  if (Components.empty())
    return nullptr; // dynamic-only config with a state-less step
  if (Components.size() == 1)
    return Components[0];
  if (!Config.UseFusionAttention || J == 0) // paper: even weights at step one
    return meanPool(Components);
  // Components change every step, so the key-side projections are
  // prepared fresh here; the win is the fused two-node step (key
  // projection + attention op) replacing the per-pair score chain.
  AttentionScorer::Memory Mem = A1.prepare(Components);
  return A1.contextOf(PrevH, Mem).Context;
}

/// encodeBatch's two-level state embeddings (DESIGN.md §14.2): one
/// StateTrie for the call, with f1's final state per object entry and
/// f2's state per trie node. request() resolves a state to its node and
/// registers every object and edge it lacks; flush() embeds what the
/// round registered — the new objects as the lanes of one lockstep f1
/// run, then the new edges depth by depth, one F2.stepBatch per depth.
/// Entries, nodes and graph nodes are created in request order, which
/// encodeBatch fixes by lane and concrete trace.
///
/// A shared node's value is bitwise what each sharer would compute
/// alone: f1 and f2 read only token-id sequences and the parameters,
/// and a batched cell step is bitwise-identical per lane to step().
class LigerEncoder::BatchStates {
public:
  explicit BatchStates(const LigerEncoder &Enc) : Enc(Enc) {
    NodeStates.push_back(Enc.F2.initial()); // the root, the empty tuple
  }

  /// The trie node of \p State; token embeddings of new objects and
  /// edges come from \p Cache, the requesting sample's.
  uint32_t request(const ProgramState &State, SampleCache &Cache) {
    uint32_t Node = StateTrie::Root;
    for (size_t I = 0; I < State.Values.size(); ++I) {
      const Value &V = State.Values[I];
      uint64_t Component = V.isArray() || V.isStruct()
                               ? StateTrie::object(objectEntry(V, Cache))
                               : StateTrie::primitive(Enc.ValueIds.id(V));
      uint32_t Child = Trie.child(Node, Component);
      if (Child == StateTrie::None) {
        Child = Trie.addChild(Node, Component);
        NodeStates.emplace_back(); // set by the next flush
        if (NewEdges.size() <= I)
          NewEdges.resize(I + 1);
        NewEdges[I].push_back({Child, Node, Component, &Cache});
      }
      Node = Child;
    }
    return Node;
  }

  /// Embeds every object and edge registered since the last flush.
  void flush() {
    if (!NewObjects.empty()) {
      std::vector<std::vector<Var>> Seqs;
      Seqs.reserve(NewObjects.size());
      for (const NewObject &O : NewObjects) {
        std::vector<Var> &Inputs = Seqs.emplace_back();
        auto [Begin, End] = Trie.objectIds(O.Entry);
        for (const int *Id = Begin; Id != End; ++Id)
          Inputs.push_back(Enc.tokenEmbed(*Id, *O.Cache));
      }
      std::vector<Var> Out = runCellLockstep(Enc.F1, Seqs);
      for (size_t K = 0; K < NewObjects.size(); ++K)
        ObjectH[NewObjects[K].Entry] = Out[K];
      NewObjects.clear();
    }
    // A new edge's parent is older or one position up, so ascending
    // positions find every parent state computed.
    for (std::vector<NewEdge> &Edges : NewEdges) {
      if (Edges.empty())
        continue;
      Xs.clear();
      Prevs.clear();
      for (const NewEdge &E : Edges) {
        uint32_t Payload = StateTrie::payload(E.Component);
        Xs.push_back(StateTrie::isObject(E.Component)
                         ? ObjectH[Payload]
                         : Enc.tokenEmbed(static_cast<int>(Payload), *E.Cache));
        Prevs.push_back(NodeStates[E.Parent]);
      }
      std::vector<Var> Next = Enc.F2.stepBatch(Xs, Prevs);
      for (size_t K = 0; K < Edges.size(); ++K)
        NodeStates[Edges[K].Node] = Next[K];
      Edges.clear();
    }
  }

  /// The state embedding of a flushed node.
  Var embedding(uint32_t Node) const { return NodeStates[Node]; }

private:
  struct NewObject {
    uint32_t Entry;
    SampleCache *Cache;
  };
  struct NewEdge {
    uint32_t Node, Parent;
    uint64_t Component;
    SampleCache *Cache;
  };

  /// The entry of \p Object, registering it for the next flush when new.
  uint32_t objectEntry(const Value &Object, SampleCache &Cache) {
    Enc.ValueIds.objectIds(Object, Ids);
    bool Added = false;
    uint32_t Entry = Trie.objectEntry(Ids, Added);
    if (Added) {
      ObjectH.push_back(nullptr);
      NewObjects.push_back({Entry, &Cache});
    }
    return Entry;
  }

  const LigerEncoder &Enc;
  StateTrie Trie;
  std::vector<Var> ObjectH;         ///< Per object entry: f1's final H.
  std::vector<Var> NodeStates;      ///< Per trie node: f2's state.
  std::vector<NewObject> NewObjects;
  /// Unflushed edges by position: NewEdges[I] holds edges whose
  /// component is the state's I-th value.
  std::vector<std::vector<NewEdge>> NewEdges;
  // Reused scratch.
  std::vector<int> Ids;
  std::vector<Var> Xs;
  std::vector<Var> Prevs;
};

std::vector<GraphEncoding>
LigerEncoder::encodeBatch(
    const std::vector<const MethodTraces *> &Batch) const {
  size_t B = Batch.size();
  // Statement and token embeddings stay per sample. Program states
  // share one BatchStates across the batch: an object value or state
  // prefix that any lane revisits reuses its node, whose value is
  // bitwise what the sample computes alone, so a sample's values do not
  // depend on its batch. Gradient flow through a shared node merges,
  // which only the order of gradient accumulation can observe.
  std::vector<SampleCache> Caches(B);
  BatchStates States(*this);

  // One lane per eligible blended trace, in sample-major order.
  struct Lane {
    size_t Sample;
    const BlendedTrace *Path;
    size_t Steps;
    size_t NumConcrete;
    Var Trace; ///< F3's state, the next fusion's attention query.
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
      MaxSteps = std::max(MaxSteps, L.Steps);
      Lanes.push_back(std::move(L));
    }
  }

  // Timestep-major lockstep: each round resolves every live lane's
  // step-J states to trie nodes and embeds the round's new objects and
  // edges, then fuses each lane's components and advances all lanes
  // with a fused input through one batched F3 step.
  std::vector<std::vector<uint32_t>> LaneNodes(Lanes.size());
  std::vector<Var> Components;
  std::vector<size_t> Active;
  std::vector<Var> Ins;
  std::vector<Var> PrevStates;
  for (size_t J = 0; J < MaxSteps; ++J) {
    for (size_t Li = 0; Li < Lanes.size(); ++Li) {
      Lane &L = Lanes[Li];
      LaneNodes[Li].clear();
      if (J >= L.Steps)
        continue;
      for (size_t T = 0; T < L.NumConcrete; ++T) {
        const StateTrace &Trace = L.Path->Concrete[T];
        if (J < Trace.States.size() && !Trace.States[J].Values.empty())
          LaneNodes[Li].push_back(
              States.request(Trace.States[J], Caches[L.Sample]));
      }
    }
    States.flush();

    Active.clear();
    Ins.clear();
    PrevStates.clear();
    for (size_t Li = 0; Li < Lanes.size(); ++Li) {
      Lane &L = Lanes[Li];
      if (J >= L.Steps)
        continue;
      Components.clear();
      if (Config.UseStaticFeature)
        Components.push_back(embedStatement(L.Path->Symbolic.Steps[J].Statement,
                                            Caches[L.Sample]));
      for (uint32_t Node : LaneNodes[Li])
        Components.push_back(States.embedding(Node));
      Var Fused = fuse(Components, J, L.Trace);
      if (!Fused)
        continue;
      Active.push_back(Li);
      Ins.push_back(Fused);
      PrevStates.push_back(L.Trace);
    }
    if (Active.empty())
      continue;
    std::vector<Var> Next = F3.stepBatch(Ins, PrevStates);
    for (size_t K = 0; K < Active.size(); ++K) {
      Lane &L = Lanes[Active[K]];
      L.Trace = Next[K];
      L.Memory.push_back(Next[K]);
    }
  }

  // Per-sample assembly in path-major order.
  std::vector<GraphEncoding> Out(B);
  std::vector<std::vector<Var>> PathEmbeds(B);
  for (Lane &L : Lanes) {
    PathEmbeds[L.Sample].push_back(L.Trace);
    Out[L.Sample].Memory.insert(Out[L.Sample].Memory.end(),
                                    L.Memory.begin(), L.Memory.end());
  }
  for (size_t S = 0; S < B; ++S) {
    if (PathEmbeds[S].empty()) {
      Out[S].ProgramEmbedding = constant(Tensor::zeros(Config.Hidden));
      Out[S].Memory.assign(1, Out[S].ProgramEmbedding);
      continue;
    }
    Out[S].ProgramEmbedding = Config.MeanPoolPrograms
                                  ? meanPool(PathEmbeds[S])
                                  : maxPool(PathEmbeds[S]);
    if (Out[S].Memory.empty())
      Out[S].Memory.push_back(Out[S].ProgramEmbedding);
  }
  return Out;
}

GraphEncoding LigerEncoder::encode(const MethodTraces &Traces) const {
  return std::move(encodeBatch({&Traces})[0]);
}

//===----------------------------------------------------------------------===//
// LigerNamePredictor
//===----------------------------------------------------------------------===//

LigerNamePredictor::LigerNamePredictor(const Vocabulary &JointVocab,
                                       const Vocabulary &Target,
                                       const LigerConfig &Config,
                                       uint64_t Seed)
    : InitRng(Seed), Encoder(Store, JointVocab, Config, InitRng),
      Decoder(Store, "liger.dec", SeqDecoderConfig::forModel(Config, Target),
              InitRng),
      TargetVocab(Target) {}

Var LigerNamePredictor::loss(const MethodSample &Sample) const {
  return lossBatch({&Sample})[0];
}

std::vector<Var> LigerNamePredictor::lossBatch(
    const std::vector<const MethodSample *> &Samples) const {
  std::vector<std::vector<int>> Targets;
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
  return Decoder.lossBatch(Encoder.encodeBatch(Traces), Targets);
}

std::vector<std::vector<std::string>>
LigerNamePredictor::predict(const std::vector<MethodSample> &Samples,
                            FusionStats *Stats) const {
  WeightImage Image = WeightImage::fromStore(Store);
  LigerInference Runtime(Image, Encoder.vocab(), &TargetVocab,
                         Encoder.config());
  std::vector<std::vector<std::string>> Names;
  Names.reserve(Samples.size());
  for (const MethodSample &Sample : Samples)
    Names.push_back(Runtime.predictName(Sample.Traces));
  if (Stats)
    *Stats = Runtime.fusionStats();
  return Names;
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
  GraphEncoding Enc = Encoder.encode(Sample.Traces);
  return Head.softmaxCrossEntropyBatch(
      Enc.ProgramEmbedding, static_cast<size_t>(Sample.ClassId))[0];
}

int LigerClassifier::predict(const MethodSample &Sample) const {
  GraphEncoding Enc = Encoder.encode(Sample.Traces);
  return static_cast<int>(argmax(Head.apply(Enc.ProgramEmbedding)->Value));
}

Tensor LigerClassifier::embed(const MethodTraces &Traces) const {
  return Encoder.encode(Traces).ProgramEmbedding->Value;
}
