//===-- models/Inference.cpp - Forward-only LIGER runtime ------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// The module forwards here (cells, tree node, attention, decoder step)
// are values-only transliterations of their graph counterparts
// (Module.cpp / Decoder.cpp), calling the same inferops:: forwards the
// fused graph ops call — the GRU, attention and linear ones with one
// lane, where the graph ops pass their B. The encode walk goes path by
// path where LigerEncoder::encodeBatch (Liger.cpp) advances every path
// in lockstep; both fuse, pool and order step memory the same way. Keep
// the two in step when either changes — InferenceEquivalenceTest
// compares them with memcmp, and the decoder with the graph decode of
// tests/ReferenceGraphs.
//
//===----------------------------------------------------------------------===//

#include "models/Inference.h"

#include "lang/AstTree.h"
#include "models/Common.h"
#include "nn/GraphArena.h"
#include "nn/InferOps.h"

#include <algorithm>
#include <cstring>

using namespace liger;

//===----------------------------------------------------------------------===//
// ScratchArena
//===----------------------------------------------------------------------===//

namespace {
constexpr size_t MinBlockFloats = 1u << 16;
} // namespace

float *ScratchArena::alloc(size_t N) {
  if (N == 0)
    N = 1;
  while (Active < Blocks.size()) {
    Block &B = Blocks[Active];
    if (B.Used + N <= B.Data.size()) {
      float *P = B.Data.data() + B.Used;
      B.Used += N;
      return P;
    }
    ++Active; // Tail slack is reclaimed at the next reset().
  }
  Blocks.emplace_back();
  Blocks.back().Data.resize(std::max(MinBlockFloats, N));
  Blocks.back().Used = N;
  Active = Blocks.size() - 1;
  return Blocks.back().Data.data();
}

float *ScratchArena::allocZeroed(size_t N) {
  float *P = alloc(N);
  std::memset(P, 0, N * sizeof(float));
  return P;
}

void ScratchArena::reset() {
  for (Block &B : Blocks)
    B.Used = 0;
  Active = 0;
}

size_t ScratchArena::floatsReserved() const {
  size_t Total = 0;
  for (const Block &B : Blocks)
    Total += B.Data.size();
  return Total;
}

//===----------------------------------------------------------------------===//
// Bound modules: weight binding and forwards
//===----------------------------------------------------------------------===//

namespace {

LinearRef bindLinear(const WeightImage &Image, const std::string &Name,
                     size_t In, size_t Out) {
  LinearRef L;
  L.In = In;
  L.Out = Out;
  L.W = Image.tensor2d(Name + ".W", Out, In);
  L.B = Image.tensor1d(Name + ".b", Out);
  return L;
}

CellRef bindCell(const WeightImage &Image, const std::string &Name,
                 size_t In, size_t Hidden) {
  CellRef C;
  C.In = In;
  C.Hidden = Hidden;
  C.Wx = Image.tensor2d(Name + ".Wx", 3 * Hidden, In);
  C.Bx = Image.tensor1d(Name + ".bx", 3 * Hidden);
  C.Wh = Image.tensor2d(Name + ".Wh", 3 * Hidden, Hidden);
  return C;
}

AttnRef bindAttn(const WeightImage &Image, const std::string &Name,
                 size_t QueryDim, size_t KeyDim, size_t Hidden) {
  AttnRef A;
  A.QueryDim = QueryDim;
  A.KeyDim = KeyDim;
  A.Hidden = Hidden;
  A.W1 = Image.tensor2d(Name + ".l1.W", Hidden, KeyDim + QueryDim);
  A.B1 = Image.tensor1d(Name + ".l1.b", Hidden);
  A.W2 = Image.tensor2d(Name + ".l2.W", 1, Hidden);
  A.B2 = Image.tensor1d(Name + ".l2.b", 1);
  return A;
}

const float *cellInitial(ScratchArena &Arena, const CellRef &Cell) {
  return Arena.allocZeroed(Cell.Hidden);
}

/// One lane of gruCellBatchOp's forward.
const float *cellStep(ScratchArena &Arena, const CellRef &Cell,
                      const float *X, const float *Prev) {
  size_t H = Cell.Hidden;
  float *Gates = Arena.alloc(3 * H);
  float *Ws = Arena.alloc(9 * H);
  float *Out = Arena.alloc(H);
  inferops::gruCellForward(1, H, Cell.In, Cell.Wx, Cell.Bx, Cell.Wh, X, Prev,
                           Gates, Out, Ws);
  return Out;
}

const float *attnKeyProj(ScratchArena &Arena, const AttnRef &Attn,
                         const std::vector<const float *> &Keys) {
  float *KP = Arena.alloc(Keys.size() * Attn.Hidden);
  inferops::attentionKeyProjForward(Keys.size(), Attn.Hidden, Attn.KeyDim,
                                    Attn.KeyDim + Attn.QueryDim, Attn.W1,
                                    Attn.B1, Keys.data(), KP);
  return KP;
}

/// One query of attentionMultiMemoryOp's forward. \p Weights, when
/// non-null, receives the softmax weights.
const float *attnContext(ScratchArena &Arena, const AttnRef &Attn,
                         const std::vector<const float *> &Keys,
                         const float *KeyProj, const float *Query,
                         const float **Weights = nullptr) {
  size_t T = Keys.size();
  float *Pay = Arena.alloc(T * Attn.Hidden + T);
  float *Out = Arena.alloc(Attn.KeyDim);
  float *Ws = Arena.alloc(2 * Attn.Hidden);
  inferops::attentionForward(1, &T, Attn.KeyDim, Attn.QueryDim, Attn.Hidden,
                             Attn.KeyDim + Attn.QueryDim, Attn.W1, Attn.W2,
                             Attn.B2[0], Query, &KeyProj, Keys.data(), Pay,
                             Out, Ws);
  if (Weights)
    *Weights = Pay + T * Attn.Hidden;
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// GreedyDecoder
//===----------------------------------------------------------------------===//

GreedyDecoder::GreedyDecoder(const WeightImage &Image,
                             const std::string &Prefix,
                             const SeqDecoderConfig &Cfg)
    : Config(Cfg) {
  size_t E = Cfg.EmbedDim, H = Cfg.Hidden, M = Cfg.MemoryDim;
  TargetEmbed =
      Image.tensor2d(Prefix + ".target_embed", Cfg.TargetVocabSize, E);
  Init = bindLinear(Image, Prefix + ".init", Cfg.InitDim, H);
  Cell = bindCell(Image, Prefix + ".cell", E + M, H);
  Attn = bindAttn(Image, Prefix + ".attn", H, M, Cfg.AttnHidden);
  Out = bindLinear(Image, Prefix + ".out", H + M, Cfg.TargetVocabSize);
}

std::vector<int>
GreedyDecoder::decode(ScratchArena &Arena, const float *ProgramEmbedding,
                      const std::vector<const float *> &Memory) const {
  LIGER_CHECK(!Memory.empty(), "decoder needs a non-empty memory");
  size_t H = Config.Hidden, E = Config.EmbedDim, M = Config.MemoryDim;
  size_t Vt = Out.Out;

  float *H0 = Arena.alloc(H);
  inferops::linearForward(1, H, Init.In, Init.W, Init.B, ProgramEmbedding, H0);
  kernels::tanhMap(H, H0, H0);
  const float *State = H0;

  const float *KP = attnKeyProj(Arena, Attn, Memory);

  std::vector<int> Output;
  int Prev = Vocabulary::Sos;
  for (size_t Step = 0; Step < MaxDecodeLen; ++Step) {
    const float *PrevEmbed = TargetEmbed + static_cast<size_t>(Prev) * E;
    // SeqDecoder::lossBatch's step: attention over the *previous* state,
    // cell step, then the output projection over the new state and
    // context.
    const float *Ctx = attnContext(Arena, Attn, Memory, KP, State);
    float *CellIn = Arena.alloc(E + M);
    std::memcpy(CellIn, PrevEmbed, E * sizeof(float));
    std::memcpy(CellIn + E, Ctx, M * sizeof(float));
    State = cellStep(Arena, Cell, CellIn, State);
    float *OutIn = Arena.alloc(H + M);
    std::memcpy(OutIn, State, H * sizeof(float));
    std::memcpy(OutIn + H, Ctx, M * sizeof(float));
    float *Logits = Arena.alloc(Vt);
    inferops::linearForward(1, Vt, Out.In, Out.W, Out.B, OutIn, Logits);

    // Never emit the structural specials other than Eos.
    Logits[Vocabulary::Pad] = -1e30f;
    Logits[Vocabulary::Sos] = -1e30f;
    Logits[Vocabulary::Unk] = -1e30f;
    int Next = static_cast<int>(inferops::argmaxRow(Vt, Logits));
    if (Next == Vocabulary::Eos)
      break;
    Output.push_back(Next);
    Prev = Next;
  }
  return Output;
}

std::vector<std::vector<std::string>> liger::decodeGraphEncodings(
    const ParamStore &Store, const SeqDecoder &Decoder,
    const Vocabulary &Target, const std::vector<MethodSample> &Samples,
    const std::function<GraphEncoding(const MethodSample &)> &Encode) {
  WeightImage Image = WeightImage::fromStore(Store);
  GreedyDecoder Greedy(Image, Decoder.name(), Decoder.config());
  ScratchArena Scratch;
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  std::vector<std::vector<std::string>> Names;
  for (const MethodSample &Sample : Samples) {
    GraphEncoding Enc = Encode(Sample);
    std::vector<const float *> Memory;
    for (const Var &Item : Enc.Memory)
      Memory.push_back(Item->Value.data());
    Names.push_back(idsToSubtokens(
        Greedy.decode(Scratch, Enc.ProgramEmbedding->Value.data(), Memory),
        Target));
    Scratch.reset();
    Arena.reset();
  }
  return Names;
}

//===----------------------------------------------------------------------===//
// LigerInference: weight binding
//===----------------------------------------------------------------------===//

LigerInference::LigerInference(const WeightImage &Image,
                               const Vocabulary &JointVocab,
                               const Vocabulary *Target,
                               const LigerConfig &Cfg)
    : Config(Cfg), Vocab(JointVocab), TargetVocab(Target),
      ValueIds(JointVocab) {
  LIGER_CHECK(Config.UseStaticFeature || Config.UseDynamicFeature,
              "at least one feature dimension must be enabled");
  bind(Image);
  resetStore();
}

void LigerInference::bind(const WeightImage &Image) {
  size_t E = Config.EmbedDim, H = Config.Hidden, A = Config.AttnHidden;
  Embed = Image.tensor2d("liger.embed",
                         static_cast<size_t>(Vocab.size()), E);
  TreeW.Wx = Image.tensor2d("liger.stmt_tree.Wx", 4 * H, E);
  TreeW.Bx = Image.tensor1d("liger.stmt_tree.bx", 4 * H);
  TreeW.Wh = Image.tensor2d("liger.stmt_tree.Wh", 4 * H, H);
  F1 = bindCell(Image, "liger.f1", E, E);
  F2 = bindCell(Image, "liger.f2", E, H);
  A1 = bindAttn(Image, "liger.a1", H, H, A);
  F3 = bindCell(Image, "liger.f3", H, H);
  if (TargetVocab)
    Decoder.emplace(Image, "liger.dec",
                    SeqDecoderConfig::forModel(Config, *TargetVocab));
  Version = Image.version();
}

void LigerInference::rebind(const WeightImage &Image) {
  Digest128 Old = Version;
  bind(Image);
  if (Version != Old)
    resetStore();
}

void LigerInference::resetStore() {
  Store = EmbeddingStore();
  // The trie root, the empty tuple: f2's initial state, which is also
  // the zero embedding of a state with no values.
  StoredRow Root;
  Root.H = Store.Floats.allocZeroed(Config.Hidden);
  Store.Nodes.push_back(Root);
}

void LigerInference::beginRequest() {
  Arena.reset();
  RequestStmts.clear();
}

const float *LigerInference::tokenEmbed(int Id) const {
  // EmbeddingTable::lookup is a zero-copy row view; here it is plain
  // pointer arithmetic into the image.
  return Embed + static_cast<size_t>(Id) * Config.EmbedDim;
}

//===----------------------------------------------------------------------===//
// Statement embedding (per-request memo + persistent store)
//===----------------------------------------------------------------------===//

namespace {

/// Pre-order (label id, arity) pairs of a head tree: injective on
/// trees of token ids, and the embedding reads nothing else.
void appendTreeIds(const AstTree &Tree, const Vocabulary &Vocab,
                   std::vector<int> &Out) {
  Out.push_back(Vocab.lookup(Tree.Label));
  Out.push_back(static_cast<int>(Tree.Children.size()));
  for (const AstTree &Child : Tree.Children)
    appendTreeIds(Child, Vocab, Out);
}

} // namespace

CellState LigerInference::treeNode(const std::vector<int> &PreOrder,
                                   size_t &Pos) {
  // Mirrors ChildSumTreeLstm::embedNode: children first, then the
  // child-sum and the fused node op.
  size_t H = Config.Hidden;
  int Label = PreOrder[Pos];
  size_t K = static_cast<size_t>(PreOrder[Pos + 1]);
  Pos += 2;
  std::vector<const float *> ChildH(K), ChildC(K);
  for (size_t I = 0; I < K; ++I) {
    CellState Child = treeNode(PreOrder, Pos);
    ChildH[I] = Child.H;
    ChildC[I] = Child.C;
  }

  const float *X = tokenEmbed(Label);

  // childHSum: zeros / the single child / a left-to-right add chain.
  const float *HSum;
  if (K == 0) {
    HSum = Arena.allocZeroed(H);
  } else if (K == 1) {
    HSum = ChildH[0];
  } else {
    float *Sum = Arena.alloc(H);
    std::memcpy(Sum, ChildH[0], H * sizeof(float));
    for (size_t I = 1; I < K; ++I)
      kernels::addAcc(H, ChildH[I], Sum);
    HSum = Sum;
  }

  float *Gates = Arena.alloc((5 + K) * H);
  float *Ws = Arena.alloc(10 * H);
  CellState Out;
  float *C = Arena.alloc(H);
  float *HOut = Arena.alloc(H);
  inferops::treeLstmNodeForward(H, Config.EmbedDim, K, TreeW.Wx, TreeW.Bx,
                                TreeW.Wh, X, HSum, ChildH.data(),
                                ChildC.data(), Gates, C, HOut, Ws);
  Out.H = HOut;
  Out.C = C;
  return Out;
}

LigerInference::StoredRow *LigerInference::embedStatement(const Stmt *S) {
  uint64_t PtrKey = mix64(reinterpret_cast<uintptr_t>(S));
  uint32_t E = RequestStmts.find(PtrKey);
  if (E != HashIndex::None) {
    ++Stats.StmtHits;
    return &Store.StmtRows[E];
  }
  std::vector<int> &Ids = IdScratch;
  Ids.clear();
  appendTreeIds(buildStmtHeadTree(S), Vocab, Ids);
  uint64_t Hash = hashIds(Ids);
  E = Store.Stmts.find(Ids, Hash);
  if (E != HashIndex::None) {
    ++Stats.StmtHits;
  } else {
    ++Stats.StmtMisses;
    size_t Pos = 0;
    CellState R = treeNode(Ids, Pos);
    float *H = Store.Floats.alloc(Config.Hidden);
    std::memcpy(H, R.H, Config.Hidden * sizeof(float));
    StoredRow Row;
    Row.H = H;
    Store.StmtRows.push_back(Row);
    E = Store.Stmts.insert(Ids, Hash);
  }
  RequestStmts.insert(PtrKey, E);
  return &Store.StmtRows[E];
}

//===----------------------------------------------------------------------===//
// State embedding (object memo + f2 prefix trie)
//===----------------------------------------------------------------------===//

uint32_t LigerInference::objectEntry(const Value &Object) {
  std::vector<int> &Ids = IdScratch;
  ValueIds.objectIds(Object, Ids);
  bool Added = false;
  uint32_t E = Store.Trie.objectEntry(Ids, Added);
  if (!Added)
    return E;
  // f1 over the flattened attr sequence.
  const float *S = cellInitial(Arena, F1);
  for (int Id : Ids)
    S = cellStep(Arena, F1, tokenEmbed(Id), S);
  float *H = Store.Floats.alloc(F1.Hidden);
  std::memcpy(H, S, F1.Hidden * sizeof(float));
  Store.ObjectH.push_back(H);
  return E;
}

LigerInference::StoredRow *
LigerInference::embedState(const ProgramState &State) {
  // A state is the trie node its (component, ...) walk ends on.
  auto componentOf = [&](const Value &V) {
    if (V.isArray() || V.isStruct())
      return StateTrie::object(objectEntry(V));
    return StateTrie::primitive(ValueIds.id(V));
  };

  uint32_t Node = StateTrie::Root;
  size_t I = 0, N = State.Values.size();
  uint64_t Component = 0;
  for (; I < N; ++I) {
    Component = componentOf(State.Values[I]);
    uint32_t Child = Store.Trie.child(Node, Component);
    if (Child == StateTrie::None)
      break;
    Node = Child;
  }
  if (I == N) {
    ++Stats.StateHits;
    return &Store.Nodes[Node];
  }
  ++Stats.StateMisses;

  // Run only the f2 steps below the deepest node that exists.
  size_t H = Config.Hidden;
  const float *S = Store.Nodes[Node].H;
  for (;;) {
    uint32_t Payload = StateTrie::payload(Component);
    const float *X = StateTrie::isObject(Component)
                         ? Store.ObjectH[Payload]
                         : tokenEmbed(static_cast<int>(Payload));
    S = cellStep(Arena, F2, X, S);
    StoredRow Row;
    float *NodeH = Store.Floats.alloc(H);
    std::memcpy(NodeH, S, H * sizeof(float));
    Row.H = NodeH;
    Node = Store.Trie.addChild(Node, Component);
    Store.Nodes.push_back(Row);
    if (++I == N)
      return &Store.Nodes[Node];
    Component = componentOf(State.Values[I]);
  }
}

//===----------------------------------------------------------------------===//
// Encode walk
//===----------------------------------------------------------------------===//

const float *LigerInference::keyProjRow(StoredRow &Row) {
  // attnKeyProj's per-row kernel on one key: the same row a
  // whole-memory projection computes.
  if (!Row.KeyProj) {
    float *KP = Store.Floats.alloc(A1.Hidden);
    inferops::attentionKeyProjForward(1, A1.Hidden, A1.KeyDim,
                                      A1.KeyDim + A1.QueryDim, A1.W1, A1.B1,
                                      &Row.H, KP);
    Row.KeyProj = KP;
  }
  return Row.KeyProj;
}

const float *LigerInference::fuseStep(const BlendedTrace &Path, size_t J,
                                      size_t NumConcrete,
                                      const float *PrevH) {
  std::vector<StoredRow *> &Rows = FuseRows;
  Rows.clear();
  if (Config.UseStaticFeature)
    Rows.push_back(embedStatement(Path.Symbolic.Steps[J].Statement));
  for (size_t T = 0; T < NumConcrete; ++T) {
    const StateTrace &States = Path.Concrete[T];
    if (J < States.States.size() && !States.States[J].Values.empty())
      Rows.push_back(embedState(States.States[J]));
  }
  if (Rows.empty())
    return nullptr;

  if (Rows.size() == 1) {
    addFusionTerm(J, 1.0);
    return Rows[0]->H;
  }
  size_t H = Config.Hidden;
  if (!Config.UseFusionAttention || J == 0) {
    addFusionTerm(J, 1.0 / static_cast<double>(Rows.size()));
    // meanPool: zeros + in-order axpy with the 1/N weight.
    float *Out = Arena.allocZeroed(H);
    float Inv = 1.0f / static_cast<float>(Rows.size());
    for (const StoredRow *Row : Rows)
      kernels::axpy(H, Inv, Row->H, Out);
    return Out;
  }
  std::vector<const float *> &Keys = FuseKeys;
  Keys.clear();
  float *KP = Arena.alloc(Rows.size() * A1.Hidden);
  for (size_t T = 0; T < Rows.size(); ++T) {
    Keys.push_back(Rows[T]->H);
    std::memcpy(KP + T * A1.Hidden, keyProjRow(*Rows[T]),
                A1.Hidden * sizeof(float));
  }
  const float *Weights = nullptr;
  const float *Fused = attnContext(Arena, A1, Keys, KP, PrevH, &Weights);
  addFusionTerm(J, static_cast<double>(Weights[0]));
  return Fused;
}

void LigerInference::addFusionTerm(size_t J, double StaticWeight) {
  if (!Config.UseStaticFeature)
    return;
  if (FusionTerms.size() <= J)
    FusionTerms.resize(J + 1);
  FusionTerms[J].push_back(StaticWeight);
}

const float *
LigerInference::encodePath(const BlendedTrace &Path,
                           std::vector<const float *> &StepMemory) {
  size_t Steps = std::min(Path.Symbolic.Steps.size(), Config.MaxStepsPerTrace);
  size_t NumConcrete =
      Config.UseDynamicFeature
          ? std::min(Path.Concrete.size(), Config.MaxConcretePerPath)
          : 0;

  const float *Trace = cellInitial(Arena, F3);
  for (size_t J = 0; J < Steps; ++J) {
    const float *Fused = fuseStep(Path, J, NumConcrete, Trace);
    if (!Fused)
      continue;
    Trace = cellStep(Arena, F3, Fused, Trace);
    StepMemory.push_back(Trace);
  }
  return Trace;
}

LigerInference::Encoding
LigerInference::encodeForDecode(const MethodTraces &Traces) {
  beginRequest();
  Encoding Enc;
  std::vector<const float *> &StepMemory = Enc.StepMemory;
  std::vector<const float *> PathEmbeddings;
  for (const BlendedTrace &Path : Traces.Paths) {
    if (!Config.UseDynamicFeature && Path.Symbolic.Steps.empty())
      continue;
    if (Config.UseDynamicFeature && !Config.UseStaticFeature &&
        Path.Concrete.empty())
      continue;
    PathEmbeddings.push_back(encodePath(Path, StepMemory));
  }
  // Every path's step-J terms before any step J+1 term, as
  // LigerEncoder::encodeBatch walks.
  for (std::vector<double> &Terms : FusionTerms) {
    for (double Term : Terms)
      Fusion.StaticWeightSum += Term;
    Fusion.FusionSteps += Terms.size();
    Terms.clear();
  }

  size_t H = Config.Hidden;
  if (PathEmbeddings.empty()) {
    float *Zero = Arena.allocZeroed(H);
    StepMemory.push_back(Zero);
    Enc.Program = Zero;
    return Enc;
  }
  if (Config.MeanPoolPrograms) {
    float *Out = Arena.allocZeroed(H);
    float Inv = 1.0f / static_cast<float>(PathEmbeddings.size());
    for (const float *Item : PathEmbeddings)
      kernels::axpy(H, Inv, Item, Out);
    Enc.Program = Out;
  } else {
    // maxPool: copy the first item, strict-> updates after.
    float *Out = Arena.alloc(H);
    std::memcpy(Out, PathEmbeddings[0], H * sizeof(float));
    for (size_t I = 1; I < PathEmbeddings.size(); ++I) {
      const float *Item = PathEmbeddings[I];
      for (size_t D = 0; D < H; ++D)
        if (Item[D] > Out[D])
          Out[D] = Item[D];
    }
    Enc.Program = Out;
  }
  if (StepMemory.empty())
    StepMemory.push_back(Enc.Program);
  return Enc;
}

const float *LigerInference::encode(const MethodTraces &Traces) {
  return encodeForDecode(Traces).Program;
}

//===----------------------------------------------------------------------===//
// Name prediction
//===----------------------------------------------------------------------===//

std::vector<std::string>
LigerInference::predictName(const MethodTraces &Traces) {
  return predictName(encodeForDecode(Traces));
}

std::vector<std::string>
LigerInference::predictName(const Encoding &Encoded) {
  LIGER_CHECK(Decoder, "predictName needs a target vocabulary");
  return idsToSubtokens(
      Decoder->decode(Arena, Encoded.Program, Encoded.StepMemory),
      *TargetVocab);
}
