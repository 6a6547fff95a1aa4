//===-- tests/ReferenceGraphs.cpp - Per-gate and per-pair oracles ---------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ReferenceGraphs.h"

#include "trace/Vocabulary.h"

#include <unordered_map>

using namespace liger;

Var reference::param(const ParamStore &Store, const std::string &Name) {
  const std::vector<std::string> &Names = Store.names();
  for (size_t I = 0; I < Names.size(); ++I)
    if (Names[I] == Name)
      return Store.params()[I];
  reportFatalError("no parameter named " + Name);
}

//===----------------------------------------------------------------------===//
// Recurrent cells
//===----------------------------------------------------------------------===//

Var reference::cellStep(const ParamStore &Store, const std::string &Cell,
                        const Var &X, const Var &Prev) {
  Var PWx = param(Store, Cell + ".Wx");
  Var PBx = param(Store, Cell + ".bx");
  Var PWh = param(Store, Cell + ".Wh");
  size_t H = PWh->Value.dim(1);
  Var Wz = rowsView(PWx, 0, H);
  Var Wr = rowsView(PWx, H, H);
  Var Wn = rowsView(PWx, 2 * H, H);
  Var Bz = sliceView(PBx, 0, H);
  Var Br = sliceView(PBx, H, H);
  Var Bn = sliceView(PBx, 2 * H, H);
  Var Uz = rowsView(PWh, 0, H);
  Var Ur = rowsView(PWh, H, H);
  Var Un = rowsView(PWh, 2 * H, H);
  auto Gate = [&](const Var &W, const Var &B, const Var &U, const Var &HVec) {
    Var A = matvec(W, X);
    Var Ab = add(A, B);
    Var Uh = matvec(U, HVec);
    return add(Ab, Uh);
  };
  Var Z = sigmoidV(Gate(Wz, Bz, Uz, Prev));
  Var Rg = sigmoidV(Gate(Wr, Br, Ur, Prev));
  Var RH = mul(Rg, Prev);
  Var N = tanhV(Gate(Wn, Bn, Un, RH));
  // h = (1 - z) * n + z * h_prev  =  n + z * (h_prev - n)
  Var D = sub(Prev, N);
  Var ZD = mul(Z, D);
  return add(N, ZD);
}

std::vector<Var> reference::cellRun(const ParamStore &Store,
                                    const std::string &Cell, Var Initial,
                                    const std::vector<Var> &Inputs) {
  std::vector<Var> States;
  States.reserve(Inputs.size());
  Var S = Initial;
  for (const Var &X : Inputs) {
    S = cellStep(Store, Cell, X, S);
    States.push_back(S);
  }
  return States;
}

//===----------------------------------------------------------------------===//
// Child-Sum TreeLSTM
//===----------------------------------------------------------------------===//

namespace {

struct TreeNodeState {
  Var H = nullptr, C = nullptr;
};

/// h~ = Σ_k h_k (zero vector for leaves): the same add chain
/// ChildSumTreeLstm builds as the fused node's HSum parent, so its
/// nodes and gradient roundings are identical on both paths.
Var childHSum(const std::vector<Var> &ChildHs, size_t Hidden) {
  if (ChildHs.empty())
    return constant(Tensor::zeros(Hidden));
  Var HSum = ChildHs.size() == 1 ? ChildHs[0] : add(ChildHs[0], ChildHs[1]);
  for (size_t I = 2; I < ChildHs.size(); ++I)
    HSum = add(HSum, ChildHs[I]);
  return HSum;
}

TreeNodeState
treeNode(const Var &PWx, const Var &PBx, const Var &PWh, const AstTree &Tree,
         const std::function<Var(const std::string &)> &Embed) {
  std::vector<TreeNodeState> Children;
  Children.reserve(Tree.Children.size());
  for (const AstTree &Child : Tree.Children)
    Children.push_back(treeNode(PWx, PBx, PWh, Child, Embed));

  Var X = Embed(Tree.Label);

  size_t H = PWh->Value.dim(1);
  std::vector<Var> ChildHs;
  for (const TreeNodeState &Child : Children)
    ChildHs.push_back(Child.H);
  Var HSum = childHSum(ChildHs, H);

  // Pack order i, o, u, f.
  Var WiV = rowsView(PWx, 0, H);
  Var BiV = sliceView(PBx, 0, H);
  Var UiV = rowsView(PWh, 0, H);
  Var WoV = rowsView(PWx, H, H);
  Var BoV = sliceView(PBx, H, H);
  Var UoV = rowsView(PWh, H, H);
  Var WuV = rowsView(PWx, 2 * H, H);
  Var BuV = sliceView(PBx, 2 * H, H);
  Var UuV = rowsView(PWh, 2 * H, H);
  auto Gate = [&](const Var &W, const Var &B, const Var &U,
                  const Var &HVec) {
    Var A = matvec(W, X);
    Var Ab = add(A, B);
    Var Uh = matvec(U, HVec);
    return add(Ab, Uh);
  };
  Var I = sigmoidV(Gate(WiV, BiV, UiV, HSum));
  Var O = sigmoidV(Gate(WoV, BoV, UoV, HSum));
  Var U = tanhV(Gate(WuV, BuV, UuV, HSum));

  // c = i ⊙ u + Σ_k f_k ⊙ c_k, with a per-child forget gate
  // f_k = σ(Wf x + Uf h_k). The f views are created fresh per child:
  // a shared view would pre-aggregate the children's weight gradients
  // before scattering, rounding differently from the fused op's (and
  // the pre-packing layout's) direct per-child accumulation.
  Var C = mul(I, U);
  for (const TreeNodeState &Child : Children) {
    Var WfV = rowsView(PWx, 3 * H, H);
    Var BfV = sliceView(PBx, 3 * H, H);
    Var UfV = rowsView(PWh, 3 * H, H);
    Var Fk = sigmoidV(Gate(WfV, BfV, UfV, Child.H));
    Var FC = mul(Fk, Child.C);
    C = add(C, FC);
  }

  Var TC = tanhV(C);
  TreeNodeState Result;
  Result.C = C;
  Result.H = mul(O, TC);
  return Result;
}

} // namespace

Var reference::treeLstmEmbed(
    const ParamStore &Store, const std::string &Name, const AstTree &Tree,
    const std::function<Var(const std::string &)> &Embed) {
  return treeNode(param(Store, Name + ".Wx"), param(Store, Name + ".bx"),
                  param(Store, Name + ".Wh"), Tree, Embed)
      .H;
}

//===----------------------------------------------------------------------===//
// Additive attention
//===----------------------------------------------------------------------===//
//
// The scorer stores its first layer packed as W1 [Hidden x (KeyDim +
// QueryDim)], keys in the leading columns; the reference reads the two
// halves through colsView bands.

namespace {

struct AttentionParams {
  Var W1, B1, W2, B2;
};

AttentionParams attentionParams(const ParamStore &Store,
                                const std::string &Name) {
  return {reference::param(Store, Name + ".l1.W"),
          reference::param(Store, Name + ".l1.b"),
          reference::param(Store, Name + ".l2.W"),
          reference::param(Store, Name + ".l2.b")};
}

} // namespace

std::vector<Var> reference::attentionKeyProjRows(const ParamStore &Store,
                                                 const std::string &Name,
                                                 const std::vector<Var> &Keys) {
  LIGER_CHECK(!Keys.empty(), "attention over an empty key set");
  AttentionParams P = attentionParams(Store, Name);
  Var Wk = colsView(P.W1, 0, Keys[0]->Value.size());
  std::vector<Var> Rows;
  Rows.reserve(Keys.size());
  for (const Var &Key : Keys) {
    Var Mk = matvec(Wk, Key);
    Var KP = add(Mk, P.B1);
    Rows.push_back(KP);
  }
  return Rows;
}

Var reference::attentionScores(const ParamStore &Store,
                               const std::string &Name, const Var &Query,
                               const std::vector<Var> &KeyProjRows) {
  AttentionParams P = attentionParams(Store, Name);
  size_t QueryDim = Query->Value.size();
  size_t KeyDim = P.W1->Value.dim(1) - QueryDim;
  Var Wq = colsView(P.W1, KeyDim, QueryDim);
  Var Mq = matvec(Wq, Query);
  std::vector<Var> Scores;
  Scores.reserve(KeyProjRows.size());
  for (const Var &KP : KeyProjRows) {
    Var Pre = add(KP, Mq);
    Var Act = tanhV(Pre);
    Var M2 = matvec(P.W2, Act);
    Scores.push_back(add(M2, P.B2));
  }
  return stackScalars(Scores);
}

Var reference::attentionPairScore(const ParamStore &Store,
                                  const std::string &Name, const Var &Query,
                                  const Var &Key) {
  AttentionParams P = attentionParams(Store, Name);
  size_t KeyDim = Key->Value.size(), QueryDim = Query->Value.size();
  Var Wk = colsView(P.W1, 0, KeyDim);
  Var Mk = matvec(Wk, Key);
  Var KP = add(Mk, P.B1);
  Var Wq = colsView(P.W1, KeyDim, QueryDim);
  Var Mq = matvec(Wq, Query);
  Var Pre = add(KP, Mq);
  Var Act = tanhV(Pre);
  Var M2 = matvec(P.W2, Act);
  return add(M2, P.B2);
}

AttentionScorer::Result reference::attentionContext(
    const ParamStore &Store, const std::string &Name, const Var &Query,
    const std::vector<Var> &Keys, const std::vector<Var> &KeyProjRows) {
  Var Scores = attentionScores(Store, Name, Query, KeyProjRows);
  Var A = softmax(Scores);
  AttentionScorer::Result Out;
  Out.Context = weightedCombine(Keys, A);
  Out.Weights = A->Value.data();
  return Out;
}

//===----------------------------------------------------------------------===//
// Greedy decode
//===----------------------------------------------------------------------===//

std::vector<int> reference::decodeGreedy(const ParamStore &Store,
                                         const std::string &Name,
                                         const Var &ProgramEmbedding,
                                         const std::vector<Var> &Memory,
                                         size_t MaxLen) {
  LIGER_CHECK(!Memory.empty(), "decoder needs a non-empty memory");
  Var TargetEmbed = param(Store, Name + ".target_embed");
  Var InitW = param(Store, Name + ".init.W");
  Var InitB = param(Store, Name + ".init.b");
  Var OutW = param(Store, Name + ".out.W");
  Var OutB = param(Store, Name + ".out.b");
  Var CellWx = param(Store, Name + ".cell.Wx");
  Var CellBx = param(Store, Name + ".cell.bx");
  Var CellWh = param(Store, Name + ".cell.Wh");
  AttentionParams Attn = attentionParams(Store, Name + ".attn");

  Var State = tanhV(add(matvec(InitW, ProgramEmbedding), InitB));
  // Key-side projections once per decode (AttentionScorer::prepare).
  AttnMemory Mem;
  Mem.Keys = Memory;
  Mem.KeyProj = attentionKeyProj(Attn.W1, Attn.B1, Memory);

  std::vector<int> Output;
  int Prev = Vocabulary::Sos;
  for (size_t Step = 0; Step < MaxLen; ++Step) {
    // Attention over the previous state, the cell step, then the output
    // projection over the new state and the same context; the attention
    // read and the cell step are one-lane calls of their batch ops.
    Var Context =
        attentionMultiMemoryOp(Attn.W1, Attn.W2, Attn.B2, State, &Mem)[0]
            .Context;
    Var In = concat(row(TargetEmbed, static_cast<size_t>(Prev)), Context);
    State = gruCellBatchOp(CellWx, CellBx, CellWh, In, State)[0];
    Var Logits = add(matvec(OutW, concat(State, Context)), OutB);
    // Never emit the structural specials other than Eos.
    Tensor Masked = Logits->Value;
    Masked[Vocabulary::Pad] = -1e30f;
    Masked[Vocabulary::Sos] = -1e30f;
    Masked[Vocabulary::Unk] = -1e30f;
    int Next = static_cast<int>(argmax(Masked));
    if (Next == Vocabulary::Eos)
      break;
    Output.push_back(Next);
    Prev = Next;
  }
  return Output;
}

//===----------------------------------------------------------------------===//
// DYPRO's string-keyed encoder
//===----------------------------------------------------------------------===//

namespace {

/// The packed GRU registered as \p Name, stepped by one-lane
/// gruCellBatchOp calls.
struct BoundGru {
  Var Wx, Bx, Wh;

  BoundGru(const ParamStore &Store, const std::string &Name)
      : Wx(reference::param(Store, Name + ".Wx")),
        Bx(reference::param(Store, Name + ".bx")),
        Wh(reference::param(Store, Name + ".Wh")) {}

  Var initial() const { return constant(Tensor::zeros(Wh->Value.dim(1))); }
  Var step(const Var &X, const Var &Prev) const {
    return gruCellBatchOp(Wx, Bx, Wh, X, Prev)[0];
  }
  /// RecurrentCell::run(Inputs).back().
  Var last(const std::vector<Var> &Inputs) const {
    Var S = initial();
    for (const Var &X : Inputs)
      S = step(X, S);
    return S;
  }
};

/// One dyproEncode call: DyproEncoder's modules and its token cache,
/// keyed by the token's spelling.
class StringKeyedDypro {
public:
  StringKeyedDypro(const ParamStore &Store, const Vocabulary &Vocab,
                   const DyproConfig &Config)
      : Config(Config), Vocab(Vocab),
        Embed(reference::param(Store, "dypro.embed")), F1(Store, "dypro.f1"),
        F2(Store, "dypro.f2"), Trace(Store, "dypro.trace") {}

  GraphEncoding encode(const MethodTraces &Traces) {
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
          Var StateVec = embedState(States.States[J], Traces.VarNames);
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

private:
  Var lookupToken(const std::string &Token) {
    auto It = TokenCache.find(Token);
    if (It != TokenCache.end())
      return It->second;
    Var E = row(Embed, static_cast<size_t>(Vocab.lookup(Token)));
    TokenCache.emplace(Token, E);
    return E;
  }

  Var embedState(const ProgramState &State,
                 const std::vector<std::string> &VarNames) {
    std::vector<Var> VarEmbeds;
    VarEmbeds.reserve(State.Values.size());
    for (size_t I = 0; I < State.Values.size(); ++I) {
      const Value &V = State.Values[I];
      Var ValueEmbed;
      if (V.isArray() || V.isStruct()) {
        std::vector<std::string> Tokens = valueTokens(V);
        if (Tokens.size() > MaxFlattenedValues)
          Tokens.resize(MaxFlattenedValues);
        std::vector<Var> Inputs;
        for (const std::string &Token : Tokens)
          Inputs.push_back(lookupToken(Token));
        ValueEmbed = F1.last(Inputs);
      } else {
        ValueEmbed = lookupToken(valueToken(V));
      }
      Var NameEmbed = I < VarNames.size()
                          ? lookupToken(VarNames[I])
                          : constant(Tensor::zeros(Config.EmbedDim));
      VarEmbeds.push_back(concat(NameEmbed, ValueEmbed));
    }
    if (VarEmbeds.empty())
      return constant(Tensor::zeros(Config.Hidden));
    return F2.last(VarEmbeds);
  }

  const DyproConfig &Config;
  const Vocabulary &Vocab;
  Var Embed;
  BoundGru F1, F2, Trace;
  std::unordered_map<std::string, Var> TokenCache;
};

} // namespace

GraphEncoding reference::dyproEncode(const ParamStore &Store,
                                     const Vocabulary &Vocab,
                                     const DyproConfig &Config,
                                     const MethodTraces &Traces) {
  return StringKeyedDypro(Store, Vocab, Config).encode(Traces);
}
