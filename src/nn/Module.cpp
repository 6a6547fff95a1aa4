//===-- nn/Module.cpp - Neural network building blocks --------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "nn/Module.h"

#include "nn/Checkpoint.h"

using namespace liger;

namespace {

/// Draws a Glorot-uniform [Rows x Cols] block into rows
/// [Row0, Row0 + Rows) of \p Packed, consuming exactly the Rng draws
/// the per-gate Tensor::xavier(Rows, Cols, R) call made — a fixed seed
/// yields the same initial weights as the pre-packing layout.
void xavierRows(Tensor &Packed, size_t Row0, size_t Rows, size_t Cols,
                Rng &R) {
  float Bound = std::sqrt(6.0f / static_cast<float>(Rows + Cols));
  float *D = Packed.data() + Row0 * Cols;
  for (size_t I = 0; I < Rows * Cols; ++I)
    D[I] = R.nextFloat(-Bound, Bound);
}

} // namespace

//===----------------------------------------------------------------------===//
// ParamStore
//===----------------------------------------------------------------------===//

Var ParamStore::addParam(const std::string &Name, Tensor Init) {
  // Parameters are store-owned (not arena-owned): they must survive
  // arena resets between samples/epochs. As leaves they sit on no
  // arena's tape, and backward never writes to them outside a grad
  // slot, so graphs on several threads may read them at once.
  Storage.emplace_back();
  Node &N = Storage.back();
  N.Value = std::move(Init);
  N.RequiresGrad = true;
  N.ParamIndex = static_cast<int32_t>(Params.size());
  Params.push_back(&N);
  Names.push_back(Name);
  return &N;
}

void ParamStore::zeroGrads() {
  for (const Var &P : Params)
    if (!P->Grad.empty())
      P->Grad.zero();
}

size_t ParamStore::numScalars() const {
  size_t Total = 0;
  for (const Var &P : Params)
    Total += P->Value.size();
  return Total;
}

double ParamStore::gradNorm() const {
  double Total = 0;
  for (const Var &P : Params)
    if (!P->Grad.empty())
      Total += P->Grad.sumSquares();
  return std::sqrt(Total);
}

void ParamStore::scaleGrads(float Factor) {
  for (const Var &P : Params)
    if (!P->Grad.empty())
      P->Grad.scale(Factor);
}

void ParamStore::accumulateSink(const GradSink &Sink) {
  for (size_t I = 0; I < Sink.size(); ++I) {
    if (!Sink.touched(I))
      continue;
    Node &P = *Params[I];
    if (P.Grad.empty())
      P.Grad = Tensor::zerosLike(P.Value);
    P.Grad.accumulate(Sink.grad(I));
  }
}

bool ParamStore::save(const std::string &Path, std::string *Error) const {
  return saveCheckpoint(Path, *this, nullptr, nullptr, Error);
}

bool ParamStore::load(const std::string &Path, std::string *Error) {
  return loadCheckpoint(Path, *this, nullptr, nullptr, Error);
}

//===----------------------------------------------------------------------===//
// Linear / Mlp
//===----------------------------------------------------------------------===//

Linear::Linear(ParamStore &Store, const std::string &Name, size_t In,
               size_t Out, Rng &R) {
  W = Store.addParam(Name + ".W", Tensor::xavier(Out, In, R));
  B = Store.addParam(Name + ".b", Tensor::zeros(Out));
}

Var Linear::apply(const Var &X) const { return add(matvec(W, X), B); }

std::vector<Var>
Linear::softmaxCrossEntropyBatch(ArrayRef<Var> Xs,
                                 ArrayRef<size_t> Targets) const {
  return softmaxCrossEntropyBatchOp(W, B, Xs, Targets);
}

Mlp::Mlp(ParamStore &Store, const std::string &Name, size_t In, size_t Hidden,
         size_t Out, Rng &R)
    : First(Store, Name + ".l1", In, Hidden, R),
      Second(Store, Name + ".l2", Hidden, Out, R) {}

Var Mlp::apply(const Var &X) const {
  return Second.apply(tanhV(First.apply(X)));
}

//===----------------------------------------------------------------------===//
// RecurrentCell
//===----------------------------------------------------------------------===//

RecurrentCell::RecurrentCell(ParamStore &Store, const std::string &Name,
                             size_t In, size_t Hidden, Rng &R)
    : Hidden(Hidden) {
  // The gate weights are stored packed (z, r, n); per-gate blocks are
  // drawn in the pre-packing creation order (all x-projections, then
  // all h-projections) so fixed seeds reproduce.
  constexpr size_t K = 3;
  Tensor Wx = Tensor::zeros(K * Hidden, In);
  for (size_t G = 0; G < K; ++G)
    xavierRows(Wx, G * Hidden, Hidden, In, R);
  Tensor Wh = Tensor::zeros(K * Hidden, Hidden);
  for (size_t G = 0; G < K; ++G)
    xavierRows(Wh, G * Hidden, Hidden, Hidden, R);
  PWx = Store.addParam(Name + ".Wx", std::move(Wx));
  PBx = Store.addParam(Name + ".bx", Tensor::zeros(K * Hidden));
  PWh = Store.addParam(Name + ".Wh", std::move(Wh));
}

Var RecurrentCell::initial() const { return constant(Tensor::zeros(Hidden)); }

Var RecurrentCell::step(const Var &X, const Var &Prev) const {
  return stepBatch(X, Prev)[0];
}

std::vector<Var> RecurrentCell::stepBatch(ArrayRef<Var> Xs,
                                          ArrayRef<Var> Prev) const {
  return gruCellBatchOp(PWx, PBx, PWh, Xs, Prev);
}

std::vector<Var> RecurrentCell::run(const std::vector<Var> &Inputs) const {
  std::vector<Var> States;
  States.reserve(Inputs.size());
  Var S = initial();
  for (const Var &X : Inputs) {
    S = step(X, S);
    States.push_back(S);
  }
  return States;
}

//===----------------------------------------------------------------------===//
// ChildSumTreeLstm
//===----------------------------------------------------------------------===//

ChildSumTreeLstm::ChildSumTreeLstm(ParamStore &Store, const std::string &Name,
                                   size_t In, size_t Hidden, Rng &R)
    : In(In), Hidden(Hidden) {
  // Pack order is i, o, u, f (the i/o/u rows are the h~-side matvecN
  // block; the per-child forget block sits last), while the Rng draws
  // happen in the pre-packing creation order Wi, Wf, Wo, Wu / Ui, Uf,
  // Uo, Uu so fixed seeds reproduce the old initial weights.
  constexpr size_t RowI = 0, RowO = 1, RowU = 2, RowF = 3;
  Tensor Wx = Tensor::zeros(4 * Hidden, In);
  xavierRows(Wx, RowI * Hidden, Hidden, In, R);
  xavierRows(Wx, RowF * Hidden, Hidden, In, R);
  xavierRows(Wx, RowO * Hidden, Hidden, In, R);
  xavierRows(Wx, RowU * Hidden, Hidden, In, R);
  Tensor Wh = Tensor::zeros(4 * Hidden, Hidden);
  xavierRows(Wh, RowI * Hidden, Hidden, Hidden, R);
  xavierRows(Wh, RowF * Hidden, Hidden, Hidden, R);
  xavierRows(Wh, RowO * Hidden, Hidden, Hidden, R);
  xavierRows(Wh, RowU * Hidden, Hidden, Hidden, R);
  PWx = Store.addParam(Name + ".Wx", std::move(Wx));
  PBx = Store.addParam(Name + ".bx", Tensor::zeros(4 * Hidden));
  PWh = Store.addParam(Name + ".Wh", std::move(Wh));
}

namespace {

/// h~ = Σ_k h_k (zero vector for leaves), kept as ordinary add nodes so
/// its gradient flows through the graph rather than the fused node.
Var childHSum(const std::vector<Var> &ChildHs, size_t Hidden) {
  if (ChildHs.empty())
    return constant(Tensor::zeros(Hidden));
  Var HSum = ChildHs.size() == 1 ? ChildHs[0] : add(ChildHs[0], ChildHs[1]);
  for (size_t I = 2; I < ChildHs.size(); ++I)
    HSum = add(HSum, ChildHs[I]);
  return HSum;
}

} // namespace

ChildSumTreeLstm::NodeState ChildSumTreeLstm::embedNode(
    const AstTree &Tree,
    const std::function<Var(const std::string &)> &Embed) const {
  // Bottom-up: children first.
  std::vector<NodeState> Children;
  Children.reserve(Tree.Children.size());
  for (const AstTree &Child : Tree.Children)
    Children.push_back(embedNode(Child, Embed));

  Var X = Embed(Tree.Label);

  std::vector<Var> ChildHs, ChildCs;
  ChildHs.reserve(Children.size());
  ChildCs.reserve(Children.size());
  for (const NodeState &Child : Children) {
    ChildHs.push_back(Child.H);
    ChildCs.push_back(Child.C);
  }
  Var HSum = childHSum(ChildHs, Hidden);

  CellOut Out = treeLstmNodeOp(PWx, PBx, PWh, X, HSum, ChildHs, ChildCs);
  NodeState Result;
  Result.H = Out.H;
  Result.C = Out.C;
  return Result;
}

Var ChildSumTreeLstm::embed(
    const AstTree &Tree,
    const std::function<Var(const std::string &)> &Embed) const {
  return embedNode(Tree, Embed).H;
}

//===----------------------------------------------------------------------===//
// EmbeddingTable / AttentionScorer
//===----------------------------------------------------------------------===//

EmbeddingTable::EmbeddingTable(ParamStore &Store, const std::string &Name,
                               size_t VocabSize, size_t Dim, Rng &R) {
  Table = Store.addParam(Name, Tensor::xavier(VocabSize, Dim, R));
}

Var EmbeddingTable::lookup(int Id) const {
  LIGER_CHECK(Id >= 0 && static_cast<size_t>(Id) < Table->Value.dim(0),
              "embedding id out of range");
  return row(Table, static_cast<size_t>(Id));
}

AttentionScorer::AttentionScorer(ParamStore &Store, const std::string &Name,
                                 size_t QueryDim, size_t KeyDim,
                                 size_t Hidden, Rng &R)
    : QueryDim(QueryDim), KeyDim(KeyDim) {
  // Same parameter names, shapes, and Rng draw order as the
  // Mlp(Name, KeyDim + QueryDim, Hidden, 1) this class used to wrap,
  // so existing checkpoints load bit-exactly and fixed seeds reproduce:
  // the key/query split is purely how the packed first layer is
  // *computed* (column bands), never how it is stored.
  W1 = Store.addParam(Name + ".l1.W",
                      Tensor::xavier(Hidden, KeyDim + QueryDim, R));
  B1 = Store.addParam(Name + ".l1.b", Tensor::zeros(Hidden));
  W2 = Store.addParam(Name + ".l2.W", Tensor::xavier(1, Hidden, R));
  B2 = Store.addParam(Name + ".l2.b", Tensor::zeros(1));
}

AttentionScorer::Memory
AttentionScorer::prepare(const std::vector<Var> &Keys) const {
  if (Keys.empty())
    reportFatalError("attention over an empty key set (memory size 0, "
                     "query dim " +
                     std::to_string(QueryDim) + ", key dim " +
                     std::to_string(KeyDim) + ")");
  Memory Mem;
  Mem.Keys = Keys;
  Mem.KeyProj = attentionKeyProj(W1, B1, Keys);
  return Mem;
}

AttentionScorer::Result
AttentionScorer::contextOf(const Var &Query, const Memory &Mem) const {
  return contextOfMultiMemory(Query, &Mem)[0];
}

std::vector<AttentionScorer::Result>
AttentionScorer::contextOfMultiMemory(ArrayRef<Var> Queries,
                                      ArrayRef<const Memory *> Mems) const {
  return attentionMultiMemoryOp(W1, W2, B2, Queries, Mems);
}
