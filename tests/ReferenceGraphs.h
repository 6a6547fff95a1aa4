//===-- tests/ReferenceGraphs.h - Per-gate and per-pair oracles -*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference graphs the fused ops of nn/Graph.h are pinned against.
/// Each function rebuilds one fused op as a chain of elementary graph
/// nodes: per-gate matvecs over rowsView/sliceView blocks of a cell's
/// packed weights, and per-key score chains over colsView bands of an
/// attention scorer's packed first layer.
///
/// The fused backward closures replay exactly these chains in
/// descending creation order, which is what makes the two paths
/// bitwise-identical in loss, gradients and post-Adam parameters. Node
/// creation order is therefore load-bearing: every op below is its own
/// sequenced statement (nested calls would leave argument evaluation
/// order unspecified), and the TreeLSTM creates fresh forget-gate views
/// per child.
///
/// The functions read a module's packed parameters by name from its
/// ParamStore. A test builds the production module, which registers and
/// initializes the parameters, and runs both paths over the same
/// weights.
///
/// decodeGreedy is the graph greedy decode that evaluation ran before
/// the forward-only GreedyDecoder (models/Inference.h) replaced it: the
/// oracle that decoder is pinned against. dyproEncode is DYPRO's encoder
/// as it was before it read token ids through ValueTokenIds: the oracle
/// DyproEncoder::encode is pinned against.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_TESTS_REFERENCEGRAPHS_H
#define LIGER_TESTS_REFERENCEGRAPHS_H

#include "models/Dypro.h"
#include "nn/Module.h"

namespace liger::reference {

/// The parameter registered as \p Name in \p Store (fatal if absent).
Var param(const ParamStore &Store, const std::string &Name);

/// One per-gate step of the GRU registered as \p Cell (packed
/// parameters Cell.Wx, Cell.bx, Cell.Wh) — the reference for
/// RecurrentCell::step.
Var cellStep(const ParamStore &Store, const std::string &Cell, const Var &X,
             const Var &Prev);

/// RecurrentCell::run through cellStep: folds \p Inputs from
/// \p Initial and returns the state after each input.
std::vector<Var> cellRun(const ParamStore &Store, const std::string &Cell,
                         Var Initial, const std::vector<Var> &Inputs);

/// Per-gate embedding of \p Tree by the Child-Sum TreeLSTM registered
/// as \p Name — the reference for ChildSumTreeLstm::embed.
Var treeLstmEmbed(const ParamStore &Store, const std::string &Name,
                  const AstTree &Tree,
                  const std::function<Var(const std::string &)> &Embed);

/// Key-side first-layer rows add(matvec(colsView(W1, 0, KeyDim), k), b1)
/// of the attention scorer registered as \p Name, one node per key —
/// the reference for AttentionScorer::prepare.
std::vector<Var> attentionKeyProjRows(const ParamStore &Store,
                                      const std::string &Name,
                                      const std::vector<Var> &Keys);

/// All pre-softmax scores of \p Query over prepared key rows as one [T]
/// node: the query-side matvec, then one tanh / second-layer chain per
/// key.
Var attentionScores(const ParamStore &Store, const std::string &Name,
                    const Var &Query, const std::vector<Var> &KeyProjRows);

/// The score of one (query, key) pair, built from scratch.
Var attentionPairScore(const ParamStore &Store, const std::string &Name,
                       const Var &Query, const Var &Key);

/// One attention read: softmax of attentionScores, then the weighted
/// key sum — the reference for AttentionScorer::contextOf.
AttentionScorer::Result attentionContext(const ParamStore &Store,
                                         const std::string &Name,
                                         const Var &Query,
                                         const std::vector<Var> &Keys,
                                         const std::vector<Var> &KeyProjRows);

/// Greedy decoding by the SeqDecoder registered as \p Name from
/// \p ProgramEmbedding over \p Memory, built from the fused graph ops
/// its modules call, until Eos or \p MaxLen tokens. The returned
/// target ids do not include Eos.
std::vector<int> decodeGreedy(const ParamStore &Store, const std::string &Name,
                              const Var &ProgramEmbedding,
                              const std::vector<Var> &Memory, size_t MaxLen);

/// DYPRO's string-keyed encoding of \p Traces by the parameters
/// "dypro.embed", "dypro.f1", "dypro.f2" and "dypro.trace" of \p Store:
/// every value is spelled by valueToken()/valueTokens() (an object's
/// tokens cut at MaxFlattenedValues) and looked up in \p Vocab, with
/// one embedding node per distinct spelling, and the cells run through
/// the fused op RecurrentCell calls.
GraphEncoding dyproEncode(const ParamStore &Store, const Vocabulary &Vocab,
                          const DyproConfig &Config,
                          const MethodTraces &Traces);

} // namespace liger::reference

#endif // LIGER_TESTS_REFERENCEGRAPHS_H
