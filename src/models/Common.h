//===-- models/Common.h - Shared model infrastructure -----------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dataset sample type and vocabulary construction shared by LIGER and
/// the baselines. A MethodSample bundles everything any model may need:
/// the parsed function (static models), its collected blended traces
/// (dynamic models), and the labels (method-name sub-tokens and/or a
/// semantics class).
///
/// Vocabulary: following §6.1 ("our vocabulary has 9,641 unique tokens
/// (for both static and dynamic feature dimensions)"), one joint
/// Vocabulary holds the static tokens Ds (AST labels and token
/// spellings) and the dynamic value tokens Dd.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_MODELS_COMMON_H
#define LIGER_MODELS_COMMON_H

#include "lang/AstTree.h"
#include "nn/Module.h"
#include "trace/Trace.h"
#include "trace/Vocabulary.h"

#include <memory>
#include <string>
#include <vector>

namespace liger {

/// One corpus method with labels and traces.
struct MethodSample {
  /// Owning pointer: each generated method lives in its own Program.
  std::shared_ptr<Program> Prog;
  const FunctionDecl *Fn = nullptr;
  /// Blended traces (non-owning pointers into *Prog).
  MethodTraces Traces;
  /// Target for method name prediction (lower-case sub-tokens).
  std::vector<std::string> NameSubtokens;
  /// Target for semantics classification.
  int ClassId = -1;
  /// Grouping key for train/valid/test splits (the paper splits by
  /// project so identical helpers don't leak).
  std::string Project;
};

/// Adds Ds tokens (statement-tree labels along every path) and Dd
/// tokens (state value tokens) of \p Sample to \p Vocab.
void addSampleToVocabulary(const MethodSample &Sample, Vocabulary &Vocab);

/// Caps of the AST path sampler code2vec and code2seq share: paths per
/// method, interior nodes per path, and leaf-index distance per path.
constexpr size_t MaxAstPaths = 120;
constexpr size_t MaxAstPathLength = 12;
constexpr size_t MaxAstPathWidth = 16;

/// The leaf-to-leaf AST paths of \p Sample's function body within the
/// caps above, sampled deterministically from the FNV-1a hash of the
/// function's name XOR \p Salt; each model passes its own salt, so the
/// two static baselines draw different samples.
std::vector<AstPath> sampleAstPaths(const MethodSample &Sample, uint64_t Salt);

/// Adds the sample's name sub-tokens to the decoder target vocabulary.
void addNameToVocabulary(const MethodSample &Sample, Vocabulary &Vocab);

/// Encodes name sub-tokens as target ids with EOS appended.
std::vector<int> nameTargetIds(const std::vector<std::string> &Subtokens,
                               const Vocabulary &TargetVocab);

/// Decodes target ids back to sub-token strings (stops at EOS, skips
/// specials).
std::vector<std::string> idsToSubtokens(const std::vector<int> &Ids,
                                        const Vocabulary &TargetVocab);

/// Lockstep batching schedule over variable-length sequences: entry t
/// lists the indices of every sequence still active at timestep t
/// (Lens[i] > t), in ascending index order. The schedule has
/// max(Lens) timesteps; callers feed each timestep's active lanes to
/// one batched cell/attention step so same-timestep samples share a
/// matmul.
std::vector<std::vector<size_t>>
lockstepSchedule(const std::vector<size_t> &Lens);

/// Runs one shared recurrent cell over many variable-length sequences
/// in lockstep: at each timestep every still-active sequence advances
/// through one batched cell step (RecurrentCell::stepBatch), so
/// same-timestep lanes share a matmul. Returns each sequence's final
/// state; per-lane values are bitwise-identical to RecurrentCell::run
/// over that sequence alone.
std::vector<Var>
runCellLockstep(const RecurrentCell &Cell,
                const std::vector<std::vector<Var>> &Seqs);

} // namespace liger

#endif // LIGER_MODELS_COMMON_H
