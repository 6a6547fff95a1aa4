//===-- models/Common.cpp - Shared model infrastructure -------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "models/Common.h"

#include <algorithm>

using namespace liger;

namespace {

void addTreeLabels(const AstTree &Tree, Vocabulary &Vocab) {
  Vocab.add(Tree.Label);
  for (const AstTree &Child : Tree.Children)
    addTreeLabels(Child, Vocab);
}

} // namespace

void liger::addSampleToVocabulary(const MethodSample &Sample,
                                  Vocabulary &Vocab) {
  for (const BlendedTrace &Path : Sample.Traces.Paths) {
    // Static dimension: statement-tree labels.
    for (const SymbolicStep &Step : Path.Symbolic.Steps)
      addTreeLabels(buildStmtHeadTree(Step.Statement), Vocab);
    // Dynamic dimension: value tokens of every state (including s0).
    for (const StateTrace &States : Path.Concrete) {
      for (const Value &V : States.Initial.Values)
        for (const std::string &Token : valueTokens(V))
          Vocab.add(Token);
      for (const ProgramState &State : States.States)
        for (const Value &V : State.Values)
          for (const std::string &Token : valueTokens(V))
            Vocab.add(Token);
    }
  }
}

std::vector<AstPath> liger::sampleAstPaths(const MethodSample &Sample,
                                           uint64_t Salt) {
  uint64_t Seed = 1469598103934665603ULL;
  for (char C : Sample.Fn->Name) {
    Seed ^= static_cast<unsigned char>(C);
    Seed *= 1099511628211ULL;
  }
  return extractAstPaths(buildFunctionTree(*Sample.Fn), MaxAstPaths,
                         MaxAstPathLength, MaxAstPathWidth, Seed ^ Salt);
}

void liger::addNameToVocabulary(const MethodSample &Sample,
                                Vocabulary &Vocab) {
  for (const std::string &Token : Sample.NameSubtokens)
    Vocab.add(Token);
}

std::vector<int>
liger::nameTargetIds(const std::vector<std::string> &Subtokens,
                     const Vocabulary &TargetVocab) {
  std::vector<int> Ids;
  Ids.reserve(Subtokens.size() + 1);
  for (const std::string &Token : Subtokens)
    Ids.push_back(TargetVocab.lookup(Token));
  Ids.push_back(Vocabulary::Eos);
  return Ids;
}

std::vector<std::string>
liger::idsToSubtokens(const std::vector<int> &Ids,
                      const Vocabulary &TargetVocab) {
  std::vector<std::string> Out;
  for (int Id : Ids) {
    if (Id == Vocabulary::Eos)
      break;
    if (Id == Vocabulary::Pad || Id == Vocabulary::Sos ||
        Id == Vocabulary::Unk)
      continue;
    Out.push_back(TargetVocab.token(Id));
  }
  return Out;
}

std::vector<std::vector<size_t>>
liger::lockstepSchedule(const std::vector<size_t> &Lens) {
  size_t MaxLen = 0;
  for (size_t L : Lens)
    MaxLen = std::max(MaxLen, L);
  std::vector<std::vector<size_t>> Schedule(MaxLen);
  for (size_t T = 0; T < MaxLen; ++T)
    for (size_t I = 0; I < Lens.size(); ++I)
      if (Lens[I] > T)
        Schedule[T].push_back(I);
  return Schedule;
}

std::vector<Var>
liger::runCellLockstep(const RecurrentCell &Cell,
                       const std::vector<std::vector<Var>> &Seqs) {
  std::vector<Var> States;
  States.reserve(Seqs.size());
  std::vector<size_t> Lens;
  Lens.reserve(Seqs.size());
  for (const std::vector<Var> &Seq : Seqs) {
    States.push_back(Cell.initial());
    Lens.push_back(Seq.size());
  }
  std::vector<std::vector<size_t>> Schedule = lockstepSchedule(Lens);
  for (size_t T = 0; T < Schedule.size(); ++T) {
    const std::vector<size_t> &Active = Schedule[T];
    std::vector<Var> Ins;
    std::vector<Var> Prev;
    Ins.reserve(Active.size());
    Prev.reserve(Active.size());
    for (size_t I : Active) {
      Ins.push_back(Seqs[I][T]);
      Prev.push_back(States[I]);
    }
    std::vector<Var> Next = Cell.stepBatch(Ins, Prev);
    for (size_t K = 0; K < Active.size(); ++K)
      States[Active[K]] = Next[K];
  }
  return States;
}
