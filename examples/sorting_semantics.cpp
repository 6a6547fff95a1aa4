//===-- examples/sorting_semantics.cpp - The paper's Fig. 1/2 demo --------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Reproduces the paper's motivating example (Figures 1 and 2): three
// sorting routines where SortI (bubble) and SortIII (flag-controlled
// bubble) share semantics but differ syntactically, while SortII
// (insertion) is syntactically close to SortI but semantically a
// different algorithm.
//
// The demo (1) prints the state traces on the paper's input
// A = [8, 5, 1, 4, 3]; (2) trains a small LIGER classifier on
// generated sorting variants; (3) shows that the *dynamic* evidence
// groups SortI with SortIII — the distinction static models miss.
//
// Run:  ./sorting_semantics
//
//===----------------------------------------------------------------------===//

#include "dataset/Corpus.h"
#include "lang/Parser.h"
#include "models/Liger.h"
#include "nn/Optim.h"
#include "testgen/TraceCollector.h"

#include <cmath>
#include <cstdio>

using namespace liger;

namespace {

const char *SortI = R"(
int[] sortI(int[] A)
{
  int left = 0;
  int right = len(A) - 1;
  for (int i = right; i > left; i--) {
    for (int j = left; j < i; j++) {
      if (A[j] > A[j + 1]) {
        int tmp = A[j];
        A[j] = A[j + 1];
        A[j + 1] = tmp;
      }
    }
  }
  return A;
}
)";

const char *SortII = R"(
int[] sortII(int[] A)
{
  int left = 0;
  int right = len(A);
  for (int i = left; i < right; i++) {
    for (int j = i - 1; j >= left; j--) {
      if (A[j] > A[j + 1]) {
        int tmp = A[j];
        A[j] = A[j + 1];
        A[j + 1] = tmp;
      }
    }
  }
  return A;
}
)";

const char *SortIII = R"(
int[] sortIII(int[] A)
{
  int swapbit = 1;
  while (swapbit != 0) {
    swapbit = 0;
    for (int i = 0; i < len(A) - 1; i++) {
      if (A[i] > A[i + 1]) {
        int tmp = A[i];
        A[i] = A[i + 1];
        A[i + 1] = tmp;
        swapbit = 1;
      }
    }
  }
  return A;
}
)";

MethodSample makeSortSample(const char *Source) {
  DiagnosticSink Diags;
  std::optional<Program> P = parseAndCheck(Source, Diags);
  LIGER_CHECK(P.has_value(), "demo sources must parse");
  MethodSample Sample;
  Sample.Prog = std::make_shared<Program>(std::move(*P));
  Sample.Fn = &Sample.Prog->Functions.front();
  TestGenOptions Gen;
  Gen.TargetPaths = 6;
  Gen.ExecutionsPerPath = 3;
  Gen.Seed = 77;
  Sample.Traces = collectTraces(*Sample.Prog, *Sample.Fn, Gen);
  return Sample;
}

double cosine(const Tensor &A, const Tensor &B) {
  double Dot = 0, NA = 0, NB = 0;
  for (size_t I = 0; I < A.size(); ++I) {
    Dot += static_cast<double>(A[I]) * B[I];
    NA += static_cast<double>(A[I]) * A[I];
    NB += static_cast<double>(B[I]) * B[I];
  }
  return Dot / (std::sqrt(NA) * std::sqrt(NB) + 1e-12);
}

} // namespace

int main() {
  // Part 1: the Fig. 2 state traces on A = [8, 5, 1, 4, 3].
  std::printf("== Fig. 2: state traces on A = [8, 5, 1, 4, 3] ==\n");
  for (const char *Source : {SortI, SortII, SortIII}) {
    DiagnosticSink Diags;
    Program P = std::move(*parseAndCheck(Source, Diags));
    const FunctionDecl &Fn = P.Functions.front();
    std::vector<Value> A{Value::makeArray({Value::makeInt(8),
                                           Value::makeInt(5),
                                           Value::makeInt(1),
                                           Value::makeInt(4),
                                           Value::makeInt(3)})};
    ExecResult Run = execute(P, Fn, A);
    std::printf("\n%s — %zu steps, first array mutations:\n",
                Fn.Name.c_str(), Run.Steps.size());
    int Shown = 0;
    for (size_t I = 0; I < Run.Steps.size(); ++I) {
      const auto *Assign = dyn_cast<AssignStmt>(Run.Steps[I].Statement);
      if (!Assign || !isa<IndexExpr>(Assign->target()))
        continue;
      ProgramState State{Run.States[I]};
      std::printf("  %s\n", State.str(Run.VarNames).c_str());
      if (++Shown == 4)
        break;
    }
  }

  // Part 2: train a small LIGER classifier on generated sort variants
  // (bubble / insertion / bubble-flag / selection from the task
  // library).
  std::printf("\n== Training a LIGER classifier on sorting variants ==\n");
  CosetOptions Options;
  Options.ProgramsPerClass = 6;
  Options.TraceGen.TargetPaths = 6;
  Options.TraceGen.ExecutionsPerPath = 3;
  std::vector<std::string> AllClassNames;
  std::vector<MethodSample> AllSamples =
      generateCosetCorpus(Options, AllClassNames);

  // Keep only the sortArray problem, and merge the two bubble-sort
  // formulations into one class — the paper's point is precisely that
  // SortI and SortIII implement the *same* algorithm.
  std::vector<MethodSample> Samples;
  std::vector<std::string> ClassNames;
  std::vector<int> ClassMap(AllClassNames.size(), -1);
  for (size_t I = 0; I < AllClassNames.size(); ++I) {
    if (AllClassNames[I].rfind("sortArray/", 0) != 0)
      continue;
    std::string Label = AllClassNames[I] == "sortArray/bubble-flag"
                            ? "sortArray/bubble"
                            : AllClassNames[I];
    int Existing = -1;
    for (size_t C = 0; C < ClassNames.size(); ++C)
      if (ClassNames[C] == Label)
        Existing = static_cast<int>(C);
    if (Existing < 0) {
      Existing = static_cast<int>(ClassNames.size());
      ClassNames.push_back(Label);
    }
    ClassMap[I] = Existing;
  }
  for (MethodSample &Sample : AllSamples)
    if (ClassMap[static_cast<size_t>(Sample.ClassId)] >= 0) {
      Sample.ClassId = ClassMap[static_cast<size_t>(Sample.ClassId)];
      Samples.push_back(std::move(Sample));
    }
  std::printf("%zu training programs across %zu algorithm classes\n",
              Samples.size(), ClassNames.size());

  Vocabulary Joint;
  for (const MethodSample &Sample : Samples)
    addSampleToVocabulary(Sample, Joint);
  // The Fig. 1 programs must be encodable too.
  MethodSample S1 = makeSortSample(SortI);
  MethodSample S2 = makeSortSample(SortII);
  MethodSample S3 = makeSortSample(SortIII);
  addSampleToVocabulary(S1, Joint);
  addSampleToVocabulary(S2, Joint);
  addSampleToVocabulary(S3, Joint);
  Joint.freeze();

  LigerConfig Config;
  Config.EmbedDim = 20;
  Config.Hidden = 20;
  Config.AttnHidden = 20;
  LigerClassifier Model(Joint, ClassNames.size(), Config, /*Seed=*/5);
  AdamOptions AdamOpts;
  AdamOpts.LearningRate = 6e-3f;
  Adam Opt(Model.params(), AdamOpts);
  Rng Shuffler(9);
  for (int Epoch = 0; Epoch < 10; ++Epoch) {
    Shuffler.shuffle(Samples);
    double EpochLoss = 0;
    for (size_t Begin = 0; Begin < Samples.size(); Begin += 6) {
      std::vector<Var> Losses;
      for (size_t I = Begin; I < std::min(Samples.size(), Begin + 6); ++I)
        Losses.push_back(Model.loss(Samples[I]));
      Var Batch = meanLoss(Losses);
      EpochLoss += Batch->Value[0];
      backward(Batch);
      Opt.step();
    }
    std::printf("  epoch %d  mean batch loss %.3f\n", Epoch,
                EpochLoss / ((Samples.size() + 5) / 6));
  }

  // Part 3: classify the paper's three programs and compare embeddings.
  std::printf("\n== Fig. 1 programs through the trained model ==\n");
  auto Report = [&](const char *Name, const MethodSample &Sample) {
    int Class = Model.predict(Sample);
    std::printf("%-8s -> %s\n", Name,
                ClassNames[static_cast<size_t>(Class)].c_str());
  };
  Report("SortI", S1);
  Report("SortII", S2);
  Report("SortIII", S3);

  Tensor E1 = Model.embed(S1.Traces);
  Tensor E2 = Model.embed(S2.Traces);
  Tensor E3 = Model.embed(S3.Traces);
  std::printf("\nembedding cosine similarities:\n");
  std::printf("  cos(SortI, SortIII) = %.3f   (same algorithm)\n",
              cosine(E1, E3));
  std::printf("  cos(SortI, SortII)  = %.3f   (different algorithm)\n",
              cosine(E1, E2));
  return 0;
}
