//===-- examples/method_name_demo.cpp - Train LIGER to name methods -------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// End-to-end method name prediction (§6.1): generate a corpus from the
// task library, split by project, train LIGER, and print its
// predictions on held-out methods next to the ground truth.
//
// Run:  ./method_name_demo [--methods=N] [--epochs=N] [--hidden=N] ...
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"
#include "lang/AstPrinter.h"
#include "models/Liger.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace liger;

int main(int Argc, char **Argv) {
  ExperimentScale Scale = ExperimentScale::fromArgs(Argc, Argv);
  Scale.MethodsMed = std::min<size_t>(Scale.MethodsMed, 160);
  Scale.Epochs = std::max<size_t>(Scale.Epochs, 10);
  Scale.LearningRate = 4e-3f;

  std::printf("generating corpus (%zu raw methods)...\n", Scale.MethodsMed);
  NameTask Task = buildNameTask(Scale, /*Large=*/false);
  std::printf("kept %zu methods: train %zu / valid %zu / test %zu\n",
              Task.Stats.Kept, Task.Split.Train.size(),
              Task.Split.Valid.size(), Task.Split.Test.size());
  std::printf("joint vocabulary %d tokens, target vocabulary %d "
              "sub-tokens\n\n",
              Task.Joint.size(), Task.Target.size());

  LigerConfig Config;
  Config.EmbedDim = Scale.EmbedDim;
  Config.Hidden = Scale.Hidden;
  Config.AttnHidden = Scale.Hidden;
  LigerNamePredictor Net(Task.Joint, Task.Target, Config, Scale.Seed);
  std::printf("LIGER model: %zu trainable scalars\n",
              Net.params().numScalars());

  NameModelHooks Hooks;
  Hooks.Loss = [&](const MethodSample &S) { return Net.loss(S); };
  Hooks.Predict = [&](const std::vector<MethodSample> &Samples) {
    return Net.predict(Samples);
  };
  Hooks.Params = &Net.params();

  TrainOptions Train = Scale.trainOptions();
  Train.Verbose = true;
  std::printf("training %zu epochs...\n", Train.Epochs);
  TrainResult Result =
      trainNameModel(Hooks, Task.Split.Train, Task.Split.Valid, Train);
  std::printf("done in %.1fs (best valid F1 %.1f at epoch %zu)\n\n",
              Result.Seconds, Result.BestValidScore, Result.BestEpoch);

  PrfScores Test = evaluateNameModel(Hooks, Task.Split.Test);
  std::printf("test: precision %.2f  recall %.2f  F1 %.2f\n\n",
              Test.Precision, Test.Recall, Test.F1);

  std::printf("== Sample predictions on held-out methods ==\n");
  std::vector<std::vector<std::string>> Predicted =
      Net.predict(Task.Split.Test);
  for (size_t I = 0; I < Predicted.size() && I < 8; ++I)
    std::printf("actual: %-28s predicted: %s\n",
                join(Task.Split.Test[I].NameSubtokens, " ").c_str(),
                join(Predicted[I], " ").c_str());
  return 0;
}
