//===-- tests/NnTests.cpp - Unit tests for the autodiff/NN library --------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "nn/Checkpoint.h"
#include "nn/GradCheck.h"
#include "nn/Graph.h"
#include "nn/Module.h"
#include "nn/Optim.h"
#include "support/StringUtils.h"

#include "ActivationSweep.h"
#include "ReferenceGraphs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

using namespace liger;

namespace {

Var vec(std::initializer_list<float> Values) {
  return constant(Tensor::fromVector(Values));
}

} // namespace

//===----------------------------------------------------------------------===//
// Forward-value sanity
//===----------------------------------------------------------------------===//

TEST(GraphTest, MatvecForward) {
  Rng R(1);
  Tensor M = Tensor::zeros(2, 3);
  M.at(0, 0) = 1;
  M.at(0, 1) = 2;
  M.at(0, 2) = 3;
  M.at(1, 0) = 4;
  M.at(1, 1) = 5;
  M.at(1, 2) = 6;
  Var Y = matvec(constant(M), vec({1, 0, -1}));
  EXPECT_FLOAT_EQ(Y->Value[0], -2.0f);
  EXPECT_FLOAT_EQ(Y->Value[1], -2.0f);
}

TEST(GraphTest, ElementwiseForward) {
  Var A = vec({1, -2});
  Var B = vec({3, 4});
  EXPECT_FLOAT_EQ(add(A, B)->Value[1], 2.0f);
  EXPECT_FLOAT_EQ(sub(A, B)->Value[0], -2.0f);
  EXPECT_FLOAT_EQ(mul(A, B)->Value[1], -8.0f);
  EXPECT_FLOAT_EQ(scale(A, 2.0f)->Value[0], 2.0f);
  EXPECT_NEAR(tanhV(A)->Value[0], std::tanh(1.0f), 1e-6);
  EXPECT_NEAR(sigmoidV(A)->Value[1], 1.0f / (1.0f + std::exp(2.0f)), 1e-6);
}

TEST(GraphTest, ConcatAndStack) {
  Var C = concat(vec({1, 2}), vec({3}));
  ASSERT_EQ(C->Value.size(), 3u);
  EXPECT_FLOAT_EQ(C->Value[2], 3.0f);

  Var S = stackScalars({vec({7}), vec({8})});
  EXPECT_FLOAT_EQ(S->Value[1], 8.0f);
}

TEST(GraphTest, SoftmaxNormalizes) {
  Var S = softmax(vec({1, 2, 3}));
  float Sum = S->Value[0] + S->Value[1] + S->Value[2];
  EXPECT_NEAR(Sum, 1.0f, 1e-6);
  EXPECT_GT(S->Value[2], S->Value[1]);
}

TEST(GraphTest, SoftmaxStableForLargeLogits) {
  Var S = softmax(vec({1000, 1001}));
  EXPECT_FALSE(std::isnan(S->Value[0]));
  EXPECT_NEAR(S->Value[0] + S->Value[1], 1.0f, 1e-6);
}

TEST(GraphTest, PoolsAndCombine) {
  std::vector<Var> Items{vec({1, 5}), vec({3, 2})};
  Var Max = maxPool(Items);
  EXPECT_FLOAT_EQ(Max->Value[0], 3.0f);
  EXPECT_FLOAT_EQ(Max->Value[1], 5.0f);
  Var Mean = meanPool(Items);
  EXPECT_FLOAT_EQ(Mean->Value[0], 2.0f);
  Var W = vec({0.25f, 0.75f});
  Var Combined = weightedCombine(Items, W);
  EXPECT_FLOAT_EQ(Combined->Value[0], 0.25f * 1 + 0.75f * 3);
}

TEST(GraphTest, CrossEntropyValue) {
  Var L = softmaxCrossEntropy(vec({0, 0, 0}), 1);
  EXPECT_NEAR(L->Value[0], std::log(3.0f), 1e-5);
}

TEST(GraphTest, ArgmaxHelper) {
  EXPECT_EQ(argmax(Tensor::fromVector({0.1f, 0.9f, 0.5f})), 1u);
}

//===----------------------------------------------------------------------===//
// Gradient checks per op
//===----------------------------------------------------------------------===//

namespace {

/// Helper: one parameter vector, build a loss from it, gradcheck.
void checkOp(const std::function<Var(const Var &)> &Build, size_t Dim = 4) {
  ParamStore Store;
  Rng R(7);
  Var P = Store.addParam("p", Tensor::uniform(Dim, 0.8f, R));
  GradCheckResult Result =
      checkGradients(Store, [&] { return Build(P); });
  EXPECT_TRUE(Result.Ok) << "max rel error " << Result.MaxRelError << " at "
                         << Result.WorstParam;
}

} // namespace

TEST(GradCheckTest, AddSubMulScale) {
  checkOp([](const Var &P) {
    Var Q = add(P, scale(P, 0.5f));
    Q = sub(Q, mul(P, P));
    return sumV(mul(Q, Q));
  });
}

TEST(GradCheckTest, TanhSigmoidRelu) {
  checkOp([](const Var &P) {
    return sumV(mul(tanhV(P), sigmoidV(P)));
  });
}

TEST(GradCheckTest, MatvecAndDot) {
  ParamStore Store;
  Rng R(9);
  Var M = Store.addParam("M", Tensor::xavier(3, 4, R));
  Var X = Store.addParam("x", Tensor::uniform(4, 0.9f, R));
  GradCheckResult Result = checkGradients(Store, [&] {
    Var Y = matvec(M, X);
    return dot(Y, Y);
  });
  EXPECT_TRUE(Result.Ok) << Result.MaxRelError << " at "
                         << Result.WorstParam;
}

TEST(GradCheckTest, ConcatRowStack) {
  ParamStore Store;
  Rng R(11);
  Var Table = Store.addParam("T", Tensor::xavier(5, 3, R));
  Var X = Store.addParam("x", Tensor::uniform(2, 0.5f, R));
  GradCheckResult Result = checkGradients(Store, [&] {
    Var E = row(Table, 2);
    Var C = concat(E, X);
    Var S1 = dot(C, C);
    Var S2 = sumV(row(Table, 2)); // same row twice: grads accumulate
    return sumV(stackScalars({S1, S2}));
  });
  EXPECT_TRUE(Result.Ok) << Result.MaxRelError << " at "
                         << Result.WorstParam;
}

TEST(GradCheckTest, SoftmaxAndCrossEntropy) {
  checkOp([](const Var &P) { return softmaxCrossEntropy(P, 2); });
  checkOp([](const Var &P) {
    Var S = softmax(P);
    return dot(S, S);
  });
}

TEST(GradCheckTest, PoolingOps) {
  ParamStore Store;
  Rng R(13);
  Var A = Store.addParam("a", Tensor::uniform(4, 0.9f, R));
  Var B = Store.addParam("b", Tensor::uniform(4, 0.9f, R));
  GradCheckResult Result = checkGradients(Store, [&] {
    Var Mx = maxPool({A, B});
    Var Mn = meanPool({A, B});
    return add(dot(Mx, Mx), dot(Mn, Mn));
  });
  EXPECT_TRUE(Result.Ok) << Result.MaxRelError << " at "
                         << Result.WorstParam;
}

TEST(GradCheckTest, WeightedCombineWithSoftmaxWeights) {
  ParamStore Store;
  Rng R(15);
  Var A = Store.addParam("a", Tensor::uniform(3, 0.9f, R));
  Var B = Store.addParam("b", Tensor::uniform(3, 0.9f, R));
  Var Scores = Store.addParam("s", Tensor::uniform(2, 0.9f, R));
  GradCheckResult Result = checkGradients(Store, [&] {
    Var W = softmax(Scores);
    Var C = weightedCombine({A, B}, W);
    return dot(C, C);
  });
  EXPECT_TRUE(Result.Ok) << Result.MaxRelError << " at "
                         << Result.WorstParam;
}

//===----------------------------------------------------------------------===//
// Gradient checks per module
//===----------------------------------------------------------------------===//

TEST(GradCheckTest, LinearAndMlp) {
  ParamStore Store;
  Rng R(17);
  Linear L(Store, "lin", 3, 2, R);
  Mlp M(Store, "mlp", 3, 4, 2, R);
  Var X = constant(Tensor::uniform(3, 0.9f, R));
  GradCheckResult Result = checkGradients(Store, [&] {
    Var Y = add(L.apply(X), M.apply(X));
    return dot(Y, Y);
  });
  EXPECT_TRUE(Result.Ok) << Result.MaxRelError << " at "
                         << Result.WorstParam;
}

namespace {

/// Finite-difference check of a three-step GRU sequence, built by the
/// production cell or, with \p Reference, by the per-gate reference
/// graph over the same packed parameters.
void checkCell(bool Reference = false) {
  ParamStore Store;
  Rng R(19);
  RecurrentCell Cell(Store, "cell", 3, 4, R);
  std::vector<Var> Inputs{constant(Tensor::uniform(3, 0.9f, R)),
                          constant(Tensor::uniform(3, 0.9f, R)),
                          constant(Tensor::uniform(3, 0.9f, R))};
  GradCheckResult Result = checkGradients(Store, [&] {
    std::vector<Var> States =
        Reference ? reference::cellRun(Store, "cell", Cell.initial(), Inputs)
                  : Cell.run(Inputs);
    Var Last = States.back();
    return dot(Last, Last);
  });
  EXPECT_TRUE(Result.Ok) << Result.MaxRelError << " at "
                         << Result.WorstParam;
}

} // namespace

TEST(GradCheckTest, GruCell) { checkCell(); }

TEST(GradCheckTest, TreeLstm) {
  ParamStore Store;
  Rng R(21);
  ChildSumTreeLstm Tree(Store, "tree", 3, 4, R);
  EmbeddingTable Emb(Store, "emb", 6, 3, R);

  AstTree T;
  T.Label = "plus";
  AstTree L1N;
  L1N.Label = "a";
  AstTree L2N;
  L2N.Label = "b";
  AstTree Inner;
  Inner.Label = "times";
  Inner.Children = {L1N, L2N};
  AstTree L3N;
  L3N.Label = "c";
  T.Children = {Inner, L3N};

  auto Lookup = [&](const std::string &Label) {
    int Id = Label == "plus" ? 0
             : Label == "times" ? 1
             : Label == "a" ? 2
             : Label == "b" ? 3
                            : 4;
    return Emb.lookup(Id);
  };
  GradCheckResult Result = checkGradients(Store, [&] {
    Var H = Tree.embed(T, Lookup);
    return dot(H, H);
  });
  EXPECT_TRUE(Result.Ok) << Result.MaxRelError << " at "
                         << Result.WorstParam;
}

TEST(GradCheckTest, AttentionScorer) {
  ParamStore Store;
  Rng R(23);
  AttentionScorer Attn(Store, "attn", 3, 4, 5, R);
  Var Q = constant(Tensor::uniform(3, 0.9f, R));
  std::vector<Var> Keys{constant(Tensor::uniform(4, 0.9f, R)),
                        constant(Tensor::uniform(4, 0.9f, R)),
                        constant(Tensor::uniform(4, 0.9f, R))};
  GradCheckResult Result = checkGradients(Store, [&] {
    AttentionScorer::Memory Mem = Attn.prepare(Keys);
    Var C = Attn.contextOf(Q, Mem).Context;
    return dot(C, C);
  });
  EXPECT_TRUE(Result.Ok) << Result.MaxRelError << " at "
                         << Result.WorstParam;
}

//===----------------------------------------------------------------------===//
// Learning sanity (end-to-end optimization)
//===----------------------------------------------------------------------===//

TEST(LearningTest, MlpLearnsXor) {
  ParamStore Store;
  Rng R(25);
  Mlp Net(Store, "xor", 2, 8, 2, R);
  Adam Opt(Store, [] {
    AdamOptions O;
    O.LearningRate = 0.02f;
    return O;
  }());

  const float Inputs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const size_t Targets[4] = {0, 1, 1, 0};

  for (int Epoch = 0; Epoch < 300; ++Epoch) {
    std::vector<Var> Losses;
    for (int I = 0; I < 4; ++I) {
      Var X = constant(Tensor::fromVector({Inputs[I][0], Inputs[I][1]}));
      Losses.push_back(softmaxCrossEntropy(Net.apply(X), Targets[I]));
    }
    backward(meanLoss(Losses));
    Opt.step();
  }

  for (int I = 0; I < 4; ++I) {
    Var X = constant(Tensor::fromVector({Inputs[I][0], Inputs[I][1]}));
    EXPECT_EQ(argmax(Net.apply(X)->Value), Targets[I]) << "input " << I;
  }
}

TEST(LearningTest, GruLearnsLastToken) {
  // Classify a 4-token sequence by its last token: requires memory.
  ParamStore Store;
  Rng R(27);
  EmbeddingTable Emb(Store, "emb", 3, 6, R);
  RecurrentCell Cell(Store, "gru", 6, 8, R);
  Linear Head(Store, "head", 8, 2, R);
  Adam Opt(Store, [] {
    AdamOptions O;
    O.LearningRate = 0.02f;
    return O;
  }());

  Rng DataRng(31);
  auto Sample = [&](std::vector<int> &Tokens) -> size_t {
    Tokens.clear();
    for (int I = 0; I < 3; ++I)
      Tokens.push_back(static_cast<int>(DataRng.nextBelow(3)));
    size_t Label = DataRng.nextBelow(2);
    Tokens.push_back(Label == 1 ? 1 : 0);
    return Label;
  };

  for (int Iter = 0; Iter < 250; ++Iter) {
    std::vector<Var> Losses;
    for (int B = 0; B < 8; ++B) {
      std::vector<int> Tokens;
      size_t Label = Sample(Tokens);
      std::vector<Var> Inputs;
      for (int Tok : Tokens)
        Inputs.push_back(Emb.lookup(Tok));
      Var H = Cell.run(Inputs).back();
      Losses.push_back(softmaxCrossEntropy(Head.apply(H), Label));
    }
    backward(meanLoss(Losses));
    Opt.step();
  }

  int Correct = 0;
  for (int I = 0; I < 50; ++I) {
    std::vector<int> Tokens;
    size_t Label = Sample(Tokens);
    std::vector<Var> Inputs;
    for (int Tok : Tokens)
      Inputs.push_back(Emb.lookup(Tok));
    Var H = Cell.run(Inputs).back();
    if (argmax(Head.apply(H)->Value) == Label)
      ++Correct;
  }
  EXPECT_GE(Correct, 45);
}

//===----------------------------------------------------------------------===//
// Optimizer and store
//===----------------------------------------------------------------------===//

TEST(OptimTest, SgdReducesQuadratic) {
  ParamStore Store;
  Var P = Store.addParam("p", Tensor::fromVector({4.0f}));
  Sgd Opt(Store, 0.1f);
  for (int I = 0; I < 50; ++I) {
    Var Loss = mul(P, P);
    backward(Loss);
    Opt.step();
  }
  EXPECT_NEAR(P->Value[0], 0.0f, 1e-3);
}

TEST(OptimTest, AdamReducesQuadratic) {
  ParamStore Store;
  Var P = Store.addParam("p", Tensor::fromVector({4.0f, -3.0f}));
  Adam Opt(Store, [] {
    AdamOptions O;
    O.LearningRate = 0.2f;
    return O;
  }());
  for (int I = 0; I < 200; ++I) {
    Var Loss = sumV(mul(P, P));
    backward(Loss);
    Opt.step();
  }
  EXPECT_NEAR(P->Value[0], 0.0f, 1e-2);
  EXPECT_NEAR(P->Value[1], 0.0f, 1e-2);
}

TEST(OptimTest, GradientClippingBoundsSteps) {
  ParamStore Store;
  Var P = Store.addParam("p", Tensor::fromVector({100.0f}));
  Adam Opt(Store, [] {
    AdamOptions O;
    O.LearningRate = 0.1f;
    O.ClipNorm = 1.0f;
    return O;
  }());
  Var Loss = mul(P, P); // gradient 200, clipped to norm 1
  backward(Loss);
  double Norm = Opt.step();
  EXPECT_NEAR(Norm, 200.0, 1e-3);
  // Adam's normalized step is bounded by the learning rate regardless.
  EXPECT_NEAR(P->Value[0], 100.0f - 0.1f, 1e-2);
}

TEST(ParamStoreTest, SaveLoadRoundTrip) {
  std::string Path = testing::TempDir() + "/liger_params.bin";
  Rng R(33);
  ParamStore Store;
  Var A = Store.addParam("a", Tensor::uniform(5, 1.0f, R));
  Var M = Store.addParam("m", Tensor::xavier(3, 4, R));
  Tensor SavedA = A->Value;
  Tensor SavedM = M->Value;
  ASSERT_TRUE(Store.save(Path));

  // Perturb, then load back.
  A->Value.zero();
  M->Value.zero();
  ASSERT_TRUE(Store.load(Path));
  for (size_t I = 0; I < SavedA.size(); ++I)
    EXPECT_FLOAT_EQ(A->Value[I], SavedA[I]);
  for (size_t I = 0; I < SavedM.size(); ++I)
    EXPECT_FLOAT_EQ(M->Value[I], SavedM[I]);
}

TEST(ParamStoreTest, LoadRejectsMismatchedStore) {
  std::string Path = testing::TempDir() + "/liger_params2.bin";
  Rng R(35);
  ParamStore Store;
  Store.addParam("a", Tensor::uniform(5, 1.0f, R));
  ASSERT_TRUE(Store.save(Path));

  ParamStore Other;
  Other.addParam("b", Tensor::uniform(5, 1.0f, R));
  EXPECT_FALSE(Other.load(Path)); // name mismatch

  ParamStore WrongShape;
  WrongShape.addParam("a", Tensor::uniform(6, 1.0f, R));
  EXPECT_FALSE(WrongShape.load(Path));
}

TEST(ParamStoreTest, CountsScalars) {
  Rng R(37);
  ParamStore Store;
  Store.addParam("a", Tensor::zeros(5));
  Store.addParam("m", Tensor::zeros(3, 4));
  EXPECT_EQ(Store.numScalars(), 17u);
}

TEST(ParamStoreTest, SaveIsAtomicAndFailsCleanly) {
  std::string Missing = testing::TempDir() + "/liger_no_such_dir/params.bin";
  Rng R(39);
  ParamStore Store;
  Store.addParam("a", Tensor::uniform(4, 1.0f, R));

  std::string Error;
  EXPECT_FALSE(Store.save(Missing, &Error));
  EXPECT_FALSE(Error.empty());
  // Neither the target nor a stray temp file may exist after a failure.
  EXPECT_FALSE(std::ifstream(Missing).good());
  EXPECT_FALSE(std::ifstream(Missing + ".tmp").good());
}

//===----------------------------------------------------------------------===//
// Checkpoint format (full training state, corruption handling)
//===----------------------------------------------------------------------===//

namespace {

/// Runs a few Adam steps so moments and the step counter are non-trivial.
void stepAdamABit(ParamStore &Store, Adam &Opt, int Steps) {
  for (int I = 0; I < Steps; ++I) {
    Var Loss = sumV(mul(Store.params()[0], Store.params()[0]));
    backward(Loss);
    Opt.step();
  }
}

std::vector<std::vector<float>> dumpParams(const ParamStore &Store) {
  std::vector<std::vector<float>> Out;
  for (const Var &P : Store.params())
    Out.emplace_back(P->Value.data(), P->Value.data() + P->Value.size());
  return Out;
}

std::string slurpFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void spewFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

/// A small two-parameter store (vector + matrix), deterministic per seed.
void buildSmallStore(ParamStore &Store, uint64_t Seed) {
  Rng R(Seed);
  Store.addParam("bias", Tensor::uniform(5, 1.0f, R));
  Store.addParam("weight", Tensor::xavier(3, 4, R));
}

} // namespace

TEST(CheckpointTest, FullStateRoundTripIsBitwise) {
  std::string Path = testing::TempDir() + "/liger_full.ckpt";
  ParamStore Store;
  buildSmallStore(Store, 41);
  Adam Opt(Store);
  stepAdamABit(Store, Opt, 3);

  Rng R(99);
  R.next();
  TrainerState TS;
  TS.NextEpoch = 4;
  TS.BestEpoch = 2;
  TS.BestValidScore = 0.75;
  TS.FinalTrainLoss = 1.25;
  TS.RngState = R.state();
  TS.HasBest = true;
  for (const Var &P : Store.params())
    TS.BestParams.push_back(P->Value);

  std::string Error;
  ASSERT_TRUE(saveCheckpoint(Path, Store, &Opt, &TS, &Error)) << Error;

  ParamStore Fresh;
  buildSmallStore(Fresh, 77); // different init, same names/shapes
  Adam FreshOpt(Fresh);
  TrainerState Loaded;
  ASSERT_TRUE(loadCheckpoint(Path, Fresh, &FreshOpt, &Loaded, &Error))
      << Error;

  EXPECT_EQ(dumpParams(Fresh), dumpParams(Store));
  EXPECT_EQ(FreshOpt.stepCount(), Opt.stepCount());
  for (size_t I = 0; I < Store.params().size(); ++I) {
    const Tensor &M0 = Opt.firstMoments()[I], &M1 = FreshOpt.firstMoments()[I];
    const Tensor &V0 = Opt.secondMoments()[I],
                 &V1 = FreshOpt.secondMoments()[I];
    ASSERT_EQ(M0.size(), M1.size());
    EXPECT_EQ(std::memcmp(M0.data(), M1.data(), M0.size() * sizeof(float)), 0);
    EXPECT_EQ(std::memcmp(V0.data(), V1.data(), V0.size() * sizeof(float)), 0);
  }
  EXPECT_EQ(Loaded.NextEpoch, TS.NextEpoch);
  EXPECT_EQ(Loaded.BestEpoch, TS.BestEpoch);
  EXPECT_EQ(Loaded.BestValidScore, TS.BestValidScore);
  EXPECT_EQ(Loaded.FinalTrainLoss, TS.FinalTrainLoss);
  EXPECT_EQ(Loaded.RngState, TS.RngState);
  ASSERT_TRUE(Loaded.HasBest);
  ASSERT_EQ(Loaded.BestParams.size(), TS.BestParams.size());
  for (size_t I = 0; I < TS.BestParams.size(); ++I)
    EXPECT_EQ(std::memcmp(Loaded.BestParams[I].data(),
                          TS.BestParams[I].data(),
                          TS.BestParams[I].size() * sizeof(float)),
              0);

  // A resumed Rng continues the exact draw sequence.
  Rng Replay(1);
  Replay.setState(Loaded.RngState);
  EXPECT_EQ(Replay.next(), R.next());
}

TEST(CheckpointTest, ParamsOnlyLoadAcceptsFullCheckpoint) {
  std::string Path = testing::TempDir() + "/liger_full2.ckpt";
  ParamStore Store;
  buildSmallStore(Store, 43);
  Adam Opt(Store);
  stepAdamABit(Store, Opt, 2);
  TrainerState TS;
  TS.NextEpoch = 2;
  ASSERT_TRUE(saveCheckpoint(Path, Store, &Opt, &TS));

  // ParamStore::load skips the optimizer/trainer sections.
  ParamStore Fresh;
  buildSmallStore(Fresh, 44);
  std::string Error;
  ASSERT_TRUE(Fresh.load(Path, &Error)) << Error;
  EXPECT_EQ(dumpParams(Fresh), dumpParams(Store));

  // But a params-only file cannot satisfy a resume that needs
  // optimizer and trainer state.
  std::string ParamsOnly = testing::TempDir() + "/liger_paramsonly.ckpt";
  ASSERT_TRUE(Store.save(ParamsOnly));
  Adam FreshOpt(Fresh);
  TrainerState Loaded;
  EXPECT_FALSE(loadCheckpoint(ParamsOnly, Fresh, &FreshOpt, &Loaded, &Error));
  EXPECT_NE(Error.find("optimizer"), std::string::npos) << Error;
}

TEST(CheckpointTest, RejectsBadMagicAndVersionWithDiagnostic) {
  std::string Good = testing::TempDir() + "/liger_good.ckpt";
  std::string Bad = testing::TempDir() + "/liger_bad.ckpt";
  ParamStore Store;
  buildSmallStore(Store, 45);
  ASSERT_TRUE(Store.save(Good));
  std::string Bytes = slurpFile(Good);
  ASSERT_GE(Bytes.size(), 16u);

  std::string WrongMagic = Bytes;
  WrongMagic[0] = 'X';
  spewFile(Bad, WrongMagic);
  std::string Error;
  EXPECT_FALSE(Store.load(Bad, &Error));
  EXPECT_NE(Error.find("magic"), std::string::npos) << Error;

  std::string WrongVersion = Bytes;
  WrongVersion[4] = 99;
  spewFile(Bad, WrongVersion);
  EXPECT_FALSE(Store.load(Bad, &Error));
  EXPECT_NE(Error.find("version 99"), std::string::npos) << Error;
}

TEST(CheckpointTest, TruncationAtEveryOffsetFailsCleanly) {
  // The acceptance bar for the reader: a checkpoint cut at ANY byte
  // offset must fail load() with a diagnostic — no crash, no sanitizer
  // finding, no over-allocation, and no partial mutation of the store.
  std::string Full = testing::TempDir() + "/liger_fuzz_full.ckpt";
  std::string Cut = testing::TempDir() + "/liger_fuzz_cut.ckpt";
  ParamStore Store;
  buildSmallStore(Store, 47);
  Adam Opt(Store);
  stepAdamABit(Store, Opt, 2);
  TrainerState TS;
  TS.NextEpoch = 1;
  TS.HasBest = true;
  for (const Var &P : Store.params())
    TS.BestParams.push_back(P->Value);
  ASSERT_TRUE(saveCheckpoint(Full, Store, &Opt, &TS));

  std::string Bytes = slurpFile(Full);
  ASSERT_GT(Bytes.size(), 64u);

  ParamStore Target;
  buildSmallStore(Target, 48);
  Adam TargetOpt(Target);
  std::vector<std::vector<float>> Pristine = dumpParams(Target);
  uint64_t PristineStep = TargetOpt.stepCount();

  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    spewFile(Cut, Bytes.substr(0, Len));
    TrainerState Ignored;
    std::string Error;
    ASSERT_FALSE(loadCheckpoint(Cut, Target, &TargetOpt, &Ignored, &Error))
        << "truncation at byte " << Len << " unexpectedly loaded";
    ASSERT_FALSE(Error.empty()) << "no diagnostic at byte " << Len;
    // Failed loads are transactional: the target is untouched.
    ASSERT_EQ(dumpParams(Target), Pristine) << "store mutated at " << Len;
    ASSERT_EQ(TargetOpt.stepCount(), PristineStep);
  }

  // The untruncated file still loads, proving the fuzz exercised the
  // real format rather than an unreadable artifact.
  TrainerState Loaded;
  std::string Error;
  EXPECT_TRUE(loadCheckpoint(Full, Target, &TargetOpt, &Loaded, &Error))
      << Error;
}

TEST(CheckpointTest, CorruptSectionLengthIsRejected) {
  std::string Good = testing::TempDir() + "/liger_seclen.ckpt";
  std::string Bad = testing::TempDir() + "/liger_seclen_bad.ckpt";
  ParamStore Store;
  buildSmallStore(Store, 49);
  ASSERT_TRUE(Store.save(Good));
  std::string Bytes = slurpFile(Good);

  // Bytes 20..27 hold the PRMS section length (after the 16-byte
  // header and 4-byte tag); shrinking it must be caught by the
  // consumed-vs-declared check, growing it by the EOF bound.
  for (int Delta : {-1, 1}) {
    std::string Corrupt = Bytes;
    Corrupt[20] = static_cast<char>(
        static_cast<unsigned char>(Corrupt[20]) + Delta);
    spewFile(Bad, Corrupt);
    std::string Error;
    EXPECT_FALSE(Store.load(Bad, &Error));
    EXPECT_FALSE(Error.empty());
  }
}

//===----------------------------------------------------------------------===//
// GraphArena
//===----------------------------------------------------------------------===//

TEST(GraphArenaTest, ResetReclaimsNodesAndReusesMemory) {
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);

  Var First = vec({1, 2, 3});
  void *FirstSlot = First;
  for (int I = 0; I < 600; ++I) // several slabs' worth
    First = scale(First, 1.0f);
  EXPECT_EQ(Arena.numLive(), 601u);
  EXPECT_EQ(Arena.peakLive(), 601u);

  Arena.reset();
  EXPECT_EQ(Arena.numLive(), 0u);
  EXPECT_EQ(Arena.peakLive(), 601u); // high-water mark survives reset

  // The next graph reuses the retained slabs: same node addresses.
  Var Again = vec({4, 5, 6});
  EXPECT_EQ(static_cast<void *>(Again), FirstSlot);
  EXPECT_FLOAT_EQ(Again->Value[0], 4.0f);
}

TEST(GraphArenaTest, GraphsStayCorrectAcrossResets) {
  // Values and gradients must be unaffected by buffer/slab recycling.
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  for (int Round = 0; Round < 3; ++Round) {
    Var A = parameter(Tensor::fromVector({1, 2}));
    Var B = vec({3, -1});
    Var L = dot(mul(A, B), vec({1, 1})); // L = 3*1 + (-1)*2 = 1
    backward(L);
    EXPECT_FLOAT_EQ(L->Value[0], 1.0f);
    EXPECT_FLOAT_EQ(A->Grad[0], 3.0f);
    EXPECT_FLOAT_EQ(A->Grad[1], -1.0f);
    Arena.reset();
  }
}

TEST(GraphArenaTest, ScopeRestoresPreviousArena) {
  GraphArena Outer;
  GraphArena::Scope OuterScope(Outer);
  Var Kept = vec({7});
  {
    GraphArena Inner;
    GraphArena::Scope InnerScope(Inner);
    vec({8});
    EXPECT_EQ(Inner.numLive(), 1u);
  } // Inner destroyed; Outer current again
  Var After = vec({9});
  EXPECT_EQ(Outer.numLive(), 2u);
  EXPECT_FLOAT_EQ(Kept->Value[0], 7.0f);
  EXPECT_FLOAT_EQ(After->Value[0], 9.0f);
}

TEST(GraphArenaTest, OneLaneOpsBuildOneNode) {
  // The GRU step, the attention read and the loss head have one op
  // each: a one-lane call adds that op's node and nothing else, B >= 2
  // lanes add the batch node plus one row view per lane.
  ParamStore Store;
  Rng R(13);
  const size_t In = 5, H = 6;
  RecurrentCell Cell(Store, "cell", In, H, R);
  AttentionScorer Attn(Store, "attn", H, H, 7, R);
  Linear Head(Store, "head", H, 4, R);
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  Var X = constant(Tensor::uniform(In, 0.9f, R));
  Var H0 = constant(Tensor::uniform(H, 0.9f, R));
  AttentionScorer::Memory Mem = Attn.prepare({H0, Cell.step(X, H0)});
  auto nodesAdded = [&](const std::function<void()> &Build) {
    size_t Before = GraphArena::current().numLive();
    Build();
    return GraphArena::current().numLive() - Before;
  };

  EXPECT_EQ(nodesAdded([&] { Cell.step(X, H0); }), 1u);
  EXPECT_EQ(nodesAdded([&] { Attn.contextOf(H0, Mem); }), 1u);
  EXPECT_EQ(nodesAdded([&] { Head.softmaxCrossEntropyBatch(H0, 2); }), 1u);
  EXPECT_EQ(nodesAdded([&] { Cell.stepBatch(X, H0); }), 1u);
  EXPECT_EQ(nodesAdded([&] { Attn.contextOfMultiMemory(H0, &Mem); }), 1u);

  for (size_t B : {2, 3}) {
    std::vector<Var> Xs(B, X), Hs(B, H0);
    std::vector<const AttentionScorer::Memory *> Mems(B, &Mem);
    std::vector<size_t> Targets(B, 1);
    EXPECT_EQ(nodesAdded([&] { Cell.stepBatch(Xs, Hs); }), 1 + B);
    EXPECT_EQ(nodesAdded([&] { Attn.contextOfMultiMemory(Hs, Mems); }),
              1 + B);
    EXPECT_EQ(nodesAdded([&] { Head.softmaxCrossEntropyBatch(Hs, Targets); }),
              1 + B);
  }
}

TEST(GraphArenaTest, BackwardRejectsGraphOutsideCurrentArena) {
  // backward() walks the current arena's tape; a graph built in another
  // arena is not on it, so the pass must fail loudly rather than skip
  // the graph's nodes and leave the parameters without gradients.
  ParamStore Store;
  Var W = Store.addParam("w", Tensor::fromVector({2, -3}));
  GraphArena Builder;
  Var Loss;
  {
    GraphArena::Scope BuildScope(Builder);
    Loss = dot(mul(W, vec({1, 4})), vec({1, 1}));
  }
  GraphArena Other;
  GraphArena::Scope OtherScope(Other);
  vec({5}); // the current arena holds an unrelated node
  EXPECT_DEATH(backward(Loss), "outside the current GraphArena");
}

//===----------------------------------------------------------------------===//
// GradSink routing
//===----------------------------------------------------------------------===//

TEST(GradSinkTest, RoutesParamGradsAwayFromSharedNodes) {
  Rng R(41);
  ParamStore Store;
  Var W = Store.addParam("w", Tensor::fromVector({2, -3}));
  Var X = vec({1, 4});

  GradSink Sink;
  backward(dot(W, X), Sink);

  // The shared parameter node is untouched; the sink holds dL/dW = X.
  EXPECT_TRUE(W->Grad.empty());
  ASSERT_TRUE(Sink.touched(0));
  EXPECT_FLOAT_EQ(Sink.grad(0)[0], 1.0f);
  EXPECT_FLOAT_EQ(Sink.grad(0)[1], 4.0f);

  // Sinked gradients match a direct backward pass exactly.
  backward(dot(W, X));
  ASSERT_FALSE(W->Grad.empty());
  EXPECT_EQ(W->Grad[0], Sink.grad(0)[0]);
  EXPECT_EQ(W->Grad[1], Sink.grad(0)[1]);

  // accumulateSink folds the sink back into the parameter gradient.
  Store.accumulateSink(Sink);
  EXPECT_FLOAT_EQ(W->Grad[0], 2.0f);
  EXPECT_FLOAT_EQ(W->Grad[1], 8.0f);
}

TEST(GradSinkTest, UntouchedParamsHaveNoSlot) {
  Rng R(43);
  ParamStore Store;
  Store.addParam("used", Tensor::fromVector({1, 1}));
  Var Unused = Store.addParam("unused", Tensor::fromVector({5}));
  GradSink Sink;
  backward(sumV(mul(Store.params()[0], vec({2, 2}))), Sink);
  EXPECT_TRUE(Sink.touched(0));
  EXPECT_FALSE(Sink.touched(1));
  EXPECT_TRUE(Unused->Grad.empty());
}

TEST(AdamOptionsTest, ClippingDefaultsOff) {
  EXPECT_EQ(AdamOptions().ClipNorm, 0.0f);
}

//===----------------------------------------------------------------------===//
// Fused recurrent-cell kernels
//===----------------------------------------------------------------------===//

namespace {

/// The three-node / two-level AST used by the TreeLSTM tests.
AstTree buildTestTree() {
  AstTree T;
  T.Label = "plus";
  AstTree L1N;
  L1N.Label = "a";
  AstTree L2N;
  L2N.Label = "b";
  AstTree Inner;
  Inner.Label = "times";
  Inner.Children = {L1N, L2N};
  AstTree L3N;
  L3N.Label = "c";
  T.Children = {Inner, L3N};
  return T;
}

std::function<Var(const std::string &)> treeLookup(const EmbeddingTable &Emb) {
  return [&Emb](const std::string &Label) {
    int Id = Label == "plus" ? 0
             : Label == "times" ? 1
             : Label == "a" ? 2
             : Label == "b" ? 3
                            : 4;
    return Emb.lookup(Id);
  };
}

} // namespace

// The per-gate reference graphs (view nodes over the packed weights,
// tests/ReferenceGraphs) must satisfy the same finite-difference
// checks as the fused ops they are the oracle for.
TEST(GradCheckTest, GruCellUnfusedReference) {
  checkCell(/*Reference=*/true);
}

TEST(GradCheckTest, TreeLstmUnfusedReference) {
  ParamStore Store;
  Rng R(21);
  ChildSumTreeLstm Tree(Store, "tree", 3, 4, R);
  EmbeddingTable Emb(Store, "emb", 6, 3, R);
  AstTree T = buildTestTree();
  auto Lookup = treeLookup(Emb);
  GradCheckResult Result = checkGradients(Store, [&] {
    Var H = reference::treeLstmEmbed(Store, "tree", T, Lookup);
    return dot(H, H);
  });
  EXPECT_TRUE(Result.Ok) << Result.MaxRelError << " at "
                         << Result.WorstParam;
}

// Direct finite-difference checks of the fused ops, at sizes that
// exercise the SIMD kernels' remainder rows and scalar tails (neither
// H nor In a multiple of 8). Two chained steps make the state gradient
// flow through a second fused node.
TEST(GradCheckTest, GruCellOpPacked) {
  ParamStore Store;
  Rng R(51);
  const size_t In = 5, H = 6;
  Var Wx = Store.addParam("Wx", Tensor::xavier(3 * H, In, R));
  Var Bx = Store.addParam("bx", Tensor::uniform(3 * H, 0.2f, R));
  Var Wh = Store.addParam("Wh", Tensor::xavier(3 * H, H, R));
  Var X = Store.addParam("x", Tensor::uniform(In, 0.9f, R));
  Var H0 = Store.addParam("h0", Tensor::uniform(H, 0.9f, R));
  GradCheckResult Result = checkGradients(Store, [&] {
    // One lane: each call returns its batch node itself.
    Var H1 = gruCellBatchOp(Wx, Bx, Wh, X, H0)[0];
    Var H2 = gruCellBatchOp(Wx, Bx, Wh, X, H1)[0];
    return dot(H2, H2);
  });
  EXPECT_TRUE(Result.Ok) << Result.MaxRelError << " at "
                         << Result.WorstParam;
}

TEST(GradCheckTest, TreeLstmNodeOpPacked) {
  ParamStore Store;
  Rng R(55);
  const size_t In = 5, H = 6;
  Var Wx = Store.addParam("Wx", Tensor::xavier(4 * H, In, R));
  Var Bx = Store.addParam("bx", Tensor::uniform(4 * H, 0.2f, R));
  Var Wh = Store.addParam("Wh", Tensor::xavier(4 * H, H, R));
  Var X = Store.addParam("x", Tensor::uniform(In, 0.9f, R));
  Var H1 = Store.addParam("h1", Tensor::uniform(H, 0.9f, R));
  Var C1 = Store.addParam("c1", Tensor::uniform(H, 0.9f, R));
  Var H2 = Store.addParam("h2", Tensor::uniform(H, 0.9f, R));
  Var C2 = Store.addParam("c2", Tensor::uniform(H, 0.9f, R));
  GradCheckResult Result = checkGradients(Store, [&] {
    Var HSum = add(H1, H2);
    CellOut Out = treeLstmNodeOp(Wx, Bx, Wh, X, HSum, {H1, H2}, {C1, C2});
    return add(dot(Out.H, Out.H), dot(Out.C, Out.C));
  });
  EXPECT_TRUE(Result.Ok) << Result.MaxRelError << " at "
                         << Result.WorstParam;
}

//===----------------------------------------------------------------------===//
// Fused ops vs the per-gate reference graphs: bitwise equivalence
//===----------------------------------------------------------------------===//

namespace {

std::vector<std::vector<float>> dumpGrads(const ParamStore &Store) {
  std::vector<std::vector<float>> Out;
  for (const Var &P : Store.params()) {
    if (P->Grad.empty())
      Out.emplace_back();
    else
      Out.emplace_back(P->Grad.data(), P->Grad.data() + P->Grad.size());
  }
  return Out;
}

struct StepResult {
  float Loss = 0.0f;
  std::vector<std::vector<float>> Grads;
  std::vector<std::vector<float>> ParamsAfter;
};

/// One full training step (batched loss, backward, Adam update) of a
/// GRU sequence classifier: through the fused cell, or with
/// \p Reference through the per-gate reference graph. Identical seeds
/// make the runs comparable down to the bit.
StepResult runCellTrainingStep(bool Reference) {
  ParamStore Store;
  Rng R(61);
  EmbeddingTable Emb(Store, "emb", 5, 6, R);
  RecurrentCell Cell(Store, "cell", 6, 8, R);
  Linear Head(Store, "head", 8, 3, R);
  Adam Opt(Store);

  const int Tokens[3][4] = {{0, 1, 2, 3}, {4, 3, 2, 1}, {1, 1, 0, 2}};
  std::vector<Var> Losses;
  for (int S = 0; S < 3; ++S) {
    std::vector<Var> Inputs;
    for (int T = 0; T < 4; ++T)
      Inputs.push_back(Emb.lookup(Tokens[S][T]));
    std::vector<Var> States =
        Reference ? reference::cellRun(Store, "cell", Cell.initial(), Inputs)
                  : Cell.run(Inputs);
    Var H = States.back();
    Losses.push_back(softmaxCrossEntropy(Head.apply(H), S));
  }
  Var Loss = meanLoss(Losses);
  backward(Loss);

  StepResult Result;
  Result.Loss = Loss->Value[0];
  Result.Grads = dumpGrads(Store);
  Opt.step();
  Result.ParamsAfter = dumpParams(Store);
  return Result;
}

StepResult runTreeTrainingStep(bool Reference) {
  ParamStore Store;
  Rng R(63);
  ChildSumTreeLstm Tree(Store, "tree", 6, 8, R);
  EmbeddingTable Emb(Store, "emb", 6, 6, R);
  Linear Head(Store, "head", 8, 3, R);
  Adam Opt(Store);

  AstTree T = buildTestTree();
  auto Lookup = treeLookup(Emb);
  Var H = Reference ? reference::treeLstmEmbed(Store, "tree", T, Lookup)
                    : Tree.embed(T, Lookup);
  Var Loss = softmaxCrossEntropy(Head.apply(H), 1);
  backward(Loss);

  StepResult Result;
  Result.Loss = Loss->Value[0];
  Result.Grads = dumpGrads(Store);
  Opt.step();
  Result.ParamsAfter = dumpParams(Store);
  return Result;
}

} // namespace

TEST(FusedEquivalenceTest, GruTrainingStepIsBitwise) {
  StepResult Fused = runCellTrainingStep(false);
  StepResult Ref = runCellTrainingStep(true);
  EXPECT_EQ(Fused.Loss, Ref.Loss);
  EXPECT_EQ(Fused.Grads, Ref.Grads);
  EXPECT_EQ(Fused.ParamsAfter, Ref.ParamsAfter);
}

TEST(FusedEquivalenceTest, TreeLstmTrainingStepIsBitwise) {
  StepResult Fused = runTreeTrainingStep(false);
  StepResult Ref = runTreeTrainingStep(true);
  EXPECT_EQ(Fused.Loss, Ref.Loss);
  EXPECT_EQ(Fused.Grads, Ref.Grads);
  EXPECT_EQ(Fused.ParamsAfter, Ref.ParamsAfter);
}

TEST(FusedEquivalenceTest, GradSinkRoutingIsBitwise) {
  // The thread-parallel trainer differentiates into per-sample sinks;
  // the fused backward must route parameter gradients through the sink
  // exactly like the reference graph does.
  auto RunSink = [](bool Reference) {
    ParamStore Store;
    Rng R(65);
    RecurrentCell Cell(Store, "cell", 4, 6, R);
    std::vector<Var> Inputs{constant(Tensor::uniform(4, 0.9f, R)),
                            constant(Tensor::uniform(4, 0.9f, R))};
    std::vector<Var> States =
        Reference ? reference::cellRun(Store, "cell", Cell.initial(), Inputs)
                  : Cell.run(Inputs);
    Var H = States.back();
    GradSink Sink;
    backward(dot(H, H), Sink);
    std::vector<std::vector<float>> Out;
    for (size_t I = 0; I < Store.params().size(); ++I) {
      if (!Sink.touched(I))
        Out.emplace_back();
      else
        Out.emplace_back(Sink.grad(I).data(),
                         Sink.grad(I).data() + Sink.grad(I).size());
    }
    return Out;
  };
  EXPECT_EQ(RunSink(false), RunSink(true));
}

//===----------------------------------------------------------------------===//
// Checkpoint name resolution: every store parameter, by its packed name
//===----------------------------------------------------------------------===//

TEST(CheckpointTest, PartialCoverageIsRejected) {
  // A checkpoint missing one of the store's parameters must fail the
  // coverage check and leave the store untouched.
  std::string Path = testing::TempDir() + "/liger_partial.ckpt";
  const size_t In = 3, H = 4;
  ParamStore Source;
  Rng R0(71);
  RecurrentCell Full(Source, "gru", In, H, R0);
  ParamStore Partial; // Source's names and shapes, but no "gru.Wh"
  for (size_t I = 0; I < Source.params().size(); ++I)
    if (Source.names()[I] != "gru.Wh")
      Partial.addParam(Source.names()[I], Source.params()[I]->Value);
  ASSERT_EQ(Partial.params().size(), 2u);
  ASSERT_TRUE(Partial.save(Path));

  ParamStore Packed;
  Rng R(73);
  RecurrentCell Cell(Packed, "gru", In, H, R);
  std::vector<std::vector<float>> Pristine = dumpParams(Packed);
  std::string Error;
  EXPECT_FALSE(Packed.load(Path, &Error));
  EXPECT_NE(Error.find("'gru.Wh' is not fully covered"), std::string::npos)
      << Error;
  EXPECT_EQ(dumpParams(Packed), Pristine);
}

TEST(CheckpointTest, PerGateCheckpointIsRejected) {
  // The per-gate layout that predates packed gate weights ("gru.Wz.W",
  // "gru.Wz.b", ..., "gru.Un") is no longer read: loading one fails at
  // its first name, which the diagnostic reports, and leaves the store
  // untouched.
  std::string Path = testing::TempDir() + "/liger_per_gate.ckpt";
  const size_t In = 3, H = 4;
  ParamStore PerGate;
  Rng R0(67);
  for (const char *G : {".Wz", ".Wr", ".Wn"}) {
    PerGate.addParam(std::string("gru") + G + ".W", Tensor::xavier(H, In, R0));
    PerGate.addParam(std::string("gru") + G + ".b",
                     Tensor::uniform(H, 0.5f, R0));
  }
  for (const char *U : {".Uz", ".Ur", ".Un"})
    PerGate.addParam(std::string("gru") + U, Tensor::xavier(H, H, R0));
  ASSERT_TRUE(PerGate.save(Path));

  ParamStore Packed;
  Rng R(69);
  RecurrentCell Cell(Packed, "gru", In, H, R);
  std::vector<std::vector<float>> Pristine = dumpParams(Packed);
  std::string Error;
  EXPECT_FALSE(Packed.load(Path, &Error));
  EXPECT_NE(Error.find("'gru.Wz.W' does not match any store parameter"),
            std::string::npos)
      << Error;
  EXPECT_EQ(dumpParams(Packed), Pristine);
}

//===----------------------------------------------------------------------===//
// Fused attention kernels
//===----------------------------------------------------------------------===//

namespace {

/// Finite-difference check of one prepare() + contextOf() attention
/// step — or, with \p Reference, of its per-pair reference graph — with
/// every parameter and input (query, keys) perturbed. Odd dims exercise
/// the SIMD kernels' remainder lanes; \p T sweeps the memory-size
/// remainder cases.
void checkAttentionAt(size_t T, bool Reference = false) {
  ParamStore Store;
  Rng R(81);
  const size_t QDim = 5, KDim = 6, Hidden = 7;
  AttentionScorer Attn(Store, "attn", QDim, KDim, Hidden, R);
  Var Q = Store.addParam("q", Tensor::uniform(QDim, 0.9f, R));
  std::vector<Var> Keys;
  for (size_t I = 0; I < T; ++I)
    Keys.push_back(Store.addParam(strCat("k", std::to_string(I)),
                                  Tensor::uniform(KDim, 0.9f, R)));
  GradCheckResult Result = checkGradients(Store, [&] {
    AttentionScorer::Result Out;
    if (Reference) {
      std::vector<Var> Rows =
          reference::attentionKeyProjRows(Store, "attn", Keys);
      Out = reference::attentionContext(Store, "attn", Q, Keys, Rows);
    } else {
      Out = Attn.contextOf(Q, Attn.prepare(Keys));
    }
    return dot(Out.Context, Out.Context);
  });
  EXPECT_TRUE(Result.Ok) << Result.MaxRelError << " at "
                         << Result.WorstParam;
}

} // namespace

// SIMD-remainder memory sizes: below, at, and just past the kernels'
// vector widths.
TEST(GradCheckTest, AttentionOpMemory1) { checkAttentionAt(1); }
TEST(GradCheckTest, AttentionOpMemory3) { checkAttentionAt(3); }
TEST(GradCheckTest, AttentionOpMemory7) { checkAttentionAt(7); }
TEST(GradCheckTest, AttentionOpMemory9) { checkAttentionAt(9); }

// The per-pair reference graph must satisfy the same checks.
TEST(GradCheckTest, AttentionUnfusedReference) {
  checkAttentionAt(3, /*Reference=*/true);
}

//===----------------------------------------------------------------------===//
// Fused attention vs the per-pair reference graph: bitwise equivalence
//===----------------------------------------------------------------------===//

namespace {

struct AttnStepResult {
  float Loss = 0.0f;
  std::vector<std::vector<float>> StepWeights;
  std::vector<std::vector<float>> Grads;
  std::vector<std::vector<float>> ParamsAfter;
};

/// One training step of a miniature teacher-forced attention decoder
/// (embedding -> GRU with attended context -> logits), the decoder
/// shape SeqDecoder builds, attending through the fused ops or, with
/// \p Reference, through the per-pair reference graph. The key
/// projections are prepared once and shared across every step, in both
/// modes.
AttnStepResult runAttentionDecoderStep(bool Reference) {
  ParamStore Store;
  Rng R(83);
  const size_t EmbDim = 6, Hidden = 8, KeyDim = 5, AttnHidden = 9,
               Vocab = 7;
  EmbeddingTable Emb(Store, "emb", Vocab, EmbDim, R);
  RecurrentCell Cell(Store, "cell", EmbDim + KeyDim, Hidden, R);
  AttentionScorer Attn(Store, "attn", Hidden, KeyDim, AttnHidden, R);
  Linear Head(Store, "head", Hidden + KeyDim, Vocab, R);
  std::vector<Var> Memory;
  for (int I = 0; I < 4; ++I)
    Memory.push_back(Store.addParam(strCat("m", std::to_string(I)),
                                    Tensor::uniform(KeyDim, 0.9f, R)));
  Adam Opt(Store);

  const int Targets[] = {4, 5, 6, 4, 2};
  AttentionScorer::Memory Mem;
  std::vector<Var> RefRows;
  if (Reference)
    RefRows = reference::attentionKeyProjRows(Store, "attn", Memory);
  else
    Mem = Attn.prepare(Memory);
  Var State = Cell.initial();
  AttnStepResult Result;
  std::vector<Var> Losses;
  int Prev = 3;
  for (int Target : Targets) {
    AttentionScorer::Result Step =
        Reference ? reference::attentionContext(Store, "attn", State, Memory,
                                                RefRows)
                  : Attn.contextOf(State, Mem);
    Result.StepWeights.emplace_back(Step.Weights,
                                    Step.Weights + Memory.size());
    State = Cell.step(concat(Emb.lookup(Prev), Step.Context), State);
    Var Logits = Head.apply(concat(State, Step.Context));
    Losses.push_back(softmaxCrossEntropy(Logits, static_cast<size_t>(Target)));
    Prev = Target;
  }
  Var Loss = meanLoss(Losses);
  backward(Loss);

  Result.Loss = Loss->Value[0];
  Result.Grads = dumpGrads(Store);
  Opt.step();
  Result.ParamsAfter = dumpParams(Store);
  return Result;
}

/// One training step in the LIGER fusion-site shape: the component set
/// is re-prepared every step (components change per trace step there)
/// and the query is the evolving recurrent state.
AttnStepResult runFusionStyleStep(bool Reference) {
  ParamStore Store;
  Rng R(85);
  const size_t Dim = 6, AttnHidden = 7;
  RecurrentCell Cell(Store, "cell", Dim, Dim, R);
  AttentionScorer A1(Store, "a1", Dim, Dim, AttnHidden, R);
  std::vector<Var> Components;
  for (int I = 0; I < 3; ++I)
    Components.push_back(Store.addParam(strCat("c", std::to_string(I)),
                                        Tensor::uniform(Dim, 0.9f, R)));
  Adam Opt(Store);

  AttnStepResult Result;
  Var State = Cell.initial();
  for (int J = 0; J < 3; ++J) {
    AttentionScorer::Result Fusion;
    if (Reference) {
      std::vector<Var> Rows =
          reference::attentionKeyProjRows(Store, "a1", Components);
      Fusion = reference::attentionContext(Store, "a1", State, Components,
                                           Rows);
    } else {
      Fusion = A1.contextOf(State, A1.prepare(Components));
    }
    Result.StepWeights.emplace_back(Fusion.Weights,
                                    Fusion.Weights + Components.size());
    State = Cell.step(Fusion.Context, State);
  }
  Var Loss = dot(State, State);
  backward(Loss);

  Result.Loss = Loss->Value[0];
  Result.Grads = dumpGrads(Store);
  Opt.step();
  Result.ParamsAfter = dumpParams(Store);
  return Result;
}

} // namespace

TEST(AttentionEquivalenceTest, GruDecoderTrainingStepIsBitwise) {
  AttnStepResult Fused = runAttentionDecoderStep(false);
  AttnStepResult Ref = runAttentionDecoderStep(true);
  EXPECT_EQ(Fused.Loss, Ref.Loss);
  EXPECT_EQ(Fused.StepWeights, Ref.StepWeights);
  EXPECT_EQ(Fused.Grads, Ref.Grads);
  EXPECT_EQ(Fused.ParamsAfter, Ref.ParamsAfter);
}

TEST(AttentionEquivalenceTest, FusionStyleChainIsBitwise) {
  AttnStepResult Fused = runFusionStyleStep(false);
  AttnStepResult Ref = runFusionStyleStep(true);
  EXPECT_EQ(Fused.Loss, Ref.Loss);
  EXPECT_EQ(Fused.StepWeights, Ref.StepWeights);
  EXPECT_EQ(Fused.Grads, Ref.Grads);
  EXPECT_EQ(Fused.ParamsAfter, Ref.ParamsAfter);
}

TEST(AttentionEquivalenceTest, ScoreAllMatchesPerPairScores) {
  // The reference scores over shared key projections (the chain the
  // fused op replays) must be bitwise what the from-scratch per-pair
  // chain computes for each key, and the fused op's softmax weights
  // bitwise the softmax of those scores.
  ParamStore Store;
  Rng R(87);
  AttentionScorer Attn(Store, "attn", 5, 6, 7, R);
  Var Q = constant(Tensor::uniform(5, 0.9f, R));
  std::vector<Var> Keys;
  for (int I = 0; I < 4; ++I)
    Keys.push_back(constant(Tensor::uniform(6, 0.9f, R)));
  std::vector<Var> Rows = reference::attentionKeyProjRows(Store, "attn", Keys);
  Var Scores = reference::attentionScores(Store, "attn", Q, Rows);
  ASSERT_EQ(Scores->Value.size(), Keys.size());
  for (size_t I = 0; I < Keys.size(); ++I)
    EXPECT_EQ(reference::attentionPairScore(Store, "attn", Q, Keys[I])
                  ->Value[0],
              Scores->Value[I]);
  Var RefWeights = softmax(Scores);
  AttentionScorer::Result Fused = Attn.contextOf(Q, Attn.prepare(Keys));
  EXPECT_EQ(std::memcmp(Fused.Weights, RefWeights->Value.data(),
                        Keys.size() * sizeof(float)),
            0);
}

TEST(AttentionEquivalenceTest, KeyProjMatchesReferenceRows) {
  // The fused [T x Hidden] key projection must be bitwise the
  // reference per-key add(matvec(colsView(W1), key), b1) rows.
  ParamStore Store;
  Rng R(89);
  AttentionScorer Attn(Store, "attn", 5, 6, 7, R);
  std::vector<Var> Keys;
  for (int I = 0; I < 5; ++I)
    Keys.push_back(constant(Tensor::uniform(6, 0.9f, R)));
  AttentionScorer::Memory FusedMem = Attn.prepare(Keys);
  std::vector<Var> RefRows =
      reference::attentionKeyProjRows(Store, "attn", Keys);
  ASSERT_NE(FusedMem.KeyProj, nullptr);
  ASSERT_EQ(RefRows.size(), Keys.size());
  for (size_t T = 0; T < Keys.size(); ++T) {
    const Tensor &Row = RefRows[T]->Value;
    EXPECT_EQ(std::memcmp(FusedMem.KeyProj->Value.data() + T * Row.size(),
                          Row.data(), Row.size() * sizeof(float)),
              0)
        << "key projection row " << T;
  }
}

//===----------------------------------------------------------------------===//
// Checkpoint compatibility: pre-split attention checkpoints
//===----------------------------------------------------------------------===//

TEST(CheckpointTest, AttentionMlpCheckpointLoadsUnchanged) {
  // AttentionScorer used to wrap an Mlp; the packed first layer is now
  // computed split (key-side / query-side column bands) but stored
  // unchanged, so a checkpoint written from the old Mlp layout must
  // load bit-exactly — params, Adam moments, and best snapshot alike.
  std::string Path = testing::TempDir() + "/liger_legacy_attn.ckpt";
  const size_t QDim = 3, KDim = 4, Hidden = 5;
  ParamStore Legacy;
  Rng R0(91);
  Mlp LegacyNet(Legacy, "attn", QDim + KDim, Hidden, 1, R0);
  Adam LegacyOpt(Legacy);
  stepAdamABit(Legacy, LegacyOpt, 3);
  TrainerState TS;
  TS.NextEpoch = 2;
  TS.HasBest = true;
  for (const Var &P : Legacy.params())
    TS.BestParams.push_back(P->Value);
  std::string Error;
  ASSERT_TRUE(saveCheckpoint(Path, Legacy, &LegacyOpt, &TS, &Error)) << Error;

  ParamStore Split;
  Rng R(93);
  AttentionScorer Attn(Split, "attn", QDim, KDim, Hidden, R);
  ASSERT_EQ(Split.params().size(), Legacy.params().size());
  Adam SplitOpt(Split);
  TrainerState Loaded;
  ASSERT_TRUE(loadCheckpoint(Path, Split, &SplitOpt, &Loaded, &Error))
      << Error;

  EXPECT_EQ(dumpParams(Split), dumpParams(Legacy));
  EXPECT_EQ(SplitOpt.stepCount(), LegacyOpt.stepCount());
  ASSERT_TRUE(Loaded.HasBest);
  for (size_t I = 0; I < Legacy.params().size(); ++I) {
    EXPECT_EQ(std::memcmp(SplitOpt.firstMoments()[I].data(),
                          LegacyOpt.firstMoments()[I].data(),
                          SplitOpt.firstMoments()[I].size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(Loaded.BestParams[I].data(),
                          TS.BestParams[I].data(),
                          Loaded.BestParams[I].size() * sizeof(float)),
              0);
  }
}

//===----------------------------------------------------------------------===//
// Batched (matmul-backed) ops vs per-lane loops: bitwise equivalence
//===----------------------------------------------------------------------===//
//
// Each batched entry point is compared against an explicit per-lane
// loop of its single-sample op, written out below in lane order.

namespace {

/// One training step of B token sequences advancing in lockstep
/// through stepBatch, or (\p Batched false) through a per-lane step()
/// loop, with \p In-wide token embeddings and an \p H-wide state.
/// Identical seeds make the runs comparable down to the bit.
StepResult runBatchedCellTrainingStep(size_t B, bool Batched, size_t In = 6,
                                      size_t H = 8) {
  ParamStore Store;
  Rng R(71);
  EmbeddingTable Emb(Store, "emb", 5, In, R);
  RecurrentCell Cell(Store, "cell", In, H, R);
  Linear Head(Store, "head", H, 3, R);
  Adam Opt(Store);

  std::vector<Var> States(B);
  for (size_t S = 0; S < B; ++S)
    States[S] = Cell.initial();
  for (int T = 0; T < 4; ++T) {
    std::vector<Var> Inputs;
    for (size_t S = 0; S < B; ++S)
      Inputs.push_back(Emb.lookup(static_cast<int>((S * 7 + T * 3) % 5)));
    if (Batched) {
      States = Cell.stepBatch(Inputs, States);
    } else {
      for (size_t S = 0; S < B; ++S)
        States[S] = Cell.step(Inputs[S], States[S]);
    }
  }
  std::vector<Var> Losses;
  for (size_t S = 0; S < B; ++S)
    Losses.push_back(softmaxCrossEntropy(Head.apply(States[S]), S % 3));
  Var Loss = meanLoss(Losses);
  backward(Loss);

  StepResult Result;
  Result.Loss = Loss->Value[0];
  Result.Grads = dumpGrads(Store);
  Opt.step();
  Result.ParamsAfter = dumpParams(Store);
  return Result;
}

/// One training step scoring Q queries against ONE shared prepared
/// memory: through contextOfMultiMemory with every lane aliasing that
/// memory, or (\p Batched false) through a per-query contextOf() loop.
AttnStepResult runMultiQueryStep(size_t Q, bool Batched) {
  ParamStore Store;
  Rng R(73);
  const size_t QDim = 6, KeyDim = 5, AttnHidden = 7;
  AttentionScorer Attn(Store, "attn", QDim, KeyDim, AttnHidden, R);
  std::vector<Var> Queries;
  for (size_t I = 0; I < Q; ++I)
    Queries.push_back(Store.addParam(strCat("q", std::to_string(I)),
                                     Tensor::uniform(QDim, 0.9f, R)));
  std::vector<Var> Memory;
  for (int I = 0; I < 4; ++I)
    Memory.push_back(Store.addParam(strCat("m", std::to_string(I)),
                                    Tensor::uniform(KeyDim, 0.9f, R)));
  Adam Opt(Store);

  AttentionScorer::Memory Mem = Attn.prepare(Memory);
  std::vector<AttentionScorer::Result> Out;
  if (Batched) {
    std::vector<const AttentionScorer::Memory *> Shared(Q, &Mem);
    Out = Attn.contextOfMultiMemory(Queries, Shared);
  } else {
    for (const Var &Query : Queries)
      Out.push_back(Attn.contextOf(Query, Mem));
  }
  AttnStepResult Result;
  std::vector<Var> Norms;
  for (const AttentionScorer::Result &Ctx : Out) {
    Result.StepWeights.emplace_back(Ctx.Weights, Ctx.Weights + Memory.size());
    Norms.push_back(dot(Ctx.Context, Ctx.Context));
  }
  Var Loss = meanLoss(Norms);
  backward(Loss);

  Result.Loss = Loss->Value[0];
  Result.Grads = dumpGrads(Store);
  Opt.step();
  Result.ParamsAfter = dumpParams(Store);
  return Result;
}

void expectCellStepBitwise(size_t B, size_t In = 6, size_t H = 8) {
  StepResult Batched = runBatchedCellTrainingStep(B, true, In, H);
  StepResult Ref = runBatchedCellTrainingStep(B, false, In, H);
  EXPECT_EQ(Batched.Loss, Ref.Loss) << "B=" << B << " In=" << In;
  EXPECT_EQ(Batched.Grads, Ref.Grads) << "B=" << B << " In=" << In;
  EXPECT_EQ(Batched.ParamsAfter, Ref.ParamsAfter) << "B=" << B << " In=" << In;
}

void expectMultiQueryBitwise(size_t Q) {
  AttnStepResult Batched = runMultiQueryStep(Q, true);
  AttnStepResult Ref = runMultiQueryStep(Q, false);
  EXPECT_EQ(Batched.Loss, Ref.Loss) << "Q=" << Q;
  EXPECT_EQ(Batched.StepWeights, Ref.StepWeights) << "Q=" << Q;
  EXPECT_EQ(Batched.Grads, Ref.Grads) << "Q=" << Q;
  EXPECT_EQ(Batched.ParamsAfter, Ref.ParamsAfter) << "Q=" << Q;
}

/// One training step of B lanes through the projection + softmax-CE
/// loss head: softmaxCrossEntropyBatch, or (\p Batched false) the
/// per-lane softmaxCrossEntropy(apply(x)) chain.
StepResult runLossHeadStep(size_t B, bool Batched) {
  ParamStore Store;
  Rng R(85);
  const size_t In = 7, V = 5;
  Linear Head(Store, "head", In, V, R);
  std::vector<Var> Xs;
  std::vector<size_t> Targets;
  for (size_t I = 0; I < B; ++I) {
    Xs.push_back(Store.addParam(strCat("x", std::to_string(I)),
                                Tensor::uniform(In, 0.9f, R)));
    Targets.push_back(I % V);
  }
  Adam Opt(Store);

  std::vector<Var> Losses;
  if (Batched) {
    Losses = Head.softmaxCrossEntropyBatch(Xs, Targets);
  } else {
    for (size_t I = 0; I < B; ++I)
      Losses.push_back(softmaxCrossEntropy(Head.apply(Xs[I]), Targets[I]));
  }
  Var Loss = meanLoss(Losses);
  backward(Loss);

  StepResult Result;
  Result.Loss = Loss->Value[0];
  Result.Grads = dumpGrads(Store);
  Opt.step();
  Result.ParamsAfter = dumpParams(Store);
  return Result;
}

void expectLossHeadBitwise(size_t B) {
  StepResult Batched = runLossHeadStep(B, true);
  StepResult Ref = runLossHeadStep(B, false);
  EXPECT_EQ(Batched.Loss, Ref.Loss) << "B=" << B;
  EXPECT_EQ(Batched.Grads, Ref.Grads) << "B=" << B;
  EXPECT_EQ(Batched.ParamsAfter, Ref.ParamsAfter) << "B=" << B;
}

/// One training step scoring Q queries each against its OWN prepared
/// memory (distinct lengths) through contextOfMultiMemory, or
/// (\p Batched false) through a per-query contextOf() loop.
AttnStepResult runMultiMemoryStep(size_t Q, bool Batched) {
  ParamStore Store;
  Rng R(87);
  const size_t QDim = 6, KeyDim = 5, AttnHidden = 7;
  AttentionScorer Attn(Store, "attn", QDim, KeyDim, AttnHidden, R);
  std::vector<Var> Queries;
  std::vector<std::vector<Var>> Keys(Q);
  for (size_t I = 0; I < Q; ++I) {
    Queries.push_back(Store.addParam(strCat("q", std::to_string(I)),
                                     Tensor::uniform(QDim, 0.9f, R)));
    // Memory lengths differ per query (2, 3, 4, ...): the batched op
    // must handle ragged key counts.
    for (size_t T = 0; T < 2 + I; ++T)
      Keys[I].push_back(
          Store.addParam(strCat("m", std::to_string(I), "_",
                                std::to_string(T)),
                         Tensor::uniform(KeyDim, 0.9f, R)));
  }
  Adam Opt(Store);

  std::vector<AttentionScorer::Memory> Mems;
  Mems.reserve(Q);
  for (size_t I = 0; I < Q; ++I)
    Mems.push_back(Attn.prepare(Keys[I]));
  std::vector<AttentionScorer::Result> Out;
  if (Batched) {
    std::vector<const AttentionScorer::Memory *> MemPtrs;
    for (const AttentionScorer::Memory &M : Mems)
      MemPtrs.push_back(&M);
    Out = Attn.contextOfMultiMemory(Queries, MemPtrs);
  } else {
    for (size_t I = 0; I < Q; ++I)
      Out.push_back(Attn.contextOf(Queries[I], Mems[I]));
  }

  AttnStepResult Result;
  std::vector<Var> Norms;
  for (size_t I = 0; I < Out.size(); ++I) {
    Result.StepWeights.emplace_back(Out[I].Weights,
                                    Out[I].Weights + Keys[I].size());
    Norms.push_back(dot(Out[I].Context, Out[I].Context));
  }
  Var Loss = meanLoss(Norms);
  backward(Loss);

  Result.Loss = Loss->Value[0];
  Result.Grads = dumpGrads(Store);
  Opt.step();
  Result.ParamsAfter = dumpParams(Store);
  return Result;
}

void expectMultiMemoryBitwise(size_t Q) {
  AttnStepResult Batched = runMultiMemoryStep(Q, true);
  AttnStepResult Ref = runMultiMemoryStep(Q, false);
  EXPECT_EQ(Batched.Loss, Ref.Loss) << "Q=" << Q;
  EXPECT_EQ(Batched.StepWeights, Ref.StepWeights) << "Q=" << Q;
  EXPECT_EQ(Batched.Grads, Ref.Grads) << "Q=" << Q;
  EXPECT_EQ(Batched.ParamsAfter, Ref.ParamsAfter) << "Q=" << Q;
}

} // namespace

TEST(BatchedKernelEquivalenceTest, MatmulRowsMatchMatvec) {
  // Every [B x Rows] tiled-matmul output row must be bitwise the
  // per-vector matvecStrided row (and with it the dot reduction).
  // Sizes cover the register tile's edges: odd row counts, odd vector
  // counts, and reduction lengths below/at/past the SIMD chunk widths.
  Rng R(75);
  for (size_t Rows : {1u, 2u, 5u, 8u}) {
    for (size_t Cols : {1u, 5u, 16u, 37u}) {
      for (size_t B : {1u, 2u, 3u, 8u}) {
        Tensor M = Tensor::uniform(Rows * Cols, 1.0f, R);
        Tensor X = Tensor::uniform(B * Cols, 1.0f, R);
        Tensor Tiled = Tensor::raw(B, Rows);
        kernels::matmul(B, Rows, Cols, M.data(), Cols, X.data(), Cols,
                        Tiled.data(), Rows);
        Tensor Ref = Tensor::raw(B, Rows);
        for (size_t Bi = 0; Bi < B; ++Bi)
          kernels::matvecStrided(Rows, Cols, Cols, M.data(),
                                 X.data() + Bi * Cols,
                                 Ref.data() + Bi * Rows);
        EXPECT_EQ(std::memcmp(Tiled.data(), Ref.data(),
                              B * Rows * sizeof(float)),
                  0)
            << "Rows=" << Rows << " Cols=" << Cols << " B=" << B;
      }
    }
  }
}

TEST(BatchedKernelEquivalenceTest, GruStepIsBitwiseAtB1) {
  expectCellStepBitwise(1);
}
TEST(BatchedKernelEquivalenceTest, GruStepIsBitwiseAtB3) {
  expectCellStepBitwise(3);
}
TEST(BatchedKernelEquivalenceTest, GruStepIsBitwiseAtB8) {
  expectCellStepBitwise(8);
}
// Input as wide as the state, as at the experiments' Hidden = EmbedDim:
// the lane pass then runs h's and x's input grads (and x's with r ⊙ h's)
// in one matvecTAccPair pass; the first step's h takes no grad.
TEST(BatchedKernelEquivalenceTest, GruStepIsBitwiseWhenInputIsStateWide) {
  for (size_t B : {1, 3, 8})
    expectCellStepBitwise(B, 24, 24);
}

TEST(BatchedKernelEquivalenceTest, MultiQueryAttentionIsBitwiseAtQ1) {
  expectMultiQueryBitwise(1);
}
TEST(BatchedKernelEquivalenceTest, MultiQueryAttentionIsBitwiseAtQ4) {
  expectMultiQueryBitwise(4);
}

TEST(BatchedKernelEquivalenceTest, LossHeadIsBitwiseAtB1) {
  expectLossHeadBitwise(1);
}
TEST(BatchedKernelEquivalenceTest, LossHeadIsBitwiseAtB3) {
  expectLossHeadBitwise(3);
}
TEST(BatchedKernelEquivalenceTest, LossHeadIsBitwiseAtB8) {
  expectLossHeadBitwise(8);
}

TEST(BatchedKernelEquivalenceTest, MultiMemoryAttentionIsBitwiseAtQ1) {
  expectMultiMemoryBitwise(1);
}
TEST(BatchedKernelEquivalenceTest, MultiMemoryAttentionIsBitwiseAtQ4) {
  expectMultiMemoryBitwise(4);
}

//===----------------------------------------------------------------------===//
// Backward accumulation kernels: each output element's chain, pinned
//===----------------------------------------------------------------------===//
//
// Every input gradient goes through matvecTAccStrided and every shared
// weight and bias gradient of a batch op through rank1AccBatchDesc and
// addAccBatchDesc. Their contract is per output element (DESIGN.md §8):
// start from the element's current value, then for each contribution
// round the product (LIGER_BLOCK_CONTRACT, never an FMA) and add it —
// rows ascending in matvecTAccStrided, lanes descending in the batch
// kernels. The replays below spell that chain out one element at a
// time; a kernel may pick any loop nest that keeps it. The sizes cross
// every 8-float chunk and 4-chunk block edge the AVX2 loops have, at
// and past the hidden sizes the experiments train with.

namespace {

const size_t OrderCols[] = {1, 7, 8, 9, 16, 23, 24, 25, 31, 32, 33, 40, 72};
const size_t OrderRows[] = {1, 2, 3, 7, 24, 72};
const size_t OrderLanes[] = {1, 2, 3, 8, 9};

/// \p N floats of mixed magnitude (mantissas in [-1, 1) scaled by 2^-10
/// .. 2^10), so a chain summed in any other order rounds differently.
std::vector<float> mixedValues(size_t N, Rng &R) {
  std::vector<float> V(N);
  for (float &X : V)
    X = std::ldexp(R.nextFloat(-1.0f, 1.0f),
                   static_cast<int>(R.nextInt(-10, 10)));
  return V;
}

/// XG[c] += Σ_r G[r] * M[r][c], one element at a time, rows ascending.
void replayMatvecTAcc(size_t Rows, size_t Cols, size_t RowStride,
                      const float *M, const float *G, float *XG) {
  for (size_t C = 0; C < Cols; ++C) {
    float Acc = XG[C];
    for (size_t R = 0; R < Rows; ++R) {
      float P = G[R] * M[R * RowStride + C];
      LIGER_BLOCK_CONTRACT(P);
      Acc += P;
    }
    XG[C] = Acc;
  }
}

/// MG[r][c] += Σ_b PG[b][r] * X[b][c], one element at a time, lanes
/// descending.
void replayRank1AccBatchDesc(size_t B, size_t Rows, size_t Cols,
                             const float *PG, size_t PGStride,
                             const float *const *X, float *MG) {
  for (size_t R = 0; R < Rows; ++R)
    for (size_t C = 0; C < Cols; ++C) {
      float Acc = MG[R * Cols + C];
      for (size_t Bi = B; Bi-- > 0;) {
        float P = PG[Bi * PGStride + R] * X[Bi][C];
        LIGER_BLOCK_CONTRACT(P);
        Acc += P;
      }
      MG[R * Cols + C] = Acc;
    }
}

/// Y[i] += Σ_b PG[b][i], one element at a time, lanes descending.
void replayAddAccBatchDesc(size_t B, size_t N, const float *PG,
                           size_t PGStride, float *Y) {
  for (size_t I = 0; I < N; ++I) {
    float Acc = Y[I];
    for (size_t Bi = B; Bi-- > 0;)
      Acc += PG[Bi * PGStride + I];
    Y[I] = Acc;
  }
}

bool sameFloats(const std::vector<float> &A, const std::vector<float> &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0;
}

} // namespace

TEST(BackwardKernelOrderTest, MatvecTAccStridedKeepsRowOrder) {
  Rng R(301);
  for (size_t Rows : OrderRows)
    for (size_t Cols : OrderCols)
      for (size_t RowStride : {Cols, Cols + 5}) {
        // A column band one float into a wider matrix, as the attention
        // backward addresses W1's key and query halves.
        std::vector<float> M = mixedValues(1 + Rows * RowStride, R);
        std::vector<float> G = mixedValues(Rows, R);
        std::vector<float> Kernel = mixedValues(Cols, R);
        std::vector<float> Replay = Kernel;
        // The dense stride goes through matvecTAcc, which delegates.
        if (RowStride == Cols)
          kernels::matvecTAcc(Rows, Cols, M.data() + 1, G.data(),
                              Kernel.data());
        else
          kernels::matvecTAccStrided(Rows, Cols, RowStride, M.data() + 1,
                                     G.data(), Kernel.data());
        replayMatvecTAcc(Rows, Cols, RowStride, M.data() + 1, G.data(),
                         Replay.data());
        EXPECT_TRUE(sameFloats(Kernel, Replay))
            << "Rows=" << Rows << " Cols=" << Cols
            << " RowStride=" << RowStride;
      }
}

// The GRU lane pass's two-band matvecTAcc: each band keeps the chain of
// its own matvecTAcc call.
TEST(BackwardKernelOrderTest, MatvecTAccPairKeepsEachBandsRowOrder) {
  Rng R(307);
  for (size_t Rows : OrderRows)
    for (size_t Cols : OrderCols) {
      std::vector<float> MA = mixedValues(Rows * Cols, R);
      std::vector<float> MB = mixedValues(Rows * Cols, R);
      std::vector<float> G = mixedValues(Rows, R);
      std::vector<float> KernelA = mixedValues(Cols, R);
      std::vector<float> KernelB = mixedValues(Cols, R);
      std::vector<float> ReplayA = KernelA, ReplayB = KernelB;
      kernels::matvecTAccPair(Rows, Cols, MA.data(), MB.data(), G.data(),
                              KernelA.data(), KernelB.data());
      replayMatvecTAcc(Rows, Cols, Cols, MA.data(), G.data(), ReplayA.data());
      replayMatvecTAcc(Rows, Cols, Cols, MB.data(), G.data(), ReplayB.data());
      EXPECT_TRUE(sameFloats(KernelA, ReplayA))
          << "band A, Rows=" << Rows << " Cols=" << Cols;
      EXPECT_TRUE(sameFloats(KernelB, ReplayB))
          << "band B, Rows=" << Rows << " Cols=" << Cols;
    }
}

TEST(BackwardKernelOrderTest, Rank1AccBatchDescKeepsLaneOrder) {
  Rng R(303);
  for (size_t B : OrderLanes)
    for (size_t Rows : OrderRows)
      for (size_t Cols : OrderCols)
        for (size_t PGStride : {Rows, Rows + 3}) {
          std::vector<float> PG = mixedValues(B * PGStride, R);
          // Each lane's operand at its own odd offset in one block, like
          // the per-lane value rows the batch ops pass.
          std::vector<float> XBlock = mixedValues(B * (Cols + 1), R);
          std::vector<const float *> X(B);
          for (size_t Bi = 0; Bi < B; ++Bi)
            X[Bi] = XBlock.data() + Bi * (Cols + 1) + 1 - (Bi % 2);
          std::vector<float> Kernel = mixedValues(Rows * Cols, R);
          std::vector<float> Replay = Kernel;
          kernels::rank1AccBatchDesc(B, Rows, Cols, PG.data(), PGStride,
                                     X.data(), Kernel.data());
          replayRank1AccBatchDesc(B, Rows, Cols, PG.data(), PGStride,
                                  X.data(), Replay.data());
          EXPECT_TRUE(sameFloats(Kernel, Replay))
              << "B=" << B << " Rows=" << Rows << " Cols=" << Cols
              << " PGStride=" << PGStride;
        }
}

TEST(BackwardKernelOrderTest, AddAccBatchDescKeepsLaneOrder) {
  Rng R(305);
  for (size_t B : OrderLanes)
    for (size_t N : OrderCols)
      for (size_t PGStride : {N, N + 3}) {
        std::vector<float> PG = mixedValues(B * PGStride, R);
        std::vector<float> Kernel = mixedValues(N, R);
        std::vector<float> Replay = Kernel;
        kernels::addAccBatchDesc(B, N, PG.data(), PGStride, Kernel.data());
        replayAddAccBatchDesc(B, N, PG.data(), PGStride, Replay.data());
        EXPECT_TRUE(sameFloats(Kernel, Replay))
            << "B=" << B << " N=" << N << " PGStride=" << PGStride;
      }
}

// Direct finite-difference checks of the batch ops, at sizes that
// exercise the matmul tile's edge rows and scalar tails. Two chained
// batch steps make state gradients flow through the row views.
TEST(GradCheckTest, GruCellBatchOpPacked) {
  ParamStore Store;
  Rng R(79);
  const size_t In = 5, H = 6, B = 3;
  Var Wx = Store.addParam("Wx", Tensor::xavier(3 * H, In, R));
  Var Bx = Store.addParam("bx", Tensor::uniform(3 * H, 0.2f, R));
  Var Wh = Store.addParam("Wh", Tensor::xavier(3 * H, H, R));
  std::vector<Var> Xs, H0s;
  for (size_t I = 0; I < B; ++I) {
    Xs.push_back(Store.addParam(strCat("x", std::to_string(I)),
                                Tensor::uniform(In, 0.9f, R)));
    H0s.push_back(Store.addParam(strCat("h", std::to_string(I)),
                                 Tensor::uniform(H, 0.9f, R)));
  }
  GradCheckResult Result = checkGradients(Store, [&] {
    std::vector<Var> H1 = gruCellBatchOp(Wx, Bx, Wh, Xs, H0s);
    std::vector<Var> H2 = gruCellBatchOp(Wx, Bx, Wh, Xs, H1);
    std::vector<Var> Norms;
    for (const Var &Hv : H2)
      Norms.push_back(dot(Hv, Hv));
    return sumV(stackScalars(Norms));
  });
  EXPECT_TRUE(Result.Ok) << Result.MaxRelError << " at "
                         << Result.WorstParam;
}

TEST(GradCheckTest, AttentionMultiMemoryOpPacked) {
  ParamStore Store;
  Rng R(89);
  const size_t QDim = 5, KeyDim = 4, H = 6, Q = 3;
  Var W1 = Store.addParam("W1", Tensor::xavier(H, KeyDim + QDim, R));
  Var B1 = Store.addParam("b1", Tensor::uniform(H, 0.2f, R));
  Var W2 = Store.addParam("W2", Tensor::xavier(1, H, R));
  Var B2 = Store.addParam("b2", Tensor::uniform(1, 0.2f, R));
  std::vector<Var> Queries;
  std::vector<std::vector<Var>> Keys(Q);
  for (size_t I = 0; I < Q; ++I) {
    Queries.push_back(Store.addParam(strCat("q", std::to_string(I)),
                                     Tensor::uniform(QDim, 0.9f, R)));
    // Ragged memories: 2, 3, 4 keys.
    for (size_t T = 0; T < 2 + I; ++T)
      Keys[I].push_back(
          Store.addParam(strCat("k", std::to_string(I), "_",
                                std::to_string(T)),
                         Tensor::uniform(KeyDim, 0.9f, R)));
  }
  GradCheckResult Result = checkGradients(Store, [&] {
    std::vector<AttnMemory> Mems(Q);
    std::vector<const AttnMemory *> MemPtrs;
    for (size_t I = 0; I < Q; ++I) {
      Mems[I].Keys = Keys[I];
      Mems[I].KeyProj = attentionKeyProj(W1, B1, Keys[I]);
      MemPtrs.push_back(&Mems[I]);
    }
    std::vector<AttnOut> Out =
        attentionMultiMemoryOp(W1, W2, B2, Queries, MemPtrs);
    std::vector<Var> Norms;
    for (const AttnOut &A : Out)
      Norms.push_back(dot(A.Context, A.Context));
    return sumV(stackScalars(Norms));
  });
  EXPECT_TRUE(Result.Ok) << Result.MaxRelError << " at "
                         << Result.WorstParam;
}

TEST(GradCheckTest, SoftmaxCrossEntropyBatchOpPacked) {
  // Three lanes, then one: a one-lane call's loss is the node itself.
  for (size_t B : {3, 1}) {
    ParamStore Store;
    Rng R(91);
    const size_t In = 6, V = 4;
    Var W = Store.addParam("W", Tensor::xavier(V, In, R));
    Var Bias = Store.addParam("b", Tensor::uniform(V, 0.2f, R));
    std::vector<Var> Xs;
    std::vector<size_t> Targets;
    for (size_t I = 0; I < B; ++I) {
      Xs.push_back(Store.addParam(strCat("x", std::to_string(I)),
                                  Tensor::uniform(In, 0.9f, R)));
      Targets.push_back(I % V);
    }
    GradCheckResult Result = checkGradients(Store, [&] {
      std::vector<Var> Losses =
          softmaxCrossEntropyBatchOp(W, Bias, Xs, Targets);
      return sumV(stackScalars(Losses));
    });
    EXPECT_TRUE(Result.Ok) << "B=" << B << ": " << Result.MaxRelError
                           << " at " << Result.WorstParam;
  }
}

//===----------------------------------------------------------------------===//
// Activation kernels: bitwise equal to libm (DESIGN.md §8)
//===----------------------------------------------------------------------===//

namespace {

/// The smallest positive float x at which expm1f's reduction of 2x,
/// k = (int)(invln2 * 2x + 0.5), reaches \p K.
float expm1KEdge(int K) {
  const float InvLn2 = bitsFloat(0x3fb8aa3b);
  auto KOf = [&](float X) {
    float P = InvLn2 * (2 * X);
    LIGER_BLOCK_CONTRACT(P);
    return int(P + 0.5f);
  };
  float X = (float(K) - 0.5f) / InvLn2 / 2;
  for (int I = 0; I < 64; ++I)
    X = std::nextafter(X, 0.0f);
  while (KOf(X) < K)
    X = std::nextafter(X, INFINITY);
  return X;
}

/// Inputs at every branch edge of fdlibm's tanhf and expm1f and at the
/// bound where the sigmoid kernel leaves expf's main path, each with
/// its sign flipped and three float neighbours on either side, plus
/// NaN payloads.
std::vector<float> activationBoundaryInputs() {
  const std::vector<float> Edges = {
      0.0f,
      bitsFloat(0x00000001), // smallest denormal
      bitsFloat(0x007fffff), // largest denormal
      std::ldexp(1.0f, -55), // tanhf: x (1 + x) below
      std::ldexp(1.0f, -26), // expm1f(-2x) returns its argument below
      bitsFloat(0x3eb17218) / 2, // expm1f's 0.5 ln2, after doubling
      bitsFloat(0x3f851592) / 2, // expm1f's 1.5 ln2, after doubling
      1.0f,                      // tanhf switches to expm1f(2|x|)
      expm1KEdge(23),            // k = 22 / 23
      expm1KEdge(57),            // k = 56 / 57
      22.0f,                     // tanhf saturates to ±1
      85.0f, 86.0f, 87.0f, 88.0f, 89.0f,
      bitsFloat(0x42b17218), // expf's overflow bound
      INFINITY};
  std::vector<float> Inputs;
  for (float Edge : Edges)
    for (float X : {Edge, -Edge}) {
      Inputs.push_back(X);
      float Down = X, Up = X;
      for (int I = 0; I < 3; ++I) {
        Down = std::nextafter(Down, -INFINITY);
        Up = std::nextafter(Up, INFINITY);
        Inputs.push_back(Down);
        Inputs.push_back(Up);
      }
    }
  for (uint32_t NaN : {0x7fc00000u, 0x7f800001u, 0x7fbfffffu, 0x7fffffffu,
                       0xffc00001u, 0xff812345u})
    Inputs.push_back(bitsFloat(NaN));
  return Inputs;
}

} // namespace

// Every 257th float bit pattern (~16.7M inputs, every exponent, sign and
// low mantissa bits) through both kernels, against libm. The full 2^32
// sweep is the activation_exhaustive program.
TEST(ActivationKernelTest, StridedSweepMatchesLibm) {
  EXPECT_EQ(activationMismatches(Activation::Tanh, 257, 1), 0u);
  EXPECT_EQ(activationMismatches(Activation::Sigmoid, 257, 1), 0u);
}

// Each boundary input alone in all eight lanes, and the whole list in
// one call, where edge cases share vectors with ordinary inputs.
TEST(ActivationKernelTest, BoundaryInputsMatchLibm) {
  const std::vector<float> In = activationBoundaryInputs();
  for (Activation A : {Activation::Tanh, Activation::Sigmoid}) {
    std::vector<float> Out(In.size());
    activationMap(A, In.size(), In.data(), Out.data());
    for (size_t I = 0; I < In.size(); ++I) {
      uint32_t Want = floatBits(activationReference(A, In[I]));
      EXPECT_EQ(floatBits(Out[I]), Want)
          << activationName(A) << " of bits 0x" << std::hex
          << floatBits(In[I]) << " in the mixed list";
      float Lanes[8], LanesOut[8];
      std::fill(Lanes, Lanes + 8, In[I]);
      activationMap(A, 8, Lanes, LanesOut);
      for (float Y : LanesOut)
        EXPECT_EQ(floatBits(Y), Want)
            << activationName(A) << " of bits 0x" << std::hex
            << floatBits(In[I]) << " in all lanes";
    }
  }
}

// Every length 0..33 (full vectors plus each tail), from and into
// buffers one float off their allocation, out of place and in place.
// The input and in-place buffers end exactly at the last element, so
// an ASan build catches a vector access past it; the output buffer has
// a guard float on either side.
TEST(ActivationKernelTest, EveryLengthUnalignedAndInPlace) {
  constexpr float Guard = 12345.0f;
  Rng R(21);
  for (Activation A : {Activation::Tanh, Activation::Sigmoid})
    for (size_t N = 0; N <= 33; ++N) {
      std::vector<float> In(N + 1);
      for (size_t I = 1; I <= N; ++I)
        In[I] = R.nextFloat(-30.0f, 30.0f);
      if (N > 4)
        In[N / 2] = 100.0f; // sends one sigmoid vector to the scalar call
      std::vector<float> Out(N + 2, Guard);
      activationMap(A, N, In.data() + 1, Out.data() + 1);
      std::vector<float> InPlace = In;
      activationMap(A, N, InPlace.data() + 1, InPlace.data() + 1);
      EXPECT_EQ(Out[0], Guard) << activationName(A) << " N=" << N;
      EXPECT_EQ(Out[N + 1], Guard) << activationName(A) << " N=" << N;
      for (size_t I = 1; I <= N; ++I) {
        uint32_t Want = floatBits(activationReference(A, In[I]));
        EXPECT_EQ(floatBits(Out[I]), Want)
            << activationName(A) << " N=" << N << " at " << I - 1;
        EXPECT_EQ(floatBits(InPlace[I]), Want)
            << activationName(A) << " N=" << N << " in place at " << I - 1;
      }
    }
}
