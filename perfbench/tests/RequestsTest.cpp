//===-- perfbench/tests/RequestsTest.cpp - Serve request generator --------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Requests.h"

#include <gtest/gtest.h>

#include <set>

using namespace liger;
using namespace perfbench;

namespace {

TEST(RequestStreamTest, SameSeedSameStream) {
  std::vector<StreamRequest> A = generateStream(11, 2, 500);
  std::vector<StreamRequest> B = generateStream(11, 2, 500);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Request.Source, B[I].Request.Source);
    EXPECT_EQ(A[I].Request.MethodName, B[I].Request.MethodName);
    EXPECT_EQ(A[I].Kind, B[I].Kind);
    EXPECT_EQ(A[I].Expected, B[I].Expected);
  }
}

TEST(RequestStreamTest, LongerStreamExtendsShorter) {
  std::vector<StreamRequest> Short = generateStream(5, 0, 100);
  std::vector<StreamRequest> Long = generateStream(5, 0, 300);
  for (size_t I = 0; I < Short.size(); ++I)
    EXPECT_EQ(Short[I].Request.Source, Long[I].Request.Source);
}

TEST(RequestStreamTest, SeedsAndClientsDiffer) {
  EXPECT_NE(generateStream(1, 0, 20)[0].Request.Source +
                generateStream(1, 0, 20)[5].Request.Source,
            generateStream(2, 0, 20)[0].Request.Source +
                generateStream(2, 0, 20)[5].Request.Source);
  EXPECT_NE(generateStream(1, 0, 1)[0].Request.MethodName,
            generateStream(1, 1, 1)[0].Request.MethodName);
}

TEST(RequestStreamTest, SharesMatchTheMix) {
  const size_t N = 20000;
  std::vector<StreamRequest> S = generateStream(3, 0, N);
  size_t Kinds[5] = {0, 0, 0, 0, 0};
  for (const StreamRequest &R : S)
    ++Kinds[static_cast<size_t>(R.Kind)];
  double Repeat = double(Kinds[size_t(RequestKind::Repeat)]) / N;
  double Invalid = double(Kinds[size_t(RequestKind::ParseError)] +
                          Kinds[size_t(RequestKind::MissingMethod)] +
                          Kinds[size_t(RequestKind::TooSmall)]) /
                   N;
  EXPECT_NEAR(Repeat, RepeatShare, 0.02);
  EXPECT_NEAR(Invalid, InvalidShare, 0.01);
  for (size_t K = 2; K < 5; ++K)
    EXPECT_GT(Kinds[K], N / 100) << requestKindName(RequestKind(K));
}

TEST(RequestStreamTest, RepeatsCopyAnEarlierNovelRequest) {
  std::vector<StreamRequest> S = generateStream(9, 1, 2000);
  std::set<std::string> NovelSources;
  for (size_t I = 0; I < S.size(); ++I) {
    const StreamRequest &R = S[I];
    if (R.Kind == RequestKind::Repeat) {
      ASSERT_LT(R.RepeatOf, I);
      EXPECT_EQ(S[R.RepeatOf].Kind, RequestKind::Novel);
      EXPECT_EQ(S[R.RepeatOf].Request.Source, R.Request.Source);
      EXPECT_EQ(S[R.RepeatOf].Request.MethodName, R.Request.MethodName);
    } else if (R.Kind == RequestKind::Novel) {
      EXPECT_TRUE(NovelSources.insert(R.Request.Source).second)
          << "novel request repeats an earlier source";
      EXPECT_EQ(R.Expected, ServeStatus::Ok);
    }
  }
}

TEST(RequestStreamTest, ExpectedStatusesMatchTheService) {
  ServeConfig Config;
  Config.Workers = 0;
  Config.Scale.MethodsMed = 24;
  ServeEngine Engine(Config);
  std::vector<StreamRequest> S = generateStream(4, 0, 400);
  size_t Invalid = 0;
  for (const StreamRequest &R : S) {
    if (R.Kind == RequestKind::Repeat)
      continue;
    Invalid += R.Kind != RequestKind::Novel;
    EXPECT_EQ(Engine.handle(R.Request).Status, R.Expected)
        << requestKindName(R.Kind) << "\n"
        << R.Request.Source;
  }
  EXPECT_GT(Invalid, 0u);
}

} // namespace
