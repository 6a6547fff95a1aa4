//===-- perfbench/tests/SpansTest.cpp - Span recorder ---------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>

using namespace perfbench;

namespace {

const Span &named(const std::vector<Span> &All, const char *Name) {
  for (const Span &S : All)
    if (std::strcmp(S.Name, Name) == 0)
      return S;
  static Span None;
  ADD_FAILURE() << "no span " << Name;
  return None;
}

TEST(SpanRecorderTest, NestsOnOneThread) {
  SpanRecorder Rec;
  {
    ScopedSpan Outer(&Rec, "a.outer", 7);
    ScopedSpan Inner(&Rec, "b.inner", 7);
  }
  std::vector<Span> All = Rec.merged();
  ASSERT_EQ(All.size(), 2u);
  const Span &Outer = named(All, "a.outer");
  const Span &Inner = named(All, "b.inner");
  EXPECT_EQ(Outer.Parent, 0u);
  EXPECT_EQ(Inner.Parent, Outer.Id);
  EXPECT_EQ(Inner.Request, 7u);
  EXPECT_LE(Outer.StartNs, Inner.StartNs);
  EXPECT_GE(Outer.EndNs, Inner.EndNs);
}

TEST(SpanRecorderTest, MergesPerThreadBuffersWithExplicitParents) {
  SpanRecorder Rec;
  {
    ScopedSpan Root(&Rec, "bench.root");
    std::vector<std::thread> Threads;
    for (int T = 0; T < 3; ++T)
      Threads.emplace_back([&, T] {
        for (int I = 0; I < 100; ++I) {
          ScopedSpan Child(&Rec, "x.child", T, Root.id());
          ScopedSpan Leaf(&Rec, "x.leaf", T);
        }
      });
    for (std::thread &T : Threads)
      T.join();
  }
  std::vector<Span> All = Rec.merged();
  ASSERT_EQ(All.size(), 1u + 3 * 200);
  const Span &Root = named(All, "bench.root");
  std::map<uint64_t, const Span *> ById;
  std::map<uint32_t, size_t> PerThread;
  for (const Span &S : All) {
    EXPECT_TRUE(ById.emplace(S.Id, &S).second) << "duplicate id";
    ++PerThread[S.Thread];
  }
  EXPECT_EQ(PerThread.size(), 4u);
  for (const Span &S : All) {
    if (std::strcmp(S.Name, "x.child") == 0) {
      EXPECT_EQ(S.Parent, Root.Id);
      EXPECT_NE(S.Thread, Root.Thread);
    } else if (std::strcmp(S.Name, "x.leaf") == 0) {
      const Span &Parent = *ById.at(S.Parent);
      EXPECT_STREQ(Parent.Name, "x.child");
      EXPECT_EQ(Parent.Thread, S.Thread);
    }
  }
  for (size_t I = 1; I < All.size(); ++I)
    EXPECT_LE(All[I - 1].StartNs, All[I].StartNs);
}

TEST(SpanRecorderTest, NullRecorderRecordsNothing) {
  SpanRecorder Rec;
  {
    ScopedSpan Off(nullptr, "a.off");
    EXPECT_EQ(Off.id(), 0u);
    ScopedSpan On(&Rec, "a.on");
    EXPECT_EQ(Rec.merged().size(), 0u);
  }
  std::vector<Span> All = Rec.merged();
  ASSERT_EQ(All.size(), 1u);
  EXPECT_EQ(All[0].Parent, 0u);
}

TEST(SpanRecorderTest, RenameKeepsTiming) {
  SpanRecorder Rec;
  {
    ScopedSpan S(&Rec, "t.miss");
    S.rename("t.hit");
  }
  EXPECT_STREQ(Rec.merged().at(0).Name, "t.hit");
}

} // namespace
