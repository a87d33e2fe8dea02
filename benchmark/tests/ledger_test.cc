// Unit tests for the benchmark's own arithmetic (benchmark/src/ledger.h).

#include "benchmark/src/ledger.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

namespace alae {
namespace ledger {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailTest, KeepsTenSamplesBeyondAndCapsAtP99) {
  // n = 100: (100 - 10) / 100 = p90, the 90th sample, ten above it.
  Tail t = TailOf(OneTo(100));
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_DOUBLE_EQ(t.value, 90.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 100u);

  // n = 5000: capped at p99 -> rank 4950, fifty beyond.
  t = TailOf(OneTo(5000));
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 4950.0);
  EXPECT_EQ(t.beyond, 50u);

  // Every sample count keeps at least ten beyond.
  for (int n = 11; n < 2000; n += 7) {
    EXPECT_GE(TailOf(OneTo(n)).beyond, Tail::kMinBeyond) << n;
  }
}

TEST(TailTest, TooFewSamplesReportsTheMaximumWithoutAPercentile) {
  const Tail t = TailOf({3, 1, 2});
  EXPECT_DOUBLE_EQ(t.percentile, 0.0);
  EXPECT_DOUBLE_EQ(t.value, 3.0);
  EXPECT_EQ(t.beyond, 0u);
  EXPECT_DOUBLE_EQ(TailOf({}).value, 0.0);
}

TEST(TailTest, UnsortedInput) {
  std::vector<double> v = OneTo(20);
  std::reverse(v.begin(), v.end());
  const Tail t = TailOf(v);
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_DOUBLE_EQ(t.value, 10.0);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(OpCountsTest, RefusedAndFailedBothCount) {
  OpCounts ops;
  ops.Record(api::Status::Ok());
  ops.Record(api::Status::Ok());
  ops.Record(api::Status::ResourceExhausted("queue full"));
  ops.Record(api::Status::DeadlineExceeded("late"));
  EXPECT_EQ(ops.attempted, 4u);
  EXPECT_EQ(ops.ok, 2u);
  EXPECT_EQ(ops.refused, 1u);
  EXPECT_EQ(ops.failed, 1u);
  EXPECT_EQ(ops.not_ok(), 2u);
  EXPECT_DOUBLE_EQ(ops.FailedFrac(), 0.5);

  OpCounts more;
  more.Record(api::Status::Internal("boom"));
  ops.Merge(more);
  EXPECT_EQ(ops.attempted, 5u);
  EXPECT_DOUBLE_EQ(ops.FailedFrac(), 3.0 / 5.0);
  EXPECT_DOUBLE_EQ(OpCounts().FailedFrac(), 0.0);
}

TEST(SpanTest, SelfTimeCountsOverlappingChildrenOnce) {
  // search [0,100): admit [0,10), two parallel executes [20,60) and
  // [30,80) -> children cover 10 + 60 = 70, self 30. Executes are leaves.
  const std::vector<obs::TraceSpan> spans = {
      {"search", 0, 100, -1},
      {"admit", 0, 10, 0},
      {"execute", 20, 60, 0},
      {"execute", 30, 80, 0},
  };
  const std::vector<int64_t> self = SelfNanos(spans);
  ASSERT_EQ(self.size(), 4u);
  EXPECT_EQ(self[0], 30);
  EXPECT_EQ(self[1], 10);
  EXPECT_EQ(self[2], 40);
  EXPECT_EQ(self[3], 50);
}

TEST(SpanTest, ChildOutsideItsParentIsClipped) {
  const std::vector<obs::TraceSpan> spans = {
      {"search", 100, 200, -1},
      {"serialize", 150, 260, 0},
  };
  EXPECT_EQ(SelfNanos(spans)[0], 50);
}

TEST(SpanTest, CoveredNanosUnionsAndClips) {
  EXPECT_EQ(CoveredNanos({{0, 10}, {5, 20}, {30, 40}}, {0, 100}), 30);
  EXPECT_EQ(CoveredNanos({{0, 10}, {5, 20}, {30, 40}}, {8, 35}), 17);
  EXPECT_EQ(CoveredNanos({{50, 60}}, {0, 40}), 0);
  EXPECT_EQ(CoveredNanos({}, {0, 40}), 0);
}

TEST(RenderedTest, ParsesTheSlowLogFormat) {
  obs::Trace trace;
  const int root = trace.AddSpan("search", 0, 2'000'000);
  trace.AddSpan("admit", 0, 15'000, root);
  trace.AddSpan("execute", 20'000, 1'500'000, root);
  trace.AddSpan("serialize", 1'900'000, 1'950'000);
  const std::vector<RenderedSpan> spans = ParseRendered(trace.Render());
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "search");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_DOUBLE_EQ(spans[0].micros, 2000.0);
  EXPECT_EQ(spans[1].name, "admit");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_DOUBLE_EQ(spans[1].micros, 15.0);
  EXPECT_EQ(spans[2].name, "execute");
  EXPECT_DOUBLE_EQ(spans[2].micros, 1480.0);
  EXPECT_EQ(spans[3].name, "serialize");
  EXPECT_EQ(spans[3].depth, 0);
  EXPECT_TRUE(ParseRendered("garbage\n  name: 12ms\n").empty());
}

TEST(CorrectnessGateTest, RejectsASingleCorruptedHit) {
  std::vector<AlignmentHit> reference;
  for (int64_t i = 0; i < 50; ++i) reference.push_back({100 + i, i, 20, -1});
  const Answer expected = Answer::Of(reference);
  EXPECT_EQ(expected.hits, 50u);
  EXPECT_EQ(CompareAnswers(Answer::Of(reference), expected), "");

  // text_start is not part of the answer (not every backend reports it).
  std::vector<AlignmentHit> corrupted = reference;
  corrupted[5].text_start = 7;
  EXPECT_EQ(CompareAnswers(Answer::Of(corrupted), expected), "");

  for (size_t i : {0u, 17u, 49u}) {
    corrupted = reference;
    corrupted[i].score += 1;
    EXPECT_NE(CompareAnswers(Answer::Of(corrupted), expected), "") << i;
    corrupted = reference;
    corrupted[i].text_end += 1;
    EXPECT_NE(CompareAnswers(Answer::Of(corrupted), expected), "") << i;
    corrupted = reference;
    corrupted[i].query_end -= 1;
    EXPECT_NE(CompareAnswers(Answer::Of(corrupted), expected), "") << i;
  }

  corrupted = reference;
  std::swap(corrupted[3], corrupted[4]);  // delivery order matters
  EXPECT_NE(CompareAnswers(Answer::Of(corrupted), expected), "");
  corrupted = reference;
  corrupted.pop_back();
  const std::string diff = CompareAnswers(Answer::Of(corrupted), expected);
  EXPECT_NE(diff.find("served 49 hits"), std::string::npos) << diff;
  EXPECT_NE(CompareAnswers(Answer::Of({}), expected), "");
}

}  // namespace
}  // namespace ledger
}  // namespace alae
