// Unit tests of the benchmark's own helpers: percentile and geomean
// math, self-time subtraction on a hand-built span tree, and result
// checks turning a corrupted result into a failure.
#include <gtest/gtest.h>

#include <cmath>

#include "harness.h"
#include "trace.h"

namespace perfbench {
namespace {

using periodk::Relation;
using periodk::Row;
using periodk::Schema;
using periodk::Value;

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  std::vector<double> v = {4, 1, 3, 2};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 1.75);  // rank 0.75
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3);
  EXPECT_TRUE(std::isnan(Percentile({}, 50)));
}

TEST(GeomeanTest, MatchesClosedForm) {
  EXPECT_DOUBLE_EQ(Geomean({2, 8}), 4);
  EXPECT_NEAR(Geomean({1, 10, 100}), 10, 1e-12);
  EXPECT_TRUE(std::isnan(Geomean({})));
  EXPECT_TRUE(std::isnan(Geomean({1, 0})));
}

TEST(GeomeanTest, LayerSamplesWeighEachClassTheSame) {
  LayerSamples layers;
  for (double v : {1.0, 2.0, 3.0}) layers.Add("x", "fast", v);  // median 2
  layers.Add("x", "slow", 50);                                   // median 50
  EXPECT_DOUBLE_EQ(layers.GeomeanOfMedians("x"), 10);
  EXPECT_TRUE(std::isnan(layers.GeomeanOfMedians("missing")));
}

TEST(SelfTimeTest, SubtractsDirectChildrenOnly) {
  // request [0,100] -> execute [10,90] -> join [20,80] -> scan [30,40]
  //                                                    -> scan [50,55]
  //                 -> parse [92,95]
  std::vector<Span> spans = {
      {"request", 0, 100, -1, 7}, {"execute", 10, 90, 0, 7},
      {"join", 20, 80, 1, 7},     {"scan", 30, 40, 2, 7},
      {"scan", 50, 55, 2, 7},     {"parse", 92, 95, 0, 7}};
  std::vector<double> self = SelfTimesUs(spans);
  EXPECT_DOUBLE_EQ(self[0], 100 - 80 - 3);
  EXPECT_DOUBLE_EQ(self[1], 80 - 60);
  EXPECT_DOUBLE_EQ(self[2], 60 - 10 - 5);
  EXPECT_DOUBLE_EQ(self[3], 10);
  EXPECT_DOUBLE_EQ(self[4], 5);
  EXPECT_DOUBLE_EQ(self[5], 3);
  double total = 0;
  for (double s : self) total += s;
  EXPECT_DOUBLE_EQ(total, 100);  // self times partition the root span
}

TEST(SelfTimeTest, TracerRecordsNesting) {
  Tracer tracer;
  {
    Tracer::Scope outer(&tracer, "outer", 1);
    Tracer::Scope inner(&tracer, "inner", 1);
  }
  Tracer::Scope next(&tracer, "next", 2);
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].parent, -1);
  EXPECT_LE(tracer.spans()[0].start_us, tracer.spans()[1].start_us);
  EXPECT_GE(tracer.spans()[0].end_us, tracer.spans()[1].end_us);
}

Relation Sample() {
  Relation r(Schema::FromNames({"k", "v"}));
  r.AddRow({Value::Int(1), Value::Double(0.5)});
  r.AddRow({Value::Int(2), Value::Double(1.25)});
  r.AddRow({Value::Int(2), Value::Double(1.25)});
  return r;
}

TEST(ResultCheckTest, FingerprintIgnoresOrderButNotContent) {
  Relation a = Sample();
  Relation reordered(Schema::FromNames({"k", "v"}));
  for (int i = 2; i >= 0; --i) reordered.AddRow(a.rows()[i]);
  EXPECT_EQ(ShapeOf(a), ShapeOf(reordered));
  Relation dropped = a;
  dropped.mutable_rows().pop_back();  // multiplicity 2 -> 1
  EXPECT_NE(ShapeOf(a), ShapeOf(dropped));
}

TEST(ResultCheckTest, BagsMatchToleratesRoundingOnly) {
  Relation a = Sample();
  Relation close = a;
  close.mutable_rows()[0][1] = Value::Double(0.5 * (1 + 1e-12));
  std::string why;
  EXPECT_TRUE(BagsMatch(a, close, 1e-9, &why)) << why;
  Relation off = a;
  off.mutable_rows()[0][1] = Value::Double(0.51);
  EXPECT_FALSE(BagsMatch(a, off, 1e-9, &why));
  EXPECT_FALSE(why.empty());
  EXPECT_FALSE(RowsMatch(a, off, 1e-9, nullptr));
}

Relation Periods(const std::vector<std::vector<int64_t>>& rows) {
  Relation r(Schema::FromNames({"v", "a_begin", "a_end"}));
  for (const auto& row : rows) {
    r.AddRow({Value::Int(row[0]), Value::Int(row[1]), Value::Int(row[2])});
  }
  return r;
}

TEST(ResultCheckTest, SnapshotsMatchComparesEveryTimeslice) {
  Relation coalesced = Periods({{7, 0, 10}, {8, 5, 6}});
  Relation split = Periods({{7, 0, 4}, {7, 4, 10}, {8, 5, 6}});
  std::string why;
  EXPECT_FALSE(BagsMatch(coalesced, split, 1e-9, nullptr));
  EXPECT_TRUE(SnapshotsMatch(coalesced, split, 1e-9, &why)) << why;
  Relation gap = Periods({{7, 0, 4}, {7, 5, 10}, {8, 5, 6}});
  EXPECT_FALSE(SnapshotsMatch(coalesced, gap, 1e-9, &why));
  EXPECT_NE(why.find("snapshot at 4"), std::string::npos) << why;
}

TEST(ResultCheckTest, CorruptedResultRaisesFailedFrac) {
  // The workloads' rule: a timed result must have the first pass's
  // shape; anything else is recorded as a failed operation.
  Relation first = Sample();
  const ResultShape expected = ShapeOf(first);
  Outcomes outcomes;
  for (int pass = 0; pass < 3; ++pass) {
    outcomes.Record(ShapeOf(Sample()) == expected);
  }
  EXPECT_EQ(outcomes.failed, 0);
  EXPECT_DOUBLE_EQ(outcomes.FailedFrac(), 0);
  Relation corrupted = Sample();
  corrupted.mutable_rows()[1][0] = Value::Int(3);
  outcomes.Record(ShapeOf(corrupted) == expected);
  EXPECT_EQ(outcomes.attempted, 4);
  EXPECT_EQ(outcomes.failed, 1);
  EXPECT_DOUBLE_EQ(outcomes.FailedFrac(), 0.25);
}

TEST(CalibrationTest, MeasuresPositiveTime) {
  EXPECT_GT(CalibrationSeconds(), 0);
}

TEST(JsonTest, NumbersKeepTheirDigits) {
  EXPECT_EQ(JsonNumber(0.1), "0.10000000000000001");
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  EXPECT_EQ(JsonString("a\"b"), "\"a\\\"b\"");
}

}  // namespace
}  // namespace perfbench
