// The sweep-based interval-overlap join (engine/interval_join.h) and
// the join-predicate analysis feeding it (ra/join_analysis.h): unit
// tests for the structural recognition, plus randomized property tests
// asserting bag equality against the nested-loop reference across
// equi+overlap and overlap-only predicates -- including NULL keys,
// NULL/ill-typed endpoints and empty-validity rows, which must take the
// slow lane rather than silently diverge from SQL comparison semantics.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/str_util.h"
#include "engine/executor.h"
#include "engine/interval_join.h"
#include "engine/timeline_index.h"
#include "ra/join_analysis.h"
#include "rewrite/rewriter.h"
#include "tests/random_query.h"
#include "tests/running_example.h"

namespace periodk {
namespace {

// Predicate helpers over two concatenated {a, b, a_begin, a_end}
// schemas: left columns 0..3, right columns 4..7.
ExprPtr OverlapPred() {
  return And(Lt(Col(2), Col(7)), Lt(Col(6), Col(3)));
}

Schema EncodedAbSchema() {
  return Schema::FromNames({"a", "b", "a_begin", "a_end"});
}

const Plan* FindJoin(const PlanPtr& plan) {
  if (plan == nullptr) return nullptr;
  if (plan->kind == PlanKind::kJoin) return plan.get();
  const Plan* found = FindJoin(plan->left);
  return found != nullptr ? found : FindJoin(plan->right);
}

TEST(JoinAnalysisTest, RecognizesRewriteJoinShape) {
  // theta' AND b1 < e2 AND b2 < e1, the exact shape RewriteJoin emits.
  ExprPtr pred = And(Eq(Col(0), Col(4)), OverlapPred());
  JoinAnalysis ja = AnalyzeJoinPredicate(pred, 4);
  ASSERT_EQ(ja.equi_keys.size(), 1u);
  EXPECT_EQ(ja.equi_keys[0], (std::pair<int, int>{0, 0}));
  ASSERT_TRUE(ja.overlap.has_value());
  EXPECT_EQ(ja.overlap->left_begin, 2);
  EXPECT_EQ(ja.overlap->left_end, 3);
  EXPECT_EQ(ja.overlap->right_begin, 2);
  EXPECT_EQ(ja.overlap->right_end, 3);
  EXPECT_EQ(ja.residual, nullptr);
}

TEST(JoinAnalysisTest, RecognizesFlippedComparisons) {
  // b1 < e2 written as e2 > b1, b2 < e1 as e1 > b2.
  ExprPtr pred = And(Gt(Col(7), Col(2)), Gt(Col(3), Col(6)));
  JoinAnalysis ja = AnalyzeJoinPredicate(pred, 4);
  ASSERT_TRUE(ja.overlap.has_value());
  EXPECT_EQ(ja.overlap->left_begin, 2);
  EXPECT_EQ(ja.overlap->left_end, 3);
  EXPECT_EQ(ja.overlap->right_begin, 2);
  EXPECT_EQ(ja.overlap->right_end, 3);
  EXPECT_TRUE(ja.equi_keys.empty());
  EXPECT_EQ(ja.residual, nullptr);
}

TEST(JoinAnalysisTest, SameSideComparisonStaysResidual) {
  ExprPtr pred = And(Lt(Col(0), Col(1)), Lt(Col(4), Col(5)));
  JoinAnalysis ja = AnalyzeJoinPredicate(pred, 4);
  EXPECT_FALSE(ja.overlap.has_value());
  ASSERT_NE(ja.residual, nullptr);
}

TEST(JoinAnalysisTest, UnmatchedHalfStaysResidual) {
  // Only one direction present: no overlap conjunct, the inequality
  // must survive in the residual.
  ExprPtr pred = And(Eq(Col(0), Col(4)), Lt(Col(2), Col(7)));
  JoinAnalysis ja = AnalyzeJoinPredicate(pred, 4);
  EXPECT_FALSE(ja.overlap.has_value());
  ASSERT_EQ(ja.equi_keys.size(), 1u);
  ASSERT_NE(ja.residual, nullptr);
}

TEST(JoinAnalysisTest, ExtraConjunctsLandInResidual) {
  ExprPtr pred = AndAll({Eq(Col(0), Col(4)), OverlapPred(),
                         Ne(Col(1), Col(5)), Lt(Col(0), LitInt(10))});
  JoinAnalysis ja = AnalyzeJoinPredicate(pred, 4);
  EXPECT_TRUE(ja.overlap.has_value());
  EXPECT_EQ(ja.equi_keys.size(), 1u);
  ASSERT_NE(ja.residual, nullptr);
}

TEST(JoinAnalysisTest, RewriterJoinPlansCarryOverlapStructurally) {
  // The plan REWR produces for a snapshot join must route through the
  // sweep: its kJoin node carries the recognized overlap.
  SnapshotRewriter rewriter(kExampleDomain, RewriteOptions{});
  PlanPtr query =
      MakeJoin(MakeScan("works", WorksSnapshotSchema()),
               MakeScan("assign", AssignSnapshotSchema()),
               Eq(Col(1), Col(3)));
  PlanPtr rewritten = rewriter.Rewrite(query);
  const Plan* node = FindJoin(rewritten);
  ASSERT_NE(node, nullptr);
  ASSERT_TRUE(node->join.overlap.has_value());
  ASSERT_EQ(node->join.equi_keys.size(), 1u);
  EXPECT_EQ(node->join.residual, nullptr);
}

TEST(IntervalJoinTest, MatchesNestedLoopOnHandPickedEdgeCases) {
  Relation r(EncodedAbSchema());
  // Normal rows, duplicates, an empty-validity row, NULL and string
  // endpoints: everything the slow lane exists for.
  r.AddRow({Value::Int(1), Value::Int(10), Value::Int(0), Value::Int(5)});
  r.AddRow({Value::Int(1), Value::Int(10), Value::Int(0), Value::Int(5)});
  r.AddRow({Value::Int(2), Value::Int(20), Value::Int(7), Value::Int(7)});
  r.AddRow({Value::Int(3), Value::Int(30), Value::Null(), Value::Int(9)});
  r.AddRow({Value::Int(4), Value::Int(40), Value::String("b"),
            Value::String("d")});
  Relation s(EncodedAbSchema());
  s.AddRow({Value::Int(1), Value::Int(11), Value::Int(3), Value::Int(8)});
  s.AddRow({Value::Int(2), Value::Int(21), Value::Int(6), Value::Int(9)});
  s.AddRow({Value::Int(5), Value::Int(51), Value::String("a"),
            Value::String("c")});
  s.AddRow({Value::Null(), Value::Int(0), Value::Int(0), Value::Int(10)});

  Catalog catalog;
  catalog.Put("r", std::move(r));
  catalog.Put("s", std::move(s));
  for (const ExprPtr& pred :
       {OverlapPred(), And(Eq(Col(0), Col(4)), OverlapPred())}) {
    PlanPtr join = MakeJoin(MakeScan("r", EncodedAbSchema()),
                            MakeScan("s", EncodedAbSchema()), pred);
    ASSERT_TRUE(join->join.overlap.has_value());
    Relation sweep = Execute(join, catalog);
    Relation reference = NestedLoopJoin(*join, catalog.Get("r"),
                                        catalog.Get("s"));
    EXPECT_TRUE(sweep.BagEquals(reference))
        << "sweep:\n" << sweep.ToString() << "reference:\n"
        << reference.ToString();
  }
}

TEST(IntervalJoinTest, EmptyIntervalCanStillMatchViaSlowLane) {
  // An empty interval [7, 7) satisfies b1 < e2 AND b2 < e1 against any
  // interval strictly containing the point: the raw predicate does not
  // know about validity, so the sweep must reproduce the match.
  Relation r(EncodedAbSchema());
  r.AddRow({Value::Int(1), Value::Int(0), Value::Int(7), Value::Int(7)});
  Relation s(EncodedAbSchema());
  s.AddRow({Value::Int(1), Value::Int(0), Value::Int(5), Value::Int(9)});
  Catalog catalog;
  catalog.Put("r", std::move(r));
  catalog.Put("s", std::move(s));
  PlanPtr join = MakeJoin(MakeScan("r", EncodedAbSchema()),
                          MakeScan("s", EncodedAbSchema()), OverlapPred());
  Relation out = Execute(join, catalog);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.BagEquals(
      NestedLoopJoin(*join, catalog.Get("r"), catalog.Get("s"))));
}

TEST(IntervalJoinPropertyTest, SweepEqualsNestedLoopReference) {
  TimeDomain domain{0, 40};
  for (uint64_t seed = 0; seed < 120; ++seed) {
    Rng rng(seed * 7919 + 17);
    Catalog catalog = RandomEncodedCatalog(&rng, domain, /*max_rows=*/25,
                                           /*null_chance=*/0.2,
                                           /*empty_validity_chance=*/0.15);
    std::vector<ExprPtr> preds = {
        // Pure temporal join (the nested-loop killer).
        OverlapPred(),
        // REWR's equi + overlap shape.
        And(Eq(Col(0), Col(4)), OverlapPred()),
        // With an extra opaque residual.
        AndAll({Eq(Col(0), Col(4)), OverlapPred(), Ne(Col(1), Col(5))}),
        // Flipped comparison spelling.
        And(Gt(Col(7), Col(2)), Gt(Col(3), Col(6))),
        // Data columns participating in the inequality pair: still a
        // valid "overlap" of derived intervals, still must agree.
        And(Lt(Col(1), Col(5)), Lt(Col(6), Col(3))),
    };
    for (size_t p = 0; p < preds.size(); ++p) {
      PlanPtr join = MakeJoin(MakeScan("r", EncodedAbSchema()),
                              MakeScan("s", EncodedAbSchema()), preds[p]);
      ASSERT_TRUE(join->join.overlap.has_value());
      Relation sweep = Execute(join, catalog);
      Relation reference = NestedLoopJoin(*join, catalog.Get("r"),
                                          catalog.Get("s"));
      ASSERT_TRUE(sweep.BagEquals(reference))
          << "seed " << seed << " predicate #" << p << "\nsweep:\n"
          << sweep.ToString() << "reference:\n" << reference.ToString();
    }
  }
}

/// Exact comparison: same rows in the same order.  The index-pruned
/// sweep promises row identity with the unindexed sweep, not just bag
/// equality.
void ExpectRowsIdentical(const Relation& got, const Relation& want,
                         const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.rows()[i], want.rows()[i]) << context << " at row " << i;
  }
}

TEST(IntervalJoinPropertyTest, IndexCandidatesKeepSweepRowExact) {
  // Timeline-index candidate pruning (AliveInRange over the opposite
  // side's endpoint span) must leave the join output row-identical to
  // the unindexed sweep — including NULL keys, empty/reversed validity
  // intervals (slow lane) and duplicate rows.
  TimeDomain domain{0, 40};
  for (uint64_t seed = 0; seed < 80; ++seed) {
    Rng rng(seed * 6151 + 11);
    Catalog catalog = RandomEncodedCatalog(&rng, domain, /*max_rows=*/25,
                                           /*null_chance=*/0.2,
                                           /*empty_validity_chance=*/0.25);
    std::vector<ExprPtr> preds = {
        OverlapPred(),
        And(Eq(Col(0), Col(4)), OverlapPred()),
        AndAll({Eq(Col(0), Col(4)), OverlapPred(), Ne(Col(1), Col(5))}),
    };
    EncodeTables(&catalog);
    catalog.PutIndex("r", TimelineIndex::Build(catalog.GetShared("r")));
    catalog.PutIndex("s", TimelineIndex::Build(catalog.GetShared("s")));
    for (size_t p = 0; p < preds.size(); ++p) {
      for (const char* rhs : {"s", "r"}) {  // r-s and self-join shapes
        PlanPtr join = MakeJoin(MakeScan("r", EncodedAbSchema()),
                                MakeScan(rhs, EncodedAbSchema()), preds[p]);
        ASSERT_TRUE(join->join.overlap.has_value());
        ExecOptions no_index;
        no_index.use_timeline_index = false;
        ExecStats plain_stats;
        Relation plain = Execute(join, catalog, no_index, &plain_stats);
        EXPECT_EQ(plain_stats.index_join_prunes, 0);
        ExecStats stats;
        Relation pruned = Execute(join, catalog, ExecOptions{}, &stats);
        EXPECT_EQ(stats.index_join_prunes, 2)
            << "seed " << seed << " predicate #" << p;
        ExpectRowsIdentical(pruned, plain,
                            StrCat("seed ", seed, " predicate #", p, " rhs ",
                                   rhs));
      }
    }
  }
}

TEST(IntervalJoinPropertyTest, IndexCandidatesHandleDegenerateSpans) {
  // One side holds only empty/reversed intervals: the combined span
  // collapses (lo >= hi) and pruning must fall back to AliveAt without
  // losing the slow-lane matches those rows still produce.
  Relation r(EncodedAbSchema());
  r.AddRow({Value::Int(1), Value::Int(0), Value::Int(7), Value::Int(7)});
  r.AddRow({Value::Int(2), Value::Int(0), Value::Int(8), Value::Int(6)});
  Relation s(EncodedAbSchema());
  s.AddRow({Value::Int(1), Value::Int(0), Value::Int(5), Value::Int(9)});
  s.AddRow({Value::Int(2), Value::Int(0), Value::Int(2), Value::Int(4)});
  s.AddRow({Value::Int(3), Value::Int(0), Value::Int(30), Value::Int(35)});
  s.ToColumnar();
  Catalog catalog;
  catalog.Put("r", std::move(r));
  catalog.Put("s", std::move(s));
  catalog.PutIndex("s", TimelineIndex::Build(catalog.GetShared("s")));
  PlanPtr join = MakeJoin(MakeScan("r", EncodedAbSchema()),
                          MakeScan("s", EncodedAbSchema()), OverlapPred());
  ExecOptions no_index;
  no_index.use_timeline_index = false;
  Relation plain = Execute(join, catalog, no_index);
  ExecStats stats;
  Relation pruned = Execute(join, catalog, ExecOptions{}, &stats);
  EXPECT_EQ(stats.index_join_prunes, 1);  // only s carries an index
  ExpectRowsIdentical(pruned, plain, "degenerate span");
  // [7,7) and [8,6) both satisfy the raw conjunct against [5,9): two
  // slow-lane hits the pruning must not lose.
  EXPECT_EQ(plain.size(), 2u);

  // Double endpoints on the unindexed side widen the span via
  // floor/ceil (SQL compares int and double numerically).
  Relation d(EncodedAbSchema());
  d.AddRow({Value::Int(9), Value::Int(0), Value::Double(4.5),
            Value::Double(8.25)});
  catalog.Put("d", std::move(d));
  PlanPtr djoin = MakeJoin(MakeScan("d", EncodedAbSchema()),
                           MakeScan("s", EncodedAbSchema()), OverlapPred());
  Relation dplain = Execute(djoin, catalog, no_index);
  ExecStats dstats;
  Relation dpruned = Execute(djoin, catalog, ExecOptions{}, &dstats);
  EXPECT_EQ(dstats.index_join_prunes, 1);
  ExpectRowsIdentical(dpruned, dplain, "double endpoints");
  EXPECT_EQ(dplain.size(), 1u);  // [4.5, 8.25) overlaps [5, 9) only
}

TEST(IntervalJoinPropertyTest, SelfJoinOverlapOnly) {
  // Self-joins over time have no equi-key at all; the partition
  // degenerates to a single bucket and the sweep must still agree.
  TimeDomain domain{0, 60};
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed * 104729 + 3);
    Catalog catalog = RandomEncodedCatalog(&rng, domain, /*max_rows=*/30,
                                           /*null_chance=*/0.1,
                                           /*empty_validity_chance=*/0.1);
    PlanPtr join = MakeJoin(MakeScan("r", EncodedAbSchema()),
                            MakeScan("r", EncodedAbSchema()),
                            AndAll({OverlapPred(), Lt(Col(0), Col(4))}));
    ASSERT_TRUE(join->join.overlap.has_value());
    Relation sweep = Execute(join, catalog);
    Relation reference =
        NestedLoopJoin(*join, catalog.Get("r"), catalog.Get("r"));
    ASSERT_TRUE(sweep.BagEquals(reference)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace periodk
