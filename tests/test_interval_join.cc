// The sweep-based interval-overlap join (engine/interval_join.h) and
// the join-predicate analysis feeding it (ra/join_analysis.h): unit
// tests for the structural recognition, plus randomized property tests
// asserting bag equality against the nested-loop reference across
// equi+overlap and overlap-only predicates -- including NULL keys,
// NULL/ill-typed endpoints and empty-validity rows, which must take the
// slow lane rather than silently diverge from SQL comparison semantics
// -- and row identity across storage layouts, thread counts and index
// pruning.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

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

enum class KeyKind { kInt, kDouble, kString, kMixed };

// A key cell: NULL, or one of four values of `kind`.  Left strings are
// "a".."d" and right strings "c".."f", so the two sides' dictionaries
// differ and only partly overlap; doubles include -0.0, which must
// equal +0.0 and int 0.
Value RandomKey(Rng* rng, KeyKind kind, bool right_side) {
  if (rng->Chance(0.15)) return Value::Null();
  const int64_t k = rng->Range(0, 3);
  const char c = static_cast<char>((right_side ? 'c' : 'a') + k);
  const Value str = Value::String(std::string(1, c));
  switch (kind) {
    case KeyKind::kInt:
      return Value::Int(k);
    case KeyKind::kDouble:
      return Value::Double(k == 0 && rng->Chance(0.5) ? -0.0 : 0.5 * k);
    case KeyKind::kString:
      return str;
    case KeyKind::kMixed:
      return rng->Chance(0.5) ? Value::Int(k) : str;
  }
  return Value::Null();
}

// {a, b, a_begin, a_end} rows: `a` a key of `kind`, `b` a small int
// (or NULL), and with chance `bad_chance` an endpoint pair the sweep
// cannot stage -- NULL, double or string endpoints, or begin >= end.
Relation RandomJoinInput(Rng* rng, KeyKind kind, bool right_side,
                         double bad_chance) {
  Relation rel(EncodedAbSchema());
  const int n = static_cast<int>(rng->Uniform(26));
  for (int i = 0; i < n; ++i) {
    const TimePoint b = rng->Range(0, 38);
    Value vb = Value::Int(b);
    Value ve = Value::Int(rng->Range(b + 1, 39));
    if (rng->Chance(bad_chance)) {
      switch (rng->Uniform(5)) {
        case 0:
          (rng->Chance(0.5) ? vb : ve) = Value::Null();
          break;
        case 1:
          vb = Value::Double(static_cast<double>(b) + 0.5);
          break;
        case 2:
          ve = Value::Double(static_cast<double>(b) + 2.25);
          break;
        case 3:
          vb = Value::String("x");
          break;
        default:
          ve = Value::Int(rng->Range(0, b));
          break;
      }
    }
    const Value data =
        rng->Chance(0.1) ? Value::Null() : Value::Int(rng->Range(0, 3));
    rel.AddRow({RandomKey(rng, kind, right_side), data, vb, ve});
  }
  return rel;
}

// The output layout rule: gathered columns exactly when both inputs are
// columnar, no residual remains, every endpoint pair is a well-formed
// int interval and every key pair packs (shared tag, FastKeyable).
bool ExpectColumnarOutput(const Plan& join, const Relation& l,
                          const Relation& r) {
  if (!l.is_columnar() || !r.is_columnar() || join.join.residual != nullptr) {
    return false;
  }
  const OverlapSpec& ov = *join.join.overlap;
  auto well_formed = [](const Relation& rel, int bcol, int ecol) {
    const ColumnData& bc = rel.col(static_cast<size_t>(bcol));
    const ColumnData& ec = rel.col(static_cast<size_t>(ecol));
    if (bc.tag() != ColumnTag::kInt || ec.tag() != ColumnTag::kInt ||
        bc.has_nulls() || ec.has_nulls()) {
      return false;
    }
    for (size_t i = 0; i < rel.size(); ++i) {
      if (bc.ints()[i] >= ec.ints()[i]) return false;
    }
    return true;
  };
  if (!well_formed(l, ov.left_begin, ov.left_end) ||
      !well_formed(r, ov.right_begin, ov.right_end)) {
    return false;
  }
  for (const auto& [lc, rc] : join.join.equi_keys) {
    const ColumnData& a = l.col(static_cast<size_t>(lc));
    const ColumnData& b = r.col(static_cast<size_t>(rc));
    if (a.tag() != b.tag() || !FastKeyable(a) || !FastKeyable(b)) {
      return false;
    }
  }
  return true;
}

// The join's documented emission order, computed naively from the row
// views: buckets in first-appearance order of their key (left rows,
// then right rows; a NULL key joins nothing); per bucket, first the
// slow-lane pairs -- each left row with a malformed interval against
// every right row, then each well-formed left row against the
// malformed right rows, in source order, checked against the full
// predicate -- then the sweep pairs.  The sweep visits the well-formed
// rows in arrival order (begin, left before right, then source order)
// and pairs each arriving row with every earlier-arrived opposite row
// still open, in arrival order; those pairs are checked against the
// residual.
Relation ExpectedJoinOrder(const Plan& join, const Relation& l,
                           const Relation& r) {
  struct Side {
    std::vector<size_t> staged;
    std::vector<size_t> slow;
  };
  const JoinAnalysis& ja = join.join;
  const OverlapSpec& ov = *ja.overlap;
  std::vector<std::pair<Side, Side>> buckets;
  std::unordered_map<Row, size_t, RowHash, RowEq> bucket_of;
  // Endpoint column indexes of one side.
  auto endpoints = [&](bool left) {
    return std::pair{static_cast<size_t>(left ? ov.left_begin : ov.right_begin),
                     static_cast<size_t>(left ? ov.left_end : ov.right_end)};
  };
  auto stage = [&](const Relation& rel, bool left) {
    const auto [bcol, ecol] = endpoints(left);
    for (size_t i = 0; i < rel.size(); ++i) {
      const Row& row = rel.rows()[i];
      Row key;
      for (const auto& [lc, rc] : ja.equi_keys) {
        key.push_back(row[static_cast<size_t>(left ? lc : rc)]);
      }
      if (std::any_of(key.begin(), key.end(),
                      [](const Value& v) { return v.is_null(); })) {
        continue;
      }
      auto [it, fresh] = bucket_of.try_emplace(key, buckets.size());
      if (fresh) buckets.emplace_back();
      auto& [lside, rside] = buckets[it->second];
      Side& side = left ? lside : rside;
      const bool well_formed = row[bcol].type() == ValueType::kInt &&
                               row[ecol].type() == ValueType::kInt &&
                               row[bcol].AsInt() < row[ecol].AsInt();
      (well_formed ? side.staged : side.slow).push_back(i);
    }
  };
  stage(l, true);
  stage(r, false);
  Relation out(join.schema);
  auto emit = [&](const Expr* check, size_t li, size_t ri) {
    Row row = l.rows()[li];
    row.insert(row.end(), r.rows()[ri].begin(), r.rows()[ri].end());
    if (check == nullptr || check->EvalBool(row)) out.AddRow(std::move(row));
  };
  auto interval = [&](bool left, size_t i) {
    const Row& row = (left ? l : r).rows()[i];
    const auto [bcol, ecol] = endpoints(left);
    return std::pair{row[bcol].AsInt(), row[ecol].AsInt()};
  };
  for (const auto& [ls, rs] : buckets) {
    for (size_t li : ls.slow) {
      for (size_t ri : rs.staged) emit(join.predicate.get(), li, ri);
      for (size_t ri : rs.slow) emit(join.predicate.get(), li, ri);
    }
    for (size_t li : ls.staged) {
      for (size_t ri : rs.slow) emit(join.predicate.get(), li, ri);
    }
    std::vector<std::pair<bool, size_t>> arrivals;  // {is_right, row}
    for (size_t li : ls.staged) arrivals.emplace_back(false, li);
    for (size_t ri : rs.staged) arrivals.emplace_back(true, ri);
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [&](const auto& a, const auto& b) {
                       const TimePoint ab = interval(!a.first, a.second).first;
                       const TimePoint bb = interval(!b.first, b.second).first;
                       return ab != bb ? ab < bb : a.first < b.first;
                     });
    for (size_t c = 0; c < arrivals.size(); ++c) {
      const auto [c_right, c_row] = arrivals[c];
      for (size_t e = 0; e < c; ++e) {
        const auto [e_right, e_row] = arrivals[e];
        const TimePoint c_begin = interval(!c_right, c_row).first;
        if (e_right == c_right || interval(!e_right, e_row).second <= c_begin) {
          continue;
        }
        if (c_right) {
          emit(ja.residual.get(), e_row, c_row);
        } else {
          emit(ja.residual.get(), c_row, e_row);
        }
      }
    }
  }
  return out;
}

/// Exact comparison: same rows in the same order.  The index-pruned
/// sweep promises row identity with the unindexed sweep, and the two
/// storage layouts promise it with each other, not just bag equality.
void ExpectRowsIdentical(const Relation& got, const Relation& want,
                         const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.rows()[i], want.rows()[i]) << context << " at row " << i;
  }
}

TEST(IntervalJoinPropertyTest, SweepEqualsNestedLoopReference) {
  // Every random case runs with each input row-stored or columnar, at
  // 1 and 4 threads (fan-out ungated), with and without timeline-index
  // candidates.  Each run must be bag-equal to the nested loop,
  // row-identical to the sequential unpruned all-row-stored run, and in
  // the layout the output rule names.
  const std::vector<std::pair<KeyKind, KeyKind>> key_kinds = {
      {KeyKind::kInt, KeyKind::kInt},
      {KeyKind::kInt, KeyKind::kDouble},
      {KeyKind::kDouble, KeyKind::kDouble},
      {KeyKind::kString, KeyKind::kString},
      {KeyKind::kMixed, KeyKind::kString},
      {KeyKind::kInt, KeyKind::kMixed},
  };
  const std::vector<ExprPtr> preds = {
      // Pure temporal join (the nested-loop killer).
      OverlapPred(),
      // REWR's equi + overlap shape.
      And(Eq(Col(0), Col(4)), OverlapPred()),
      // With an extra opaque residual.
      AndAll({Eq(Col(0), Col(4)), OverlapPred(), Ne(Col(1), Col(5))}),
      // Two equi-keys.
      AndAll({Eq(Col(0), Col(4)), Eq(Col(1), Col(5)), OverlapPred()}),
      // Flipped comparison spelling.
      And(Gt(Col(7), Col(2)), Gt(Col(3), Col(6))),
      // Data columns participating in the inequality pair: still a
      // valid "overlap" of derived intervals, still must agree.
      And(Lt(Col(1), Col(5)), Lt(Col(6), Col(3))),
  };
  // Runs that reached each path, so a generator change cannot silently
  // stop covering one.
  int columnar_runs = 0;
  int slow_lane_runs = 0;
  int fanned_out_runs = 0;
  for (uint64_t seed = 0; seed < 120; ++seed) {
    Rng rng(seed * 7919 + 17);
    const auto [lkind, rkind] = key_kinds[seed % key_kinds.size()];
    // Every other seed has only well-formed intervals, so the columnar
    // output is reached.
    const double bad_chance = seed % 2 == 0 ? 0.0 : 0.2;
    const Relation r = RandomJoinInput(&rng, lkind, false, bad_chance);
    const Relation s = RandomJoinInput(&rng, rkind, true, bad_chance);
    bool has_slow_rows = false;
    for (const Relation* rel : {&r, &s}) {
      for (const Row& row : rel->rows()) {
        has_slow_rows = has_slow_rows || row[2].type() != ValueType::kInt ||
                        row[3].type() != ValueType::kInt ||
                        row[2].AsInt() >= row[3].AsInt();
      }
    }
    for (size_t p = 0; p < preds.size(); ++p) {
      PlanPtr join = MakeJoin(MakeScan("r", EncodedAbSchema()),
                              MakeScan("s", EncodedAbSchema()), preds[p]);
      ASSERT_TRUE(join->join.overlap.has_value());
      const Relation reference = NestedLoopJoin(*join, r, s);
      const Relation expected = ExpectedJoinOrder(*join, r, s);
      ASSERT_TRUE(expected.BagEquals(reference))
          << "order model, seed " << seed << " predicate #" << p;
      Relation base;
      for (int layout = 0; layout < 4; ++layout) {
        Catalog catalog;
        for (const auto& [name, rel, columnar] :
             {std::tuple{"r", &r, (layout & 1) != 0},
              std::tuple{"s", &s, (layout & 2) != 0}}) {
          Relation stored = *rel;
          if (columnar) stored.ToColumnar();
          catalog.Put(name, std::move(stored));
        }
        const bool columnar_out = ExpectColumnarOutput(
            *join, catalog.Get("r"), catalog.Get("s"));
        for (int threads : {1, 4}) {
          ExecOptions options;
          options.num_threads = threads;
          options.use_cost_model = false;  // let tiny inputs fan out
          ExecStats stats;
          Relation out = Execute(join, catalog, options, &stats);
          const std::string context =
              StrCat("seed ", seed, " predicate #", p, " layout ", layout,
                     " threads ", threads);
          ASSERT_TRUE(out.BagEquals(reference))
              << context << "\nsweep:\n" << out.ToString()
              << "reference:\n" << reference.ToString();
          EXPECT_EQ(out.is_columnar(), columnar_out) << context;
          columnar_runs += static_cast<int>(columnar_out);
          slow_lane_runs += static_cast<int>(has_slow_rows);
          fanned_out_runs += static_cast<int>(stats.parallel_tasks > 0);
          if (layout == 0 && threads == 1) {
            ExpectRowsIdentical(out, expected, context + " vs order model");
            base = std::move(out);
          } else {
            ExpectRowsIdentical(out, base, context);
          }
        }
      }
    }
  }
  EXPECT_GT(columnar_runs, 0);
  EXPECT_GT(slow_lane_runs, 0);
  EXPECT_GT(fanned_out_runs, 0);
}

TEST(IntervalJoinPropertyTest, OverlapJoinLeavesTimelineIndexesAlone) {
  // The timeline index serves timeslices only.  Both stored tables are
  // indexed and then appended to, so each index carries a differential
  // delta; an overlap join over them must consult neither index and
  // match the unindexed run row for row -- including NULL keys,
  // empty/reversed validity intervals (slow lane) and self-joins.
  TimeDomain domain{0, 40};
  for (uint64_t seed = 0; seed < 80; ++seed) {
    Rng rng(seed * 6151 + 11);
    Catalog catalog = RandomEncodedCatalog(&rng, domain, /*max_rows=*/25,
                                           /*null_chance=*/0.2,
                                           /*empty_validity_chance=*/0.25);
    EncodeTables(&catalog);
    for (const char* name : {"r", "s"}) {
      std::shared_ptr<const TimelineIndex> base =
          TimelineIndex::Build(catalog.GetShared(name));
      ASSERT_NE(base, nullptr);
      // A copy-on-write append, as TemporalDB's writer publishes it.
      auto next = std::make_shared<const Relation>(Relation::Append(
          catalog.Get(name),
          RandomAppendRows(&rng, domain, /*period_layout=*/false,
                           /*count=*/4, /*null_chance=*/0.2)));
      std::shared_ptr<const TimelineIndex> index =
          TimelineIndex::WithDelta(base, next);
      ASSERT_NE(index, nullptr);
      ASSERT_GT(index->num_delta_events(), 0u);
      catalog.PutShared(name, next);
      catalog.PutIndex(name, index);
    }
    std::vector<ExprPtr> preds = {
        OverlapPred(),
        And(Eq(Col(0), Col(4)), OverlapPred()),
        AndAll({Eq(Col(0), Col(4)), OverlapPred(), Ne(Col(1), Col(5))}),
    };
    for (size_t p = 0; p < preds.size(); ++p) {
      for (const char* rhs : {"s", "r"}) {  // r-s and self-join shapes
        PlanPtr join = MakeJoin(MakeScan("r", EncodedAbSchema()),
                                MakeScan(rhs, EncodedAbSchema()), preds[p]);
        ASSERT_TRUE(join->join.overlap.has_value());
        const std::string context =
            StrCat("seed ", seed, " predicate #", p, " rhs ", rhs);
        ExecOptions no_index;
        no_index.use_timeline_index = false;
        Relation plain = Execute(join, catalog, no_index);
        ExecOptions with_index;
        with_index.use_timeline_index = true;
        ExecStats stats;
        Relation indexed = Execute(join, catalog, with_index, &stats);
        EXPECT_EQ(stats.index_delta_events, 0) << context;
        EXPECT_EQ(stats.index_timeslices, 0) << context;
        ExpectRowsIdentical(indexed, plain, context);
      }
    }
  }
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
