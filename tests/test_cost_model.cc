// Cost-based planning (docs/architecture.md §11): table statistics
// collection, cardinality estimation, the join-reorder and
// strategy-hint transforms, the executor's row-identical gates, the
// plan cache's use_cost_model keying, and the cost-on/cost-off
// equivalence property over randomized snapshot queries.
#include "ra/cost_model.h"

#include <gtest/gtest.h>

#include <functional>

#include "common/rng.h"
#include "engine/executor.h"
#include "middleware/temporal_db.h"
#include "random_query.h"
#include "rewrite/rewriter.h"
#include "stats/table_stats.h"

namespace periodk {
namespace {

constexpr TimeDomain kDomain{0, 32};

void AttachStats(Catalog* catalog, const std::string& name, int begin_col = -1,
                 int end_col = -1) {
  catalog->PutStats(
      name, TableStats::Collect(catalog->GetShared(name), begin_col, end_col));
}

// --- Statistics collection. ------------------------------------------------

TEST(TableStatsTest, CollectBasics) {
  Relation rel(Schema::FromNames({"a", "b", "ts", "te"}));
  rel.AddRow({Value::Int(1), Value::String("x"), Value::Int(0), Value::Int(4)});
  rel.AddRow({Value::Int(1), Value::String("y"), Value::Int(2), Value::Int(6)});
  rel.AddRow({Value::Int(3), Value::Null(), Value::Int(5), Value::Int(7)});
  rel.AddRow({Value::Int(7), Value::String("x"), Value::Int(9), Value::Int(3)});
  rel.ToColumnar();
  auto shared = std::make_shared<const Relation>(std::move(rel));
  auto stats = TableStats::Collect(shared, /*begin_col=*/2, /*end_col=*/3);

  EXPECT_EQ(stats->row_count(), 4);
  EXPECT_EQ(stats->column(0).null_count, 0);
  EXPECT_EQ(stats->column(0).distinct, 3);  // {1, 3, 7}
  EXPECT_TRUE(stats->column(0).has_int_range);
  EXPECT_EQ(stats->column(0).min_int, 1);
  EXPECT_EQ(stats->column(0).max_int, 7);
  EXPECT_EQ(stats->column(1).null_count, 1);
  EXPECT_EQ(stats->column(1).distinct, 2);  // {"x", "y"}
  EXPECT_FALSE(stats->column(1).has_int_range);

  // The (9, 3) interval is ill-formed and excluded from the profile.
  ASSERT_TRUE(stats->has_period());
  EXPECT_EQ(stats->interval_count(), 3);
  EXPECT_EQ(stats->min_begin(), 0);
  EXPECT_EQ(stats->max_end(), 7);
  EXPECT_EQ(stats->span(), 7);
  EXPECT_DOUBLE_EQ(stats->avg_interval_length(), (4 + 4 + 2) / 3.0);
  int64_t histogram_total = 0;
  for (int64_t bucket : stats->length_histogram()) histogram_total += bucket;
  EXPECT_EQ(histogram_total, stats->interval_count());
  EXPECT_EQ(stats->FindColumn("b"), 1);
  EXPECT_EQ(stats->FindColumn("nope"), -1);

  // Deterministic rendering, twice.
  EXPECT_EQ(stats->ToString(), stats->ToString());
  EXPECT_NE(stats->ToString().find("rows=4"), std::string::npos);
}

TEST(TableStatsTest, BuiltForIsPointerIdentity) {
  auto r1 = std::make_shared<const Relation>(
      Relation(Schema::FromNames({"a"})));
  auto r2 = std::make_shared<const Relation>(
      Relation(Schema::FromNames({"a"})));
  auto stats = TableStats::Collect(r1);
  EXPECT_TRUE(stats->BuiltFor(r1.get()));
  EXPECT_FALSE(stats->BuiltFor(r2.get()));
}

TEST(TableStatsTest, RowStoredInputMatchesItsColumnarEncoding) {
  // Collect reads columns only; a row-stored source is encoded into a
  // temporary, so its stats equal those of its columnar copy and stay
  // pinned to the row-stored object itself.
  Relation rel(Schema::FromNames({"m", "d", "ts", "te"}));
  rel.AddRow({Value::Int(4), Value::Double(0.5), Value::Int(0), Value::Int(3)});
  rel.AddRow({Value::String("s"), Value::Null(), Value::Int(2), Value::Int(9)});
  rel.AddRow({Value::Int(-2), Value::Double(0.5), Value::Int(5), Value::Int(5)});
  Relation encoded = rel;
  encoded.ToColumnar();
  auto rows = std::make_shared<const Relation>(std::move(rel));
  auto cols = std::make_shared<const Relation>(std::move(encoded));
  auto row_stats = TableStats::Collect(rows, 2, 3);
  EXPECT_EQ(row_stats->ToString(), TableStats::Collect(cols, 2, 3)->ToString());
  EXPECT_TRUE(row_stats->BuiltFor(rows.get()));
  EXPECT_FALSE(rows->is_columnar());
  EXPECT_EQ(row_stats->column(0).min_int, -2);  // the mixed column's ints
  EXPECT_EQ(row_stats->column(0).max_int, 4);
}

TEST(TableStatsTest, CatalogDropsStatsOnRepublish) {
  Catalog catalog;
  Relation rel(Schema::FromNames({"a"}));
  rel.AddRow({Value::Int(1)});
  catalog.Put("t", std::move(rel));
  AttachStats(&catalog, "t");
  ASSERT_NE(catalog.GetStats("t"), nullptr);
  Relation next(Schema::FromNames({"a"}));
  catalog.Put("t", std::move(next));
  EXPECT_EQ(catalog.GetStats("t"), nullptr);
}

// --- Cardinality estimation. -----------------------------------------------

// Catalog with three equi-joinable tables of very different sizes:
// a{x, pay} (300 rows, x distinct), b{y, val} (250 rows, y distinct),
// tiny{z} (6 rows).
Catalog JoinCatalog() {
  Catalog catalog;
  Relation a(Schema::FromNames({"x", "pay"}));
  for (int i = 0; i < 300; ++i) {
    a.AddRow({Value::Int(i), Value::Int(i % 7)});
  }
  Relation b(Schema::FromNames({"y", "val"}));
  for (int i = 0; i < 250; ++i) {
    b.AddRow({Value::Int(i), Value::Int(i % 5)});
  }
  Relation tiny(Schema::FromNames({"z"}));
  for (int i = 0; i < 6; ++i) tiny.AddRow({Value::Int(i)});
  catalog.Put("a", std::move(a));
  catalog.Put("b", std::move(b));
  catalog.Put("tiny", std::move(tiny));
  for (const char* name : {"a", "b", "tiny"}) AttachStats(&catalog, name);
  return catalog;
}

PlanPtr ScanOf(const Catalog& catalog, const std::string& name) {
  return MakeScan(name, catalog.Get(name).schema());
}

TEST(CostModelTest, ScanAndSelectEstimates) {
  Catalog catalog = JoinCatalog();
  CostModel cost(&catalog, kDomain);
  PlanPtr scan = ScanOf(catalog, "a");
  EXPECT_DOUBLE_EQ(cost.EstimateRows(scan), 300.0);
  EXPECT_DOUBLE_EQ(cost.EstimateDistinct(*scan, 0), 300.0);
  EXPECT_DOUBLE_EQ(cost.EstimateDistinct(*scan, 1), 7.0);

  // x = const: 1/distinct(x) of the table.
  PlanPtr eq = MakeSelect(scan, Eq(Col(0), LitInt(5)));
  EXPECT_NEAR(cost.EstimateRows(eq), 1.0, 0.01);
  // pay = const over 7 distinct values.
  PlanPtr eq_pay = MakeSelect(scan, Eq(Col(1), LitInt(3)));
  EXPECT_NEAR(cost.EstimateRows(eq_pay), 300.0 / 7.0, 0.5);
}

TEST(CostModelTest, EquiJoinEstimateDividesByDistinct) {
  Catalog catalog = JoinCatalog();
  CostModel cost(&catalog, kDomain);
  PlanPtr join = MakeJoin(ScanOf(catalog, "a"), ScanOf(catalog, "tiny"),
                          Eq(Col(0), Col(2)));
  // 300 * 6 / max(300, 6) = 6 matching rows.
  EXPECT_NEAR(cost.EstimateRows(join), 6.0, 0.5);
}

// --- Join reorder. ---------------------------------------------------------

// Structural shape the binder would produce for
//   FROM a, b, tiny WHERE a.x = tiny.z AND b.y = tiny.z
// if written in an order that crosses a and b first: both conjuncts
// only become coverable at the top join, leaving a 300 x 250 cross
// product underneath.
PlanPtr CrossFirstPlan(const Catalog& catalog) {
  PlanPtr cross = MakeJoin(ScanOf(catalog, "a"), ScanOf(catalog, "b"),
                           Lit(Value::Bool(true)));
  return MakeJoin(cross, ScanOf(catalog, "tiny"),
                  And(Eq(Col(0), Col(4)), Eq(Col(2), Col(4))));
}

TEST(ReorderJoinsTest, EliminatesCrossProduct) {
  Catalog catalog = JoinCatalog();
  CostModel cost(&catalog, kDomain);
  PlanPtr original = CrossFirstPlan(catalog);
  PlanPtr reordered = ReorderJoins(original, cost);
  ASSERT_NE(reordered, nullptr);
  EXPECT_NE(reordered.get(), original.get());
  EXPECT_NE(reordered->ToString(), original->ToString());
  // Same output schema, same bag of rows, drastically lower estimate.
  ASSERT_EQ(reordered->schema.size(), original->schema.size());
  for (size_t i = 0; i < original->schema.size(); ++i) {
    EXPECT_EQ(reordered->schema.at(i).name, original->schema.at(i).name);
  }
  // The root estimate is order-invariant; the win shows up in the
  // intermediate join volume (sum of per-join-node estimates), which
  // drops from cross-product scale to a few rows.
  std::function<double(const Plan*)> join_volume = [&](const Plan* n) {
    if (n == nullptr) return 0.0;
    double total = join_volume(n->left.get()) + join_volume(n->right.get());
    if (n->kind == PlanKind::kJoin) total += cost.EstimateRows(*n);
    return total;
  };
  EXPECT_LT(join_volume(reordered.get()), 0.8 * join_volume(original.get()));
  Relation rows_original = Execute(original, catalog);
  Relation rows_reordered = Execute(reordered, catalog);
  EXPECT_TRUE(rows_reordered.BagEquals(rows_original))
      << rows_reordered.ToString() << "\nvs\n"
      << rows_original.ToString();
}

TEST(ReorderJoinsTest, FlatEstimatesKeepThePlanBitIdentical) {
  // No statistics: every scan estimate degrades to the relation size
  // and no ordering clears the improvement margin, so the exact same
  // plan object comes back.
  Catalog catalog;
  for (const char* name : {"a", "b", "tiny"}) {
    Relation rel(Schema::FromNames({"c"}));
    for (int i = 0; i < 10; ++i) rel.AddRow({Value::Int(i)});
    catalog.Put(name, std::move(rel));
  }
  CostModel cost(&catalog, kDomain);
  PlanPtr join = MakeJoin(
      MakeJoin(ScanOf(catalog, "a"), ScanOf(catalog, "b"),
               Eq(Col(0), Col(1))),
      ScanOf(catalog, "tiny"), Eq(Col(1), Col(2)));
  EXPECT_EQ(ReorderJoins(join, cost).get(), join.get());
}

// The nested-loop hint fires only on overlap joins with equi-keys: a
// tiny pure-temporal overlap join runs its sweep about twice as fast as
// the nested loop (BENCH_planner.json tiny-nl), so it stays at kAuto.
TEST(CostModelTest, TinyJoinHintSkipsPureTemporalJoins) {
  Catalog catalog;
  Relation iv(Schema::FromNames({"k", "a_begin", "a_end"}));
  for (int i = 0; i < 6; ++i) {
    iv.AddRow({Value::Int(i % 2), Value::Int(i), Value::Int(i + 3)});
  }
  catalog.Put("iv", std::move(iv));
  AttachStats(&catalog, "iv", 1, 2);
  CostModel cost(&catalog, kDomain);
  ExprPtr overlap = AndAll({Lt(Col(1), Col(5)), Lt(Col(4), Col(2))});
  PlanPtr temporal =
      MakeJoin(ScanOf(catalog, "iv"), ScanOf(catalog, "iv"), overlap);
  ASSERT_TRUE(temporal->join.overlap.has_value());
  ASSERT_TRUE(temporal->join.equi_keys.empty());
  EXPECT_EQ(ApplyJoinStrategyHints(temporal, cost), temporal);

  PlanPtr keyed = MakeJoin(ScanOf(catalog, "iv"), ScanOf(catalog, "iv"),
                           AndAll({Eq(Col(0), Col(3)), overlap}));
  ASSERT_FALSE(keyed->join.equi_keys.empty());
  PlanPtr hinted = ApplyJoinStrategyHints(keyed, cost);
  EXPECT_EQ(hinted->join_strategy, JoinStrategy::kNestedLoop);
}

// --- Executor gates (row-identical substitutions). -------------------------

TEST(CostGateTest, TinyEquiJoinRunsAsNestedLoopRowIdentically) {
  Catalog catalog;
  Relation l(Schema::FromNames({"x"}));
  Relation r(Schema::FromNames({"y"}));
  for (int i = 0; i < 10; ++i) {
    l.AddRow({Value::Int(i % 4)});
    r.AddRow({Value::Int(i % 3)});
  }
  catalog.Put("l", std::move(l));
  catalog.Put("r", std::move(r));
  PlanPtr join = MakeJoin(ScanOf(catalog, "l"), ScanOf(catalog, "r"),
                          Eq(Col(0), Col(1)));

  ExecOptions off;
  off.use_cost_model = false;
  ExecStats stats_off;
  Relation rows_off = Execute(join, catalog, off, &stats_off);
  EXPECT_EQ(stats_off.cost_nl_joins, 0);

  ExecOptions on;
  on.use_cost_model = true;
  ExecStats stats_on;
  Relation rows_on = Execute(join, catalog, on, &stats_on);
  EXPECT_GE(stats_on.cost_nl_joins, 1);
  // The demotion must preserve rows *and* row order.
  EXPECT_EQ(rows_on.ToString(), rows_off.ToString());
}

TEST(CostGateTest, SmallInputsSkipTheThreadPool) {
  // 100-row coalesce with ~100 groups: enough chunks to fan out at 4
  // threads, far below kParallelMinRows.
  Catalog catalog;
  Relation rel(Schema::FromNames({"g", "a_begin", "a_end"}));
  for (int i = 0; i < 100; ++i) {
    rel.AddRow({Value::Int(i), Value::Int(i % 8), Value::Int(i % 8 + 4)});
  }
  catalog.Put("t", std::move(rel));
  PlanPtr plan = MakeCoalesce(ScanOf(catalog, "t"));

  ExecOptions off;
  off.num_threads = 4;
  off.use_cost_model = false;
  ExecStats stats_off;
  Relation rows_off = Execute(plan, catalog, off, &stats_off);
  EXPECT_GT(stats_off.parallel_tasks, 0);

  ExecOptions on = off;
  on.use_cost_model = true;
  ExecStats stats_on;
  Relation rows_on = Execute(plan, catalog, on, &stats_on);
  EXPECT_EQ(stats_on.parallel_tasks, 0);
  EXPECT_GE(stats_on.cost_gated_fanouts, 1);
  // Chunked and sequential runs are bit-identical by construction.
  EXPECT_EQ(rows_on.ToString(), rows_off.ToString());
}

// --- Timeline-index checkpoint sizing. -------------------------------------

TEST(CostModelTest, PickCheckpointIntervalTracksAliveSet) {
  auto profile = [](int rows, int64_t begin, int64_t end) {
    Relation rel(Schema::FromNames({"a", "ts", "te"}));
    for (int i = 0; i < rows; ++i) {
      rel.AddRow({Value::Int(i), Value::Int(begin), Value::Int(end)});
    }
    auto shared = std::make_shared<const Relation>(std::move(rel));
    return TableStats::Collect(shared, 1, 2);
  };
  // Everything alive across the whole span vs. a handful of rows.
  int64_t k_dense = CostModel::PickCheckpointInterval(*profile(5000, 0, 32));
  int64_t k_sparse = CostModel::PickCheckpointInterval(*profile(10, 0, 32));
  for (int64_t k : {k_dense, k_sparse}) {
    EXPECT_GE(k, 16);
    EXPECT_LE(k, 4096);
    EXPECT_EQ(k & (k - 1), 0) << k << " is not a power of two";
  }
  EXPECT_GT(k_dense, k_sparse);
}

// --- Middleware integration. -----------------------------------------------

TemporalDB ExampleDB() {
  TemporalDB db(TimeDomain{0, 24});
  EXPECT_TRUE(db.CreatePeriodTable("works", {"name", "skill", "ts", "te"},
                                   "ts", "te")
                  .ok());
  EXPECT_TRUE(
      db.CreatePeriodTable("assign", {"mach", "skill", "ts", "te"}, "ts", "te")
          .ok());
  auto w = [&](const char* n, const char* s, int64_t b, int64_t e) {
    EXPECT_TRUE(db.Insert("works", {Value::String(n), Value::String(s),
                                    Value::Int(b), Value::Int(e)})
                    .ok());
  };
  w("Ann", "SP", 3, 10);
  w("Joe", "NS", 8, 16);
  w("Sam", "SP", 8, 16);
  auto a = [&](const char* m, const char* s, int64_t b, int64_t e) {
    EXPECT_TRUE(db.Insert("assign", {Value::String(m), Value::String(s),
                                     Value::Int(b), Value::Int(e)})
                    .ok());
  };
  a("M1", "SP", 3, 12);
  a("M2", "SP", 6, 14);
  a("M3", "NS", 3, 16);
  return db;
}

constexpr const char* kJoinSql =
    "SEQ VT (SELECT w.name, a.mach FROM works w, assign a "
    "WHERE w.skill = a.skill)";

TEST(CostModelMiddlewareTest, TinyOverlapJoinGetsTheNestedLoopHint) {
  TemporalDB db = ExampleDB();
  RewriteOptions on = db.options();
  on.use_cost_model = true;
  RewriteOptions off = db.options();
  off.use_cost_model = false;
  auto plan_on = db.Plan(kJoinSql, on);
  auto plan_off = db.Plan(kJoinSql, off);
  ASSERT_TRUE(plan_on.ok()) << plan_on.status().ToString();
  ASSERT_TRUE(plan_off.ok()) << plan_off.status().ToString();
  // 3 x 3 rows is far below kTinyJoinProduct: the hint must appear with
  // the cost model on and must not without.
  EXPECT_NE((*plan_on)->ToString().find("nested loop: tiny inputs"),
            std::string::npos)
      << (*plan_on)->ToString();
  EXPECT_EQ((*plan_off)->ToString().find("nested loop: tiny inputs"),
            std::string::npos)
      << (*plan_off)->ToString();
  // Same result bag either way.
  auto rows_on = db.Query(kJoinSql, on);
  auto rows_off = db.Query(kJoinSql, off);
  ASSERT_TRUE(rows_on.ok());
  ASSERT_TRUE(rows_off.ok());
  EXPECT_TRUE(rows_on->BagEquals(*rows_off));
}

TEST(CostModelMiddlewareTest, PlanCacheNeverCrossesTheCostModelToggle) {
  TemporalDB db = ExampleDB();
  RewriteOptions on = db.options();
  on.use_cost_model = true;
  RewriteOptions off = db.options();
  off.use_cost_model = false;

  ASSERT_TRUE(db.Prepare(kJoinSql, on).ok());
  ASSERT_EQ(db.plan_cache_stats().entries, 1);
  int64_t hits = db.plan_cache_stats().hits;

  // Different toggle value: must miss (and bind its own entry), never
  // serve the plan built under the other options.
  ASSERT_TRUE(db.Query(kJoinSql, off).ok());
  EXPECT_EQ(db.plan_cache_stats().hits, hits);
  EXPECT_EQ(db.plan_cache_stats().entries, 2);

  // Matching toggles are hits on their own entries.
  ASSERT_TRUE(db.Query(kJoinSql, on).ok());
  ASSERT_TRUE(db.Query(kJoinSql, off).ok());
  EXPECT_EQ(db.plan_cache_stats().hits, hits + 2);
  EXPECT_EQ(db.plan_cache_stats().entries, 2);

  // The served plans reflect their own options even while both entries
  // are warm.
  auto plan_on = db.Plan(kJoinSql, on);
  auto plan_off = db.Plan(kJoinSql, off);
  ASSERT_TRUE(plan_on.ok());
  ASSERT_TRUE(plan_off.ok());
  EXPECT_NE((*plan_on)->ToString(), (*plan_off)->ToString());
}

TEST(CostModelMiddlewareTest, ExplainAnalyzeIsDeterministicAndAnnotated) {
  TemporalDB db = ExampleDB();
  auto first = db.ExplainAnalyze(kJoinSql);
  auto second = db.ExplainAnalyze(kJoinSql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_NE(first->find("est="), std::string::npos) << *first;
  EXPECT_NE(first->find("actual="), std::string::npos) << *first;

  RewriteOptions off = db.options();
  off.use_cost_model = false;
  db.set_options(off);
  auto plain = db.ExplainAnalyze(kJoinSql);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->find("est="), std::string::npos) << *plain;
}

// --- Cost-on vs cost-off equivalence property. -----------------------------

// Randomized snapshot queries over random data: the cost model may
// reorder joins and demote join strategies, but the result bag must
// match the structural plan's, parallel execution included; when the
// plans render identically, the rows must match exactly (the
// execution-time gates are row-identical by design).
TEST(CostModelPropertyTest, CostOnAgreesWithCostOff) {
  int reordered_plans = 0;
  for (int seed = 0; seed < 48; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ULL + 0xc057);
    Catalog catalog = RandomEncodedCatalog(&rng, kDomain, /*max_rows=*/12,
                                           /*null_chance=*/0.1,
                                           /*empty_validity_chance=*/0.1);
    PlanPtr encoded_p = AddRandomPeriodTable(&rng, &catalog, kDomain,
                                             /*max_rows=*/12,
                                             /*null_chance=*/0.1,
                                             /*empty_validity_chance=*/0.1);
    for (const std::string& name : catalog.TableNames()) {
      std::shared_ptr<const Relation> rel = catalog.GetShared(name);
      int b = name == "p" ? 0 : static_cast<int>(rel->schema().size()) - 2;
      int e = name == "p" ? 2 : static_cast<int>(rel->schema().size()) - 1;
      catalog.PutStats(name, TableStats::Collect(rel, b, e));
    }

    RandomQueryConfig qc;
    qc.period_scan_chance = 0.25;
    RandomQueryGenerator gen(&rng, qc);
    PlanPtr query = gen.Generate(3);

    RewriteOptions off_options;
    off_options.use_cost_model = false;
    SnapshotRewriter plain(kDomain, off_options, {{"p", encoded_p}});
    PlanPtr plan_off = plain.Rewrite(query);

    RewriteOptions on_options;
    on_options.use_cost_model = true;
    CostModel cost(&catalog, kDomain);
    SnapshotRewriter costed(kDomain, on_options, {{"p", encoded_p}}, &cost);
    PlanPtr plan_on = ApplyJoinStrategyHints(costed.Rewrite(query), cost);
    if (plan_on->ToString() != plan_off->ToString()) ++reordered_plans;

    ExecOptions exec_off;
    exec_off.use_cost_model = false;
    Relation rows_off = Execute(plan_off, catalog, exec_off);

    ExecOptions exec_on;
    exec_on.use_cost_model = true;
    Relation rows_on = Execute(plan_on, catalog, exec_on);
    EXPECT_TRUE(rows_on.BagEquals(rows_off))
        << "seed " << seed << "\ncost-on plan:\n" << plan_on->ToString()
        << "\ncost-off plan:\n" << plan_off->ToString();
    if (plan_on->ToString() == plan_off->ToString()) {
      EXPECT_EQ(rows_on.ToString(), rows_off.ToString()) << "seed " << seed;
    }

    ExecOptions exec_parallel = exec_on;
    exec_parallel.num_threads = 4;
    Relation rows_parallel = Execute(plan_on, catalog, exec_parallel);
    EXPECT_TRUE(rows_parallel.BagEquals(rows_on)) << "seed " << seed;
  }
  // The corpus must actually exercise the cost-shaped paths, not just
  // reproduce the structural plans 48 times.
  EXPECT_GT(reordered_plans, 0);
}

}  // namespace
}  // namespace periodk
