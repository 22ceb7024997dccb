// TimelineIndex coverage: the checkpointed timeslice index must be
// *row-exact* against the scan path (`TimesliceEncoded`) — same rows in
// the same order — and bag-exact against the naive snapshot-by-snapshot
// oracle, for every t (domain bounds, begin/end endpoints, in between)
// and every checkpoint-interval shape (K = 1, K > #events).  On top of
// the index itself: the executor's routing (ExecStats::index_timeslices,
// stale-index rejection, use_timeline_index = false fallback), the
// rewriter's timeslice pushdown, the middleware's lazy index lifecycle,
// a concurrent AS-OF serving smoke test, and the AS-OF plan built by
// snapshot reducibility (BuildAsOfPlan) against tau_t at the root of
// the full REWR plan.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>

#include "baseline/naive.h"
#include "common/str_util.h"
#include "common/rng.h"
#include "engine/temporal_ops.h"
#include "engine/timeline_index.h"
#include "middleware/temporal_db.h"
#include "rewrite/rewriter.h"
#include "tests/random_query.h"

namespace periodk {
namespace {

constexpr TimeDomain kDomain{0, 16};

Relation EncodedRelation(const std::vector<std::array<int64_t, 4>>& rows) {
  Relation rel(Schema::FromNames({"a", "b", "a_begin", "a_end"}));
  for (const auto& r : rows) {
    rel.AddRow({Value::Int(r[0]), Value::Int(r[1]), Value::Int(r[2]),
                Value::Int(r[3])});
  }
  rel.ToColumnar();  // stored-table layout, the one the index accepts
  return rel;
}

/// Exact comparison: same rows in the same order (stronger than
/// BagEquals — the index promises scan-path row order).
void ExpectRowsIdentical(const Relation& got, const Relation& want,
                         const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  ASSERT_EQ(got.schema().size(), want.schema().size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.rows()[i], want.rows()[i]) << context << " at row " << i;
  }
}

TEST(TimelineIndexTest, TimesliceMatchesScanOnSmallTable) {
  auto rel = std::make_shared<const Relation>(EncodedRelation({
      {1, 10, 3, 10},
      {2, 20, 8, 16},
      {3, 30, 8, 16},
      {1, 11, 0, 3},
      {4, 40, 15, 16},
  }));
  for (int64_t k : {1, 2, 3, 64, 1000}) {
    auto index = TimelineIndex::Build(rel, k);
    ASSERT_NE(index, nullptr);
    EXPECT_TRUE(index->ColumnsAreTrailing());
    for (TimePoint t = -2; t <= 18; ++t) {
      ExpectRowsIdentical(index->Timeslice(t), TimesliceEncoded(*rel, t),
                          "K=" + std::to_string(k) +
                              " t=" + std::to_string(t));
    }
  }
}

TEST(TimelineIndexTest, EndpointAndBoundTimePoints) {
  // t exactly on a begin is alive, exactly on an end is not (half-open
  // [b, e)); domain bounds behave like any other point.
  auto rel = std::make_shared<const Relation>(EncodedRelation({
      {1, 0, 0, 16},   // spans the whole domain
      {2, 0, 5, 9},
  }));
  auto index = TimelineIndex::Build(rel, 2);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->AliveAt(0), (std::vector<uint32_t>{0}));
  EXPECT_EQ(index->AliveAt(5), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(index->AliveAt(8), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(index->AliveAt(9), (std::vector<uint32_t>{0}));
  EXPECT_EQ(index->AliveAt(15), (std::vector<uint32_t>{0}));
  EXPECT_EQ(index->AliveAt(16), (std::vector<uint32_t>{}));
  EXPECT_EQ(index->AliveAt(-1), (std::vector<uint32_t>{}));
}

TEST(TimelineIndexTest, EmptyTableAndEmptyIntervals) {
  auto empty = std::make_shared<const Relation>(EncodedRelation({}));
  auto index = TimelineIndex::Build(empty, 1);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->num_events(), 0u);
  EXPECT_TRUE(index->Timeslice(5).empty());
  EXPECT_TRUE(index->AliveInRange(0, 16).empty());

  // Empty (b == e) and reversed (b > e) validity intervals are never
  // alive — exactly the scan path's behavior.
  auto degenerate = std::make_shared<const Relation>(EncodedRelation({
      {1, 0, 5, 5},
      {2, 0, 9, 3},
      {3, 0, 2, 4},
  }));
  index = TimelineIndex::Build(degenerate, 1);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->num_events(), 2u);  // only the valid row
  for (TimePoint t = 0; t < 16; ++t) {
    ExpectRowsIdentical(index->Timeslice(t), TimesliceEncoded(*degenerate, t),
                        "degenerate t=" + std::to_string(t));
  }
}

TEST(TimelineIndexTest, RefusesNonIntegerEndpointsAndNarrowSchemas) {
  // The scan path throws on non-integer endpoints; the index must not
  // silently differ, so Build refuses and callers keep the scan.
  Relation rel(Schema::FromNames({"a", "a_begin", "a_end"}));
  rel.AddRow({Value::Int(1), Value::Int(0), Value::Null()});
  rel.ToColumnar();
  EXPECT_EQ(TimelineIndex::Build(
                std::make_shared<const Relation>(std::move(rel))),
            nullptr);

  Relation text(Schema::FromNames({"a", "a_begin", "a_end"}));
  text.AddRow({Value::Int(1), Value::String("x"), Value::Int(3)});
  text.ToColumnar();
  EXPECT_EQ(TimelineIndex::Build(
                std::make_shared<const Relation>(std::move(text))),
            nullptr);

  Relation narrow(Schema::FromNames({"only"}));
  narrow.ToColumnar();
  EXPECT_EQ(TimelineIndex::Build(
                std::make_shared<const Relation>(std::move(narrow))),
            nullptr);
}

TEST(TimelineIndexTest, RefusesRowStoredSources) {
  // Stored tables are columnar by construction; a row-stored relation
  // is refused even with well-formed endpoints, by Build and WithDelta.
  Relation rows(Schema::FromNames({"a", "a_begin", "a_end"}));
  rows.AddRow({Value::Int(1), Value::Int(0), Value::Int(3)});
  Relation encoded = rows;
  encoded.ToColumnar();
  auto base = TimelineIndex::Build(
      std::make_shared<const Relation>(std::move(encoded)));
  ASSERT_NE(base, nullptr);
  rows.AddRow({Value::Int(2), Value::Int(1), Value::Int(4)});
  auto row_stored = std::make_shared<const Relation>(std::move(rows));
  EXPECT_EQ(TimelineIndex::Build(row_stored), nullptr);
  EXPECT_EQ(TimelineIndex::WithDelta(base, row_stored), nullptr);
}

TEST(TimelineIndexTest, AliveInRangeMatchesBruteForce) {
  Rng rng(0x7136713);
  for (int iter = 0; iter < 60; ++iter) {
    Catalog catalog =
        RandomEncodedCatalog(&rng, kDomain, /*max_rows=*/20, 0.0,
                             /*empty_validity_chance=*/0.2);
    EncodeTables(&catalog);
    auto rel = catalog.GetShared("r");
    int64_t k = static_cast<int64_t>(rng.Uniform(6)) + 1;
    auto index = TimelineIndex::Build(rel, k);
    ASSERT_NE(index, nullptr);
    for (int probe = 0; probe < 12; ++probe) {
      TimePoint b = rng.Range(kDomain.tmin - 1, kDomain.tmax);
      TimePoint e = rng.Range(kDomain.tmin - 1, kDomain.tmax + 1);
      std::vector<uint32_t> expected;
      for (size_t i = 0; i < rel->size(); ++i) {
        TimePoint rb = rel->rows()[i][2].AsInt();
        TimePoint re = rel->rows()[i][3].AsInt();
        if (rb < re && rb < e && re > b && b < e) {
          expected.push_back(static_cast<uint32_t>(i));
        }
      }
      EXPECT_EQ(index->AliveInRange(b, e), expected)
          << "[" << b << ", " << e << ") K=" << k;
    }
  }
}

TEST(TimelineIndexTest, RandomTablesRowExactAcrossCheckpointIntervals) {
  Rng rng(0x11d3f00d);
  for (int iter = 0; iter < 80; ++iter) {
    Catalog catalog =
        RandomEncodedCatalog(&rng, kDomain, /*max_rows=*/24, 0.0,
                             /*empty_validity_chance=*/0.15);
    EncodeTables(&catalog);
    for (const char* name : {"r", "s"}) {
      auto rel = catalog.GetShared(name);
      // K = 1 checkpoints after every event; the last K is far beyond
      // 2 * max_rows, so the index degenerates to one empty checkpoint
      // plus a full replay — both edge shapes must stay exact.
      for (int64_t k : {int64_t{1}, int64_t{3}, int64_t{64}, int64_t{999}}) {
        auto index = TimelineIndex::Build(rel, k);
        ASSERT_NE(index, nullptr);
        for (TimePoint t = kDomain.tmin - 1; t <= kDomain.tmax; ++t) {
          ExpectRowsIdentical(
              index->Timeslice(t), TimesliceEncoded(*rel, t),
              StrCat(name, " iter=", iter, " K=", k, " t=", t));
        }
      }
    }
  }
}

// --- Executor routing. -----------------------------------------------------

TEST(TimelineIndexExecTest, RoutesTimesliceOverScanThroughIndex) {
  Rng rng(0xe0e0e0);
  Catalog catalog = RandomEncodedCatalog(&rng, kDomain, 20);
  EncodeTables(&catalog);
  auto rel = catalog.GetShared("r");
  catalog.PutIndex("r", TimelineIndex::Build(rel));
  PlanPtr plan = MakeTimeslice(
      MakeScan("r", Schema::FromNames({"a", "b", "a_begin", "a_end"})), 7);

  ExecStats stats;
  ExecOptions options;
  Relation indexed = Execute(plan, catalog, options, &stats);
  EXPECT_EQ(stats.index_timeslices, 1);

  ExecStats scan_stats;
  ExecOptions scan_options;
  scan_options.use_timeline_index = false;
  Relation scanned = Execute(plan, catalog, scan_options, &scan_stats);
  EXPECT_EQ(scan_stats.index_timeslices, 0);

  ExpectRowsIdentical(indexed, scanned, "indexed vs scan");
  ExpectRowsIdentical(indexed, TimesliceEncoded(*rel, 7), "indexed vs direct");
}

TEST(TimelineIndexExecTest, StaleOrMislayoutedIndexFallsBackToScan) {
  Catalog catalog;
  catalog.Put("r", EncodedRelation({{1, 2, 0, 8}, {3, 4, 4, 12}}));
  auto index = TimelineIndex::Build(catalog.GetShared("r"));
  ASSERT_NE(index, nullptr);
  catalog.PutIndex("r", index);
  // Replacing the relation both drops the catalog's index slot and, if
  // an old index were re-attached, fails its BuiltFor identity check.
  catalog.Put("r", EncodedRelation({{9, 9, 0, 16}}));
  EXPECT_EQ(catalog.GetIndex("r"), nullptr);
  catalog.PutIndex("r", index);  // stale on purpose

  PlanPtr plan = MakeTimeslice(
      MakeScan("r", Schema::FromNames({"a", "b", "a_begin", "a_end"})), 5);
  ExecStats stats;
  Relation result = Execute(plan, catalog, ExecOptions{}, &stats);
  EXPECT_EQ(stats.index_timeslices, 0);  // stale index rejected
  ExpectRowsIdentical(result, TimesliceEncoded(catalog.Get("r"), 5), "stale");

  // An index over non-trailing endpoint columns never serves kTimeslice.
  Relation odd(Schema::FromNames({"vb", "ve", "x"}));
  odd.AddRow({Value::Int(0), Value::Int(9), Value::Int(1)});
  odd.ToColumnar();
  catalog.Put("odd", std::move(odd));
  auto odd_index = TimelineIndex::Build(catalog.GetShared("odd"), 0, 1);
  ASSERT_NE(odd_index, nullptr);
  EXPECT_FALSE(odd_index->ColumnsAreTrailing());
  catalog.PutIndex("odd", odd_index);
  PlanPtr odd_plan =
      MakeTimeslice(MakeScan("odd", Schema::FromNames({"vb", "ve", "x"})), 4);
  ExecStats odd_stats;
  Execute(odd_plan, catalog, ExecOptions{}, &odd_stats);
  EXPECT_EQ(odd_stats.index_timeslices, 0);
}

// --- Rewriter pushdown. ----------------------------------------------------

TEST(TimeslicePushdownTest, PushesThroughCoalesceSelectProject) {
  Schema encoded = Schema::FromNames({"a", "b", "a_begin", "a_end"});
  PlanPtr scan = MakeScan("r", encoded);
  PlanPtr select = MakeSelect(scan, Eq(Col(0), LitInt(1)));
  PlanPtr project = MakeProject(
      select, {Col(1, "b"), Col(2, "a_begin"), Col(3, "a_end")},
      {Column("b"), Column("a_begin"), Column("a_end")});
  PlanPtr pushed =
      PushDownTimeslice(MakeTimeslice(MakeCoalesce(project), 5));
  // Expected shape: Project(Select(Timeslice(Scan))).
  ASSERT_EQ(pushed->kind, PlanKind::kProject);
  ASSERT_EQ(pushed->left->kind, PlanKind::kSelect);
  ASSERT_EQ(pushed->left->left->kind, PlanKind::kTimeslice);
  ASSERT_EQ(pushed->left->left->left->kind, PlanKind::kScan);
  EXPECT_EQ(pushed->schema.size(), 1u);
  EXPECT_EQ(pushed->schema.at(0).name, "b");
}

TEST(TimeslicePushdownTest, StopsAtTemporalPredicatesAndComputedEndpoints) {
  Schema encoded = Schema::FromNames({"a", "b", "a_begin", "a_end"});
  // Predicate touching an endpoint column: tau must stay above.
  PlanPtr temporal_select =
      MakeSelect(MakeScan("r", encoded), Ge(Col(2), LitInt(3)));
  PlanPtr pushed = PushDownTimeslice(MakeTimeslice(temporal_select, 5));
  EXPECT_EQ(pushed->kind, PlanKind::kTimeslice);
  EXPECT_EQ(pushed->left->kind, PlanKind::kSelect);

  // An endpoint that is computed, not a plain column reference.
  PlanPtr computed = MakeProject(
      MakeScan("r", encoded),
      {Col(0, "a"), Col(2, "a_begin"), Add(Col(3), LitInt(1))},
      {Column("a"), Column("a_begin"), Column("a_end")});
  pushed = PushDownTimeslice(MakeTimeslice(computed, 5));
  EXPECT_EQ(pushed->kind, PlanKind::kTimeslice);
  EXPECT_EQ(pushed->left->kind, PlanKind::kProject);

  // A data column reading an endpoint column: slicing below would drop
  // the column it needs.
  PlanPtr leaky = MakeProject(
      MakeScan("r", encoded), {Col(2, "copy"), Col(2, "b"), Col(3, "e")},
      {Column("copy"), Column("b"), Column("e")});
  pushed = PushDownTimeslice(MakeTimeslice(leaky, 5));
  EXPECT_EQ(pushed->kind, PlanKind::kTimeslice);
  EXPECT_EQ(pushed->left->kind, PlanKind::kProject);
}

TEST(TimeslicePushdownTest, CrossesReorderingAndNonTrailingProjections) {
  Schema encoded = Schema::FromNames({"a", "b", "a_begin", "a_end"});
  // Projection that moves the endpoints away from the trailing
  // positions (swapped, even).  tau_{t} over its output reads columns
  // (1, 2) = (a_end, a_begin) of the child, so the pushdown must land a
  // generalized slice reading exactly those child columns.
  PlanPtr reshaped = MakeProject(
      MakeScan("r", encoded), {Col(0, "a"), Col(3, "e"), Col(2, "b2")},
      {Column("a"), Column("e"), Column("b2")});
  PlanPtr pushed = PushDownTimeslice(MakeTimeslice(reshaped, 5));
  ASSERT_EQ(pushed->kind, PlanKind::kProject);
  ASSERT_EQ(pushed->left->kind, PlanKind::kTimeslice);
  EXPECT_EQ(pushed->left->slice_begin_col, 3);
  EXPECT_EQ(pushed->left->slice_end_col, 2);
  ASSERT_EQ(pushed->left->left->kind, PlanKind::kScan);
  EXPECT_EQ(pushed->schema.size(), 1u);
  EXPECT_EQ(pushed->schema.at(0).name, "a");

  // Equivalence on data, including rows the swap makes empty.
  Catalog catalog;
  catalog.Put("r", EncodedRelation(
                       {{1, 10, 3, 9}, {2, 20, 0, 4}, {3, 30, 9, 3}}));
  PlanPtr sliced = MakeTimeslice(reshaped, 5);
  ExpectRowsIdentical(Execute(pushed, catalog), Execute(sliced, catalog),
                      "reordered endpoints");
}

// The encoded-table projection of a period table whose interval columns
// are stored away from the trailing position (the shape the middleware
// binder emits): the pushdown must cross it and the executor must serve
// the landed slice from an index over the stored positions.
TEST(TimeslicePushdownTest, NonTrailingPeriodTableReachesScanAndIndex) {
  Schema stored = Schema::FromNames({"vb", "ve", "x", "y"});
  PlanPtr scan = MakeScan("p", stored);
  // Encoded projection: data columns first, endpoints last.
  PlanPtr encoded = MakeProjectColumns(scan, {2, 3, 0, 1});
  PlanPtr sliced = MakeTimeslice(encoded, 6);
  PlanPtr pushed = PushDownTimeslice(sliced);
  ASSERT_EQ(pushed->kind, PlanKind::kProject);
  ASSERT_EQ(pushed->left->kind, PlanKind::kTimeslice);
  EXPECT_EQ(pushed->left->slice_begin_col, 0);
  EXPECT_EQ(pushed->left->slice_end_col, 1);
  ASSERT_EQ(pushed->left->left->kind, PlanKind::kScan);

  Catalog catalog;
  Relation rel(stored);
  Rng rng(0x5107ab);
  for (int i = 0; i < 40; ++i) {
    TimePoint b = rng.Range(kDomain.tmin, kDomain.tmax - 2);
    TimePoint e = rng.Chance(0.2) ? rng.Range(kDomain.tmin, b)
                                  : rng.Range(b + 1, kDomain.tmax - 1);
    rel.AddRow({Value::Int(b), Value::Int(e), Value::Int(rng.Range(0, 5)),
                Value::Int(rng.Range(0, 5))});
  }
  rel.ToColumnar();
  catalog.Put("p", std::move(rel));
  catalog.PutIndex(
      "p", TimelineIndex::Build(catalog.GetShared("p"), /*begin_col=*/0,
                                /*end_col=*/1));
  for (TimePoint t = kDomain.tmin - 1; t <= kDomain.tmax; ++t) {
    PlanPtr at = PushDownTimeslice(MakeTimeslice(encoded, t));
    ExecStats stats;
    Relation indexed = Execute(at, catalog, ExecOptions{}, &stats);
    EXPECT_EQ(stats.index_timeslices, 1) << "t=" << t;
    ExecOptions scan_options;
    scan_options.use_timeline_index = false;
    Relation scanned = Execute(at, catalog, scan_options);
    ExpectRowsIdentical(indexed, scanned, StrCat("pushed t=", t));
    Relation unpushed = Execute(MakeTimeslice(encoded, t), catalog);
    ExpectRowsIdentical(indexed, unpushed, StrCat("unpushed t=", t));
  }
}

TEST(TimeslicePushdownTest, PushedPlansStayBagEqualOnRandomQueries) {
  Rng rng(0x9a5bacc);
  RandomQueryConfig config;
  config.allow_aggregate = false;  // rewritten agg plans end in
  config.allow_difference = true;  // split-aggregate, not pi/sigma chains
  for (int iter = 0; iter < 60; ++iter) {
    Catalog catalog = RandomEncodedCatalog(&rng, kDomain, 10, 0.1, 0.1);
    RandomQueryGenerator gen(&rng, config);
    PlanPtr query = gen.Generate(static_cast<int>(rng.Uniform(3)));
    SnapshotRewriter rewriter(kDomain, RewriteOptions{});
    TimePoint t = rng.Range(kDomain.tmin, kDomain.tmax - 1);
    PlanPtr sliced = MakeTimeslice(rewriter.Rewrite(query), t);
    PlanPtr pushed = PushDownTimeslice(sliced);
    ASSERT_EQ(pushed->schema.size(), sliced->schema.size());
    // Give the pushed plan real indexes so Timeslice-over-scan nodes
    // take the indexed route.
    EncodeTables(&catalog);
    catalog.PutIndex("r", TimelineIndex::Build(catalog.GetShared("r")));
    catalog.PutIndex("s", TimelineIndex::Build(catalog.GetShared("s")));
    Relation a = Execute(sliced, catalog);
    Relation b = Execute(pushed, catalog);
    ASSERT_TRUE(a.BagEquals(b))
        << "t=" << t << "\noriginal:\n" << sliced->ToString()
        << "\npushed:\n" << pushed->ToString();
    // Abstract-model oracle: tau_t of the naive snapshot-by-snapshot
    // evaluation must agree with both routes (Thm 6.3).
    Relation oracle = TimesliceEncoded(NaiveSnapshotEval(query, catalog,
                                                         kDomain), t);
    ASSERT_TRUE(b.BagEquals(oracle))
        << "t=" << t << "\nquery:\n" << query->ToString();
  }
}

// --- Middleware: AS OF serving, lazy index lifecycle, oracle. --------------

TemporalDB SeededDb(Rng* rng, int rows) {
  TemporalDB db(kDomain);
  EXPECT_TRUE(
      db.CreatePeriodTable("t", {"grp", "val", "vb", "ve"}, "vb", "ve").ok());
  std::vector<Row> batch;
  for (int i = 0; i < rows; ++i) {
    TimePoint b = rng->Range(kDomain.tmin, kDomain.tmax - 2);
    TimePoint e = rng->Range(b + 1, kDomain.tmax - 1);
    batch.push_back({Value::Int(rng->Range(0, 3)), Value::Int(rng->Range(0, 9)),
                     Value::Int(b), Value::Int(e)});
  }
  EXPECT_TRUE(db.InsertRows("t", std::move(batch)).ok());
  return db;
}

TEST(TimelineIndexMiddlewareTest, AsOfQueriesMatchScanPathAndOracle) {
  Rng rng(0xa50f);
  for (int iter = 0; iter < 25; ++iter) {
    TemporalDB db = SeededDb(&rng, static_cast<int>(rng.Uniform(30)));
    for (const char* sql :
         {"SELECT grp, val FROM t", "SELECT val FROM t WHERE grp = 1",
          "SELECT grp FROM t WHERE val >= 4 "
          "UNION ALL SELECT grp FROM t WHERE grp = 2"}) {
      TimePoint t = rng.Range(kDomain.tmin, kDomain.tmax - 1);
      std::string as_of = StrCat("SEQ VT AS OF ", t, " (", sql, ")");
      auto indexed = db.Query(as_of);
      ASSERT_TRUE(indexed.ok()) << as_of;

      RewriteOptions scan_opts;
      scan_opts.use_timeline_index = false;
      scan_opts.push_down_timeslice = false;
      auto scanned = db.Query(as_of, scan_opts);
      ASSERT_TRUE(scanned.ok()) << as_of;
      EXPECT_TRUE(indexed->BagEquals(*scanned)) << as_of;

      // Thm 6.3 commutation check: AS OF t must equal tau_t of the full
      // SEQ VT period result computed on the independent scan path.
      auto encoded = db.Query(StrCat("SEQ VT (", sql, ")"), scan_opts);
      ASSERT_TRUE(encoded.ok());
      Relation oracle = TimesliceEncoded(*encoded, t);
      EXPECT_TRUE(indexed->BagEquals(oracle)) << as_of;
    }
  }
}

TEST(TimelineIndexMiddlewareTest, TimesliceEntryPointUsesIndexAndStaysExact) {
  Rng rng(0x5EED);
  TemporalDB db = SeededDb(&rng, 40);
  RewriteOptions scan_opts;
  scan_opts.use_timeline_index = false;
  for (TimePoint t = kDomain.tmin - 1; t <= kDomain.tmax; ++t) {
    auto indexed = db.Timeslice("t", t);
    ASSERT_TRUE(indexed.ok());
    TemporalDB scan_db(kDomain, scan_opts);
    // Same data through a scan-only instance.
    Relation copy = db.catalog().Get("t");
    ASSERT_TRUE(scan_db.PutPeriodTable("t", std::move(copy), "vb", "ve").ok());
    auto scanned = scan_db.Timeslice("t", t);
    ASSERT_TRUE(scanned.ok());
    ExpectRowsIdentical(*indexed, *scanned, StrCat("t=", t));
  }
}

TEST(TimelineIndexMiddlewareTest, ExplainAnalyzeShowsIndexHits) {
  Rng rng(0xEA);
  TemporalDB db = SeededDb(&rng, 10);
  auto explained = db.ExplainAnalyze("SEQ VT AS OF 5 (SELECT grp FROM t)");
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->find("index timeslices: 1"), std::string::npos)
      << *explained;
}

TEST(TimelineIndexMiddlewareTest, NonTrailingPeriodTableServedFromIndex) {
  Rng rng(0xb0b);
  TemporalDB db(kDomain);
  ASSERT_TRUE(
      db.CreatePeriodTable("t", {"vb", "grp", "ve", "val"}, "vb", "ve").ok());
  std::vector<Row> batch;
  for (int i = 0; i < 30; ++i) {
    TimePoint b = rng.Range(kDomain.tmin, kDomain.tmax - 2);
    TimePoint e = rng.Range(b + 1, kDomain.tmax - 1);
    batch.push_back({Value::Int(b), Value::Int(rng.Range(0, 3)), Value::Int(e),
                     Value::Int(rng.Range(0, 9))});
  }
  ASSERT_TRUE(db.InsertRows("t", std::move(batch)).ok());
  auto explained = db.ExplainAnalyze("SEQ VT AS OF 5 (SELECT grp, val FROM t)");
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->find("index timeslices: 1"), std::string::npos)
      << *explained;
  for (TimePoint t = kDomain.tmin; t < kDomain.tmax; ++t) {
    auto indexed =
        db.Query(StrCat("SEQ VT AS OF ", t, " (SELECT grp, val FROM t)"));
    ASSERT_TRUE(indexed.ok());
    RewriteOptions scan_opts;
    scan_opts.use_timeline_index = false;
    scan_opts.push_down_timeslice = false;
    auto scanned =
        db.Query(StrCat("SEQ VT AS OF ", t, " (SELECT grp, val FROM t)"),
                 scan_opts);
    ASSERT_TRUE(scanned.ok());
    EXPECT_TRUE(indexed->BagEquals(*scanned)) << "t=" << t;
  }
}

TEST(TimelineIndexMiddlewareTest, WritersInvalidateLazilyBuiltIndexes) {
  Rng rng(0x17a1);
  TemporalDB db = SeededDb(&rng, 10);
  auto before = db.Query("SEQ VT AS OF 5 (SELECT grp, val FROM t)");
  ASSERT_TRUE(before.ok());
  // Insert a row alive at t = 5; the next AS-OF read must see it (a
  // stale index would keep serving the old snapshot).
  ASSERT_TRUE(
      db.Insert("t", {Value::Int(7), Value::Int(7), Value::Int(0),
                      Value::Int(16)})
          .ok());
  auto after = db.Query("SEQ VT AS OF 5 (SELECT grp, val FROM t)");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), before->size() + 1);
}

TEST(TimelineIndexMiddlewareTest, ConcurrentAsOfServingStaysConsistent) {
  TemporalDB db(kDomain);
  ASSERT_TRUE(
      db.CreatePeriodTable("t", {"grp", "val", "vb", "ve"}, "vb", "ve").ok());
  constexpr int kWrites = 60;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&db, &stop, &failures] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto result = db.Query("SEQ VT AS OF 8 (SELECT val FROM t)");
        if (!result.ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (int i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(db.Insert("t", {Value::Int(i % 4), Value::Int(i),
                                Value::Int(i % 8), Value::Int(8 + i % 8)})
                    .ok());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  // Final state: every row with vb <= 8 < ve is visible.
  auto final_result = db.Query("SEQ VT AS OF 8 (SELECT val FROM t)");
  ASSERT_TRUE(final_result.ok());
  RewriteOptions scan_opts;
  scan_opts.use_timeline_index = false;
  scan_opts.push_down_timeslice = false;
  auto scan_result = db.Query("SEQ VT AS OF 8 (SELECT val FROM t)", scan_opts);
  ASSERT_TRUE(scan_result.ok());
  EXPECT_TRUE(final_result->BagEquals(*scan_result));
}


// --- AS OF by snapshot reducibility. ---------------------------------------

/// Renders a RandomQueryGenerator plan (an arity-2 snapshot query over
/// the period tables r, s and p) as middleware SQL.  Every (sub)query
/// names its output columns c0..cN-1, so nesting never depends on
/// source column names.
class SnapshotSqlRenderer {
 public:
  std::string Query(const Plan& q) const {
    const size_t n = q.schema.size();
    switch (q.kind) {
      case PlanKind::kScan:
        return StrCat("SELECT a AS c0, b AS c1 FROM ", q.table);
      case PlanKind::kSelect:
        return StrCat("SELECT ", Passthrough(n), " FROM (", Query(*q.left),
                      ") AS x WHERE ", Expr(*q.predicate, -1));
      case PlanKind::kProject: {
        std::vector<std::string> items;
        for (size_t i = 0; i < n; ++i) {
          items.push_back(StrCat(Expr(*q.exprs[i], -1), " AS c", i));
        }
        return StrCat("SELECT ", Join(items, ", "), " FROM (", Query(*q.left),
                      ") AS x");
      }
      case PlanKind::kJoin: {
        const int nl = static_cast<int>(q.left->schema.size());
        std::vector<std::string> items;
        for (size_t i = 0; i < n; ++i) {
          items.push_back(StrCat(Ref(static_cast<int>(i), nl), " AS c", i));
        }
        return StrCat("SELECT ", Join(items, ", "), " FROM (", Query(*q.left),
                      ") AS lhs JOIN (", Query(*q.right), ") AS rhs ON ",
                      Expr(*q.predicate, nl));
      }
      case PlanKind::kUnionAll:
      case PlanKind::kExceptAll:
        return StrCat("SELECT ", Passthrough(n), " FROM (", Query(*q.left),
                      ") AS x ",
                      q.kind == PlanKind::kUnionAll ? "UNION ALL"
                                                    : "EXCEPT ALL",
                      " SELECT ", Passthrough(n), " FROM (", Query(*q.right),
                      ") AS x");
      case PlanKind::kDistinct:
        return StrCat("SELECT DISTINCT ", Passthrough(n), " FROM (",
                      Query(*q.left), ") AS x");
      case PlanKind::kAggregate: {
        std::vector<std::string> items;
        for (const ExprPtr& g : q.exprs) items.push_back(Expr(*g, -1));
        const std::string group_by =
            items.empty() ? "" : StrCat(" GROUP BY ", Join(items, ", "));
        for (const AggExpr& a : q.aggs) {
          items.push_back(a.func == AggFunc::kCountStar
                              ? std::string("count(*)")
                              : StrCat(AggFuncName(a.func), "(",
                                       Expr(*a.arg, -1), ")"));
        }
        for (size_t i = 0; i < items.size(); ++i) {
          items[i] = StrCat(items[i], " AS c", i);
        }
        return StrCat("SELECT ", Join(items, ", "), " FROM (", Query(*q.left),
                      ") AS x", group_by);
      }
      default:
        ADD_FAILURE() << "unexpected node " << PlanKindName(q.kind);
        return "";
    }
  }

 private:
  static std::string Passthrough(size_t n) {
    std::vector<std::string> items;
    for (size_t i = 0; i < n; ++i) items.push_back(StrCat("x.c", i, " AS c", i));
    return Join(items, ", ");
  }

  /// Input column `c`: of the one subquery x when `join_left_arity` is
  /// negative, else of the join's lhs / rhs subqueries.
  static std::string Ref(int c, int join_left_arity) {
    if (join_left_arity < 0) return StrCat("x.c", c);
    return c < join_left_arity ? StrCat("lhs.c", c)
                               : StrCat("rhs.c", c - join_left_arity);
  }

  static std::string Expr(const class Expr& e, int join_left_arity) {
    switch (e.kind) {
      case ExprKind::kColumn:
        return Ref(e.column, join_left_arity);
      case ExprKind::kLiteral:
        return e.literal.ToString();
      case ExprKind::kArith:
        return StrCat("(", Expr(*e.children[0], join_left_arity), " + ",
                      Expr(*e.children[1], join_left_arity), ")");
      case ExprKind::kCompare: {
        const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
        return StrCat(Expr(*e.children[0], join_left_arity), " ",
                      ops[static_cast<int>(e.cmp)], " ",
                      Expr(*e.children[1], join_left_arity));
      }
      default:
        ADD_FAILURE() << "unexpected expression " << e.ToString();
        return "";
    }
  }
};

/// Period tables r and s (trailing endpoints) and p (endpoints stored at
/// columns 0 and 2), filled like the differential fuzzer's tables.
TemporalDB RandomPeriodDb(Rng* rng) {
  Catalog data = RandomEncodedCatalog(rng, kDomain, /*max_rows=*/10,
                                      /*null_chance=*/0.15,
                                      /*empty_validity_chance=*/0.1);
  AddRandomPeriodTable(rng, &data, kDomain, 10, 0.15, 0.1);
  TemporalDB db(kDomain);
  for (const char* name : {"r", "s", "p"}) {
    const Relation& rel = data.Get(name);
    std::vector<std::string> columns;
    for (size_t i = 0; i < rel.schema().size(); ++i) {
      columns.push_back(rel.schema().at(i).name);
    }
    EXPECT_TRUE(
        db.CreatePeriodTable(name, columns, "a_begin", "a_end").ok());
    if (rel.size() > 0) EXPECT_TRUE(db.InsertRows(name, rel.rows()).ok());
  }
  return db;
}

/// Nodes a plan built by snapshot reducibility must not contain.
bool HasTemporalOperator(const PlanPtr& plan) {
  return ContainsKind(plan, PlanKind::kSplit) ||
         ContainsKind(plan, PlanKind::kSplitAggregate) ||
         ContainsKind(plan, PlanKind::kCoalesce);
}

TEST(AsOfPlanTest, MatchesRootTimesliceOfRewriteOnRandomQueries) {
  Rng rng(0xa50fa50f);
  RandomQueryConfig config;
  config.null_literal_chance = 0.15;
  config.union_dup_chance = 0.2;
  config.period_scan_chance = 0.3;
  RewriteOptions root_tau;
  root_tau.push_down_timeslice = false;
  const SnapshotSqlRenderer render;
  int nonempty_answers = 0;
  for (int iter = 0; iter < 60; ++iter) {
    TemporalDB db = RandomPeriodDb(&rng);
    RandomQueryGenerator gen(&rng, config);
    PlanPtr query = gen.Generate(1 + static_cast<int>(rng.Uniform(3)));
    const std::string body = render.Query(*query);
    const int scans = CountKind(query, PlanKind::kScan);
    // Two read phases; appends in between ride the timeline index's
    // delta (or rebuild it) before the second.
    for (int phase = 0; phase < 2; ++phase) {
      if (phase == 1) {
        for (const char* name : {"r", "s", "p"}) {
          if (!rng.Chance(0.6)) continue;
          std::vector<Row> rows = RandomAppendRows(
              &rng, kDomain, /*period_layout=*/std::string(name) == "p",
              1 + static_cast<int>(rng.Uniform(4)), 0.15, 0.1);
          ASSERT_TRUE(db.InsertRows(name, std::move(rows)).ok());
        }
      }
      // No generated row is alive at tmax - 1 (ends are <= tmax - 1), so
      // that instant is always an empty snapshot.
      for (TimePoint t : {kDomain.tmin, kDomain.tmax - 1,
                          rng.Range(kDomain.tmin, kDomain.tmax - 1),
                          rng.Range(kDomain.tmin, kDomain.tmax - 1)}) {
        const std::string sql = StrCat("SEQ VT AS OF ", t, " (", body, ")");
        Result<Relation> got = db.Query(sql);
        Result<Relation> want = db.Query(sql, root_tau);
        ASSERT_EQ(got.status().code(), want.status().code())
            << sql << "\n" << got.status().ToString() << "\n"
            << want.status().ToString();
        if (!got.ok()) continue;
        if (got->size() > 0) ++nonempty_answers;
        EXPECT_TRUE(got->BagEquals(*want))
            << sql << "\ngot:\n" << got->ToString() << "want:\n"
            << want->ToString();

        Result<PlanPtr> plan = db.Plan(sql);
        ASSERT_TRUE(plan.ok()) << sql;
        EXPECT_FALSE(HasTemporalOperator(*plan)) << (*plan)->ToString();
        EXPECT_EQ(CollectSlicedScans(*plan).size(),
                  static_cast<size_t>(scans))
            << (*plan)->ToString();
        Result<std::string> explained = db.ExplainAnalyze(sql);
        ASSERT_TRUE(explained.ok()) << sql;
        EXPECT_NE(explained->find(StrCat("index timeslices: ", scans, ",")),
                  std::string::npos)
            << *explained;
      }
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(nonempty_answers, 100);  // the comparisons are not vacuous
}

TEST(AsOfPlanTest, EmptySnapshotAggregates) {
  TemporalDB db(kDomain);
  ASSERT_TRUE(db.CreatePeriodTable("t", {"grp", "val", "vb", "ve"}, "vb", "ve")
                  .ok());
  ASSERT_TRUE(db.InsertRows("t", {{Value::Int(1), Value::Int(5), Value::Int(2),
                                   Value::Int(6)},
                                  {Value::Int(2), Value::Int(7), Value::Int(4),
                                   Value::Int(9)}})
                  .ok());
  RewriteOptions root_tau;
  root_tau.push_down_timeslice = false;
  for (TimePoint t : {TimePoint{0}, TimePoint{12}}) {  // nothing alive
    const std::string global = StrCat(
        "SEQ VT AS OF ", t, " (SELECT count(*) AS n, avg(val) AS a FROM t)");
    Result<Relation> count = db.Query(global);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    ASSERT_EQ(count->size(), 1u);
    EXPECT_EQ(count->rows()[0][0], Value::Int(0));
    EXPECT_TRUE(count->rows()[0][1].is_null());
    EXPECT_TRUE(count->BagEquals(*db.Query(global, root_tau)));

    const std::string grouped = StrCat(
        "SEQ VT AS OF ", t, " (SELECT grp, count(*) AS n FROM t GROUP BY grp)");
    Result<Relation> groups = db.Query(grouped);
    ASSERT_TRUE(groups.ok()) << groups.status().ToString();
    EXPECT_EQ(groups->size(), 0u);
    EXPECT_EQ(db.Query(grouped, root_tau)->size(), 0u);
  }
}

TEST(AsOfPlanTest, OnlyPeriodKIsPlannedBySnapshotReducibility) {
  Rng rng(0xba5e);
  TemporalDB db = SeededDb(&rng, 20);
  const std::string sql =
      "SEQ VT AS OF 5 (SELECT grp, count(*) AS n FROM t GROUP BY grp)";
  Result<PlanPtr> ours = db.Plan(sql);
  ASSERT_TRUE(ours.ok());
  EXPECT_FALSE(HasTemporalOperator(*ours)) << (*ours)->ToString();
  ASSERT_EQ(CollectSlicedScans(*ours).size(), 1u);
  for (SnapshotSemantics baseline :
       {SnapshotSemantics::kAlignment,
        SnapshotSemantics::kIntervalPreservation,
        SnapshotSemantics::kTeradata}) {
    RewriteOptions options;
    options.semantics = baseline;
    Result<PlanPtr> plan = db.Plan(sql, options);
    ASSERT_TRUE(plan.ok());
    // tau stays at the root of the baseline's own rewrite.
    EXPECT_EQ((*plan)->kind, PlanKind::kTimeslice)
        << SnapshotSemanticsName(baseline);
    EXPECT_TRUE(HasTemporalOperator(*plan)) << (*plan)->ToString();
  }
}

// The pure builder, without the middleware: the plan over each sliced
// period scan equals tau_t of the REWR plan on the same catalog,
// non-trailing period table included, and every slice is indexed.
TEST(AsOfPlanTest, BuilderEqualsTimeslicedRewriteOnEncodedCatalog) {
  Rng rng(0xb111d);
  RandomQueryConfig config;
  config.period_scan_chance = 0.3;
  for (int iter = 0; iter < 60; ++iter) {
    Catalog catalog = RandomEncodedCatalog(&rng, kDomain, 10, 0.1, 0.1);
    PlanPtr encoded_p = AddRandomPeriodTable(&rng, &catalog, kDomain, 10, 0.1,
                                             0.1);
    EncodeTables(&catalog);
    catalog.PutIndex("r", TimelineIndex::Build(catalog.GetShared("r")));
    catalog.PutIndex("s", TimelineIndex::Build(catalog.GetShared("s")));
    catalog.PutIndex("p", TimelineIndex::Build(catalog.GetShared("p"), 0, 2));
    RandomQueryGenerator gen(&rng, config);
    PlanPtr query = gen.Generate(1 + static_cast<int>(rng.Uniform(3)));
    const TimePoint t = rng.Range(kDomain.tmin, kDomain.tmax - 1);
    const std::map<std::string, PlanPtr> encoded{{"p", encoded_p}};
    PlanPtr as_of = BuildAsOfPlan(query, t, encoded);
    EXPECT_FALSE(HasTemporalOperator(as_of));
    ASSERT_EQ(as_of->schema.size(), query->schema.size());
    SnapshotRewriter rewriter(kDomain, RewriteOptions{}, encoded);
    PlanPtr root_tau = MakeTimeslice(rewriter.Rewrite(query), t);
    ExecStats stats;
    Relation got = Execute(as_of, catalog, ExecOptions{}, &stats);
    EXPECT_EQ(stats.index_timeslices,
              static_cast<int64_t>(CollectSlicedScans(as_of).size()));
    Relation want = Execute(root_tau, catalog);
    ASSERT_TRUE(got.BagEquals(want))
        << "t=" << t << "\nquery:\n" << query->ToString() << "got:\n"
        << got.ToString() << "want:\n" << want.ToString();
  }
}

}  // namespace
}  // namespace periodk
