// Cost-based planning ablation (docs/architecture.md §11): the same
// queries with the cost model's three decision points switched off
// (structural behavior) vs on.  Three workloads isolate one decision
// each: join-order picks the selective table first instead of the
// structural left-deep order, tiny-nl checks that a small pure-temporal
// overlap join keeps its sweep (the nested-loop hint fires only on
// joins with equi-keys, where the nested loop wins), and fanout-gate
// keeps a below-break-even aggregation off the thread pool.  Outputs
// are checked equal (bag-equal for tiny-nl; row-identical otherwise)
// before timing.
// Record medians into BENCH_planner.json per docs/benchmarks.md.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "engine/executor.h"
#include "ra/cost_model.h"
#include "ra/plan.h"
#include "stats/table_stats.h"

namespace periodk {
namespace {

constexpr TimePoint kDomainEnd = 50000;

// periodk-lint: allow(relation-by-value): ownership sink, callers move
void PutWithStats(Catalog* catalog, const std::string& name, Relation rel,
                  int begin_col = -1, int end_col = -1) {
  rel.ToColumnar();
  catalog->Put(name, std::move(rel));
  catalog->PutStats(name,
                    TableStats::Collect(catalog->GetShared(name), begin_col,
                                        end_col));
}

Relation MakeKeyed(Rng* rng, int rows, int keys) {
  Relation rel(Schema::FromNames({"k", "v"}));
  rel.Reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    rel.AddRow({Value::Int(rng->Range(0, keys - 1)),
                Value::Int(rng->Range(0, 999))});
  }
  return rel;
}

Relation MakeIntervals(Rng* rng, int rows) {
  Relation rel(Schema::FromNames({"v", "a_begin", "a_end"}));
  rel.Reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    TimePoint b = rng->Range(0, kDomainEnd - 201);
    rel.AddRow({Value::Int(rng->Range(0, 999)), Value::Int(b),
                Value::Int(b + rng->Range(1, 200))});
  }
  return rel;
}

bool SameRows(const Relation& a, const Relation& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (CompareRows(a.rows()[i], b.rows()[i]) != 0) return false;
  }
  return true;
}

}  // namespace
}  // namespace periodk

int main() {
  using namespace periodk;
  int rows = bench::EnvInt("PERIODK_BENCH_PLANNER_ROWS", 200000);
  int probes = bench::EnvInt("PERIODK_BENCH_PLANNER_PROBES", 2000);
  int repeats = bench::EnvInt("PERIODK_BENCH_REPEATS", 3);

  bench::PrintBanner(
      "cost-based planning off vs on: join order, tiny-join strategy, "
      "fan-out gating",
      "Scale via PERIODK_BENCH_PLANNER_ROWS (default 200000) and "
      "PERIODK_BENCH_PLANNER_PROBES (default 2000).");

  Rng rng(20260807);
  const int keys = std::max(rows / 16, 2);
  const int tiny_keys = std::max(keys / 16, 1);

  Catalog catalog;
  PutWithStats(&catalog, "a", MakeKeyed(&rng, rows, keys));
  PutWithStats(&catalog, "b", MakeKeyed(&rng, rows, keys));
  {
    // A selective dimension table: one row per key for a 1/16 slice of
    // the key domain.
    Relation tiny(Schema::FromNames({"tk"}));
    for (int k = 0; k < tiny_keys; ++k) tiny.AddRow({Value::Int(k)});
    PutWithStats(&catalog, "tiny", std::move(tiny));
  }
  {
    // Deliberately row-store: the tiny-join hint matters most for
    // small *derived* inputs (join/select outputs are row relations),
    // where the sweep pays its hash-partition row path per execution.
    Relation iv = MakeIntervals(&rng, 24);
    catalog.Put("iv", std::move(iv));
    catalog.PutStats("iv", TableStats::Collect(catalog.GetShared("iv"), 1, 2));
  }
  {
    // 1024 interval rows over 64 group keys: below the fan-out
    // break-even, so the gate should keep the coalesce sweep off the
    // thread pool.
    Relation small(Schema::FromNames({"k", "a_begin", "a_end"}));
    small.Reserve(1024);
    for (int i = 0; i < 1024; ++i) {
      TimePoint b = rng.Range(0, kDomainEnd - 201);
      small.AddRow({Value::Int(rng.Range(0, 63)), Value::Int(b),
                    Value::Int(b + rng.Range(1, 200))});
    }
    PutWithStats(&catalog, "small", std::move(small), 1, 2);
  }

  TimeDomain domain{0, kDomainEnd};
  CostModel cost(&catalog, domain);
  auto scan = [&](const char* name) {
    return MakeScan(name, catalog.Get(name).schema());
  };

  bench::TablePrinter table(
      {"Workload", "Rows", "Out rows", "CostOff", "CostOn", "Speedup"},
      {15, 10, 12, 12, 12, 10});
  table.PrintHeader();
  auto report = [&](const std::string& name, int in_rows, size_t out_rows,
                    double off_s, double on_s) {
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx", off_s / on_s);
    table.PrintRow({name, std::to_string(in_rows), std::to_string(out_rows),
                    bench::TablePrinter::Seconds(off_s),
                    bench::TablePrinter::Seconds(on_s), speedup});
  };

  // --- 1. Join order: the structural plan joins the two fact tables
  // first (a 16x-fanout many-to-many intermediate); the cost order
  // filters through the dimension table before touching b.
  {
    PlanPtr structural =
        MakeJoin(MakeJoin(scan("a"), scan("b"), Eq(Col(0), Col(2))),
                 scan("tiny"), Eq(Col(0), Col(4)));
    PlanPtr reordered = ReorderJoins(structural, cost);
    if (reordered.get() == structural.get()) {
      std::fprintf(stderr, "FATAL: cost model declined to reorder\n");
      return 1;
    }
    Relation off_rows = Execute(structural, catalog);
    Relation on_rows = Execute(reordered, catalog);
    if (!on_rows.BagEquals(off_rows)) {
      std::fprintf(stderr, "FATAL: reordered join diverges\n");
      return 1;
    }
    double off_s = bench::TimeMedian([&] { Execute(structural, catalog); },
                                     repeats);
    double on_s = bench::TimeMedian([&] { Execute(reordered, catalog); },
                                    repeats);
    report("join-order", rows, on_rows.size(), off_s, on_s);
  }

  // --- 2. Tiny-join strategy: a 24x24 pure-temporal overlap join.  The
  // nested loop compares its endpoints through SqlCompare per pair and
  // is about twice as slow as the sweep here, so the hint must leave the
  // join alone (cost-on and cost-off run the same sweep).
  {
    PlanPtr sweep = MakeJoin(scan("iv"), scan("iv"),
                             AndAll({Lt(Col(1), Col(5)), Lt(Col(4), Col(2))}));
    PlanPtr nested = ApplyJoinStrategyHints(sweep, cost);
    if (nested.get() != sweep.get()) {
      std::fprintf(stderr, "FATAL: pure-temporal tiny join marked NL\n");
      return 1;
    }
    Relation off_rows = Execute(sweep, catalog);
    Relation on_rows = Execute(nested, catalog);
    if (!on_rows.BagEquals(off_rows)) {
      std::fprintf(stderr, "FATAL: tiny join diverges\n");
      return 1;
    }
    double off_s = bench::TimeMedian(
        [&] {
          for (int i = 0; i < probes; ++i) Execute(sweep, catalog);
        },
        repeats);
    double on_s = bench::TimeMedian(
        [&] {
          for (int i = 0; i < probes; ++i) Execute(nested, catalog);
        },
        repeats);
    report("tiny-nl", 24, on_rows.size(), off_s, on_s);
  }

  // --- 3. Fan-out gating: a 1024-row coalesce (below kParallelMinRows)
  // with an 8-thread budget.  Blind fan-out pays per-query pool
  // dispatch, chunk bookkeeping, and stats merging; the gate keeps the
  // sweep sequential.
  {
    PlanPtr agg = MakeCoalesce(scan("small"));
    ExecOptions off;
    off.num_threads = 8;
    off.use_cost_model = false;
    ExecOptions on;
    on.num_threads = 8;
    on.use_cost_model = true;
    Relation off_rows = Execute(agg, catalog, off);
    Relation on_rows = Execute(agg, catalog, on);
    // The gate is row-identical: same rows, same order.
    if (!SameRows(off_rows, on_rows)) {
      std::fprintf(stderr, "FATAL: fan-out gate changes rows\n");
      return 1;
    }
    double off_s = bench::TimeMedian(
        [&] {
          for (int i = 0; i < probes; ++i) Execute(agg, catalog, off);
        },
        repeats);
    double on_s = bench::TimeMedian(
        [&] {
          for (int i = 0; i < probes; ++i) Execute(agg, catalog, on);
        },
        repeats);
    report("fanout-gate", 1024, on_rows.size(), off_s, on_s);
  }
  return 0;
}
