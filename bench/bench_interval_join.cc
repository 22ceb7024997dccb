// Temporal-join hot path: the sweep-based interval-overlap join
// (engine/interval_join.h) against the nested-loop reference it
// replaces.  Three workloads mirror the join shapes of the paper's
// Sec. 10 evaluation: the equi+overlap shape RewriteJoin emits, the
// overlap-only self-join that previously degenerated to O(n^2), and a
// skewed-duration mix (a few domain-spanning intervals among many short
// ones) that stresses the sweep's active sets.  Each shape runs on
// row-stored and on columnar inputs; the two outputs are checked
// row-identical (and bag-equal to the nested loop) before timing.
// Record medians into BENCH_interval_join.json per docs/benchmarks.md.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.h"
#include "common/rng.h"
#include "engine/executor.h"
#include "engine/interval_join.h"
#include "ra/plan.h"

namespace periodk {
namespace {


constexpr TimePoint kDomainEnd = 50000;

Schema EncodedSchema() {
  return Schema::FromNames({"k", "v", "a_begin", "a_end"});
}

// `keys` distinct key values (1 = overlap-only shape), `long_chance`
// fraction of domain-spanning intervals, the rest short (1..200).
Relation MakeTable(Rng* rng, int rows, int keys, double long_chance) {
  Relation rel(EncodedSchema());
  rel.Reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    TimePoint b;
    TimePoint e;
    if (rng->Chance(long_chance)) {
      b = 0;
      e = kDomainEnd;
    } else {
      b = rng->Range(0, kDomainEnd - 201);
      e = b + rng->Range(1, 200);
    }
    rel.AddRow({Value::Int(rng->Range(0, keys - 1)), Value::Int(i),
                Value::Int(b), Value::Int(e)});
  }
  return rel;
}

struct Workload {
  std::string name;
  PlanPtr join;      // routed through the sweep by the executor
  Catalog catalog;   // row-stored inputs
  Catalog columnar;  // the same inputs stored as typed columns
};

bool RowsIdentical(const Relation& a, const Relation& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (CompareRows(a.rows()[i], b.rows()[i]) != 0) return false;
  }
  return true;
}

ExprPtr OverlapPred() {
  // b1 < e2 AND b2 < e1 over the trailing PERIODENC columns.
  return And(Lt(Col(2), Col(7)), Lt(Col(6), Col(3)));
}

}  // namespace
}  // namespace periodk

int main() {
  using namespace periodk;
  int rows = bench::EnvInt("PERIODK_BENCH_JOIN_ROWS", 4000);
  int repeats = bench::EnvInt("PERIODK_BENCH_REPEATS", 3);

  bench::PrintBanner(
      "interval-overlap join vs nested-loop fallback",
      "Scale via PERIODK_BENCH_JOIN_ROWS (rows per input, default 4000).");

  Rng rng(20190731);
  std::vector<Workload> workloads;
  {
    // REWR's equi+overlap shape: theta' AND overlaps.
    Workload w;
    w.name = "equi+overlap";
    w.catalog.Put("l", MakeTable(&rng, rows, rows / 64 + 1, 0.0));
    w.catalog.Put("r", MakeTable(&rng, rows, rows / 64 + 1, 0.0));
    w.join = MakeJoin(MakeScan("l", EncodedSchema()),
                      MakeScan("r", EncodedSchema()),
                      And(Eq(Col(0), Col(4)), OverlapPred()));
    workloads.push_back(std::move(w));
  }
  {
    // Pure temporal self-join: no equi-key, one sweep bucket.
    Workload w;
    w.name = "overlap-self";
    w.catalog.Put("t", MakeTable(&rng, rows, 1, 0.0));
    w.join = MakeJoin(MakeScan("t", EncodedSchema()),
                      MakeScan("t", EncodedSchema()), OverlapPred());
    workloads.push_back(std::move(w));
  }
  {
    // Skewed durations: 1% of intervals span the whole domain.
    Workload w;
    w.name = "skewed-duration";
    w.catalog.Put("l", MakeTable(&rng, rows, 1, 0.01));
    w.catalog.Put("r", MakeTable(&rng, rows, 1, 0.01));
    w.join = MakeJoin(MakeScan("l", EncodedSchema()),
                      MakeScan("r", EncodedSchema()), OverlapPred());
    workloads.push_back(std::move(w));
  }

  bench::TablePrinter table({"Workload", "Rows/side", "Out rows", "NestedLoop",
                             "Sweep/rows", "Sweep/cols", "Speedup"},
                            {18, 10, 12, 12, 12, 12, 10});
  table.PrintHeader();
  for (Workload& w : workloads) {
    for (const std::string& name : w.catalog.TableNames()) {
      Relation encoded = w.catalog.Get(name);
      encoded.ToColumnar();
      w.columnar.Put(name, std::move(encoded));
    }
    const Relation& left = w.catalog.Get(w.join->left->table);
    const Relation& right = w.catalog.Get(w.join->right->table);
    // Sanity before timing anything: both layouts give the same rows in
    // the same order, and the same bag as the nested loop.
    Relation sweep = Execute(w.join, w.catalog);
    Relation sweep_cols = Execute(w.join, w.columnar);
    Relation reference = NestedLoopJoin(*w.join, left, right);
    if (!sweep.BagEquals(reference) || !RowsIdentical(sweep, sweep_cols)) {
      std::fprintf(stderr, "FATAL: sweep join diverges on %s\n",
                   w.name.c_str());
      return 1;
    }
    double nested = bench::TimeMedian(
        [&] { NestedLoopJoin(*w.join, left, right); }, repeats);
    double swept =
        bench::TimeMedian([&] { Execute(w.join, w.catalog); }, repeats);
    double swept_cols =
        bench::TimeMedian([&] { Execute(w.join, w.columnar); }, repeats);
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx", nested / swept);
    table.PrintRow({w.name, std::to_string(rows),
                    std::to_string(sweep.size()),
                    bench::TablePrinter::Seconds(nested),
                    bench::TablePrinter::Seconds(swept),
                    bench::TablePrinter::Seconds(swept_cols), speedup});
  }
  return 0;
}
