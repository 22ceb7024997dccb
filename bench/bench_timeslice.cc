// Timeslice serving hot path: the checkpointed timeline index
// (engine/timeline_index.h) against the O(table) scan
// (TimesliceEncoded) it bypasses — the tau_T lookup behind every
// `SEQ VT AS OF t` query and `TemporalDB::Timeslice()` call.  Measures
// point timeslices across table sizes (indexed vs scan, plus the
// one-off build cost amortized over the lookups), the sensitivity to
// the checkpoint interval K (replay length vs checkpoint memory), and
// end to end from SQL text: SEQ VT AS OF aggregate, join and EXCEPT ALL
// queries planned by snapshot reducibility (the default) vs tau_t at the
// root of the full REWR plan (push_down_timeslice = false), results
// checked bag-equal before timing.
// Record medians into BENCH_timeslice.json per docs/benchmarks.md.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "engine/temporal_ops.h"
#include "engine/timeline_index.h"
#include "middleware/temporal_db.h"
#include "ra/plan.h"

namespace periodk {
namespace {

constexpr TimePoint kDomainEnd = 1000000;

Schema EncodedSchema() {
  return Schema::FromNames({"k", "v", "a_begin", "a_end"});
}

/// Short-lived intervals (1..2000 ticks) over a wide domain: the
/// time-travel dashboard shape, where any instant sees a small fraction
/// of the table's history alive.  Encoded as columns, like every stored
/// table (the timeline index refuses row-stored sources).
Relation MakeTable(Rng* rng, int rows) {
  Relation rel(EncodedSchema());
  rel.Reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    TimePoint b = rng->Range(0, kDomainEnd - 2001);
    TimePoint e = b + rng->Range(1, 2000);
    rel.AddRow({Value::Int(rng->Range(0, 63)), Value::Int(i), Value::Int(b),
                Value::Int(e)});
  }
  rel.ToColumnar();
  return rel;
}

/// Per-query times span 1e-7..1e-2 s, far below TablePrinter::Seconds'
/// fixed 4 decimals, so print them in scientific notation.
std::string Sci(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2e", seconds);
  return buf;
}

std::vector<TimePoint> ProbePoints(Rng* rng, int count) {
  std::vector<TimePoint> probes;
  probes.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) probes.push_back(rng->Range(0, kDomainEnd));
  return probes;
}

}  // namespace
}  // namespace periodk

int main() {
  using namespace periodk;
  int max_rows = bench::EnvInt("PERIODK_BENCH_TSLICE_ROWS", 500000);
  int probes_n = bench::EnvInt("PERIODK_BENCH_TSLICE_PROBES", 200);
  int repeats = bench::EnvInt("PERIODK_BENCH_REPEATS", 3);

  bench::PrintBanner(
      "timeline-index timeslice vs O(table) scan",
      "Scale via PERIODK_BENCH_TSLICE_ROWS (largest table, default 500000) "
      "and PERIODK_BENCH_TSLICE_PROBES (point lookups per run).");

  Rng rng(20260731);

  // --- Indexed vs scan across table sizes (default K). ---------------------
  bench::TablePrinter table({"Rows", "K", "Checkpoints", "Build", "Scan/q",
                             "Indexed/q", "Speedup"},
                            {9, 7, 12, 10, 12, 12, 10});
  table.PrintHeader();
  std::vector<int> sizes;
  for (int n = max_rows; n >= 1000; n /= 10) sizes.insert(sizes.begin(), n);
  for (int rows : sizes) {
    auto rel = std::make_shared<const Relation>(MakeTable(&rng, rows));
    std::vector<TimePoint> probes = ProbePoints(&rng, probes_n);
    auto index = TimelineIndex::Build(rel);
    if (index == nullptr) {
      std::fprintf(stderr, "FATAL: index refused a well-formed table\n");
      return 1;
    }
    // Sanity: row-exact against the scan path before timing anything.
    for (TimePoint t : probes) {
      Relation indexed = index->Timeslice(t);
      Relation scanned = TimesliceEncoded(*rel, t);
      if (indexed.size() != scanned.size() ||
          !indexed.BagEquals(scanned)) {
        std::fprintf(stderr, "FATAL: indexed timeslice diverges at t=%lld\n",
                     static_cast<long long>(t));
        return 1;
      }
    }
    double build = bench::TimeOnce([&] { TimelineIndex::Build(rel); });
    double scan = bench::TimeMedian(
        [&] {
          for (TimePoint t : probes) TimesliceEncoded(*rel, t);
        },
        repeats);
    double indexed = bench::TimeMedian(
        [&] {
          for (TimePoint t : probes) index->Timeslice(t);
        },
        repeats);
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx", scan / indexed);
    table.PrintRow({std::to_string(rows),
                    std::to_string(index->checkpoint_interval()),
                    std::to_string(index->num_checkpoints()),
                    bench::TablePrinter::Seconds(build),
                    Sci(scan / probes_n), Sci(indexed / probes_n), speedup});
  }

  // --- Checkpoint-interval sweep on the largest table. ---------------------
  std::printf("\nCheckpoint-interval sensitivity (%d rows): replay length "
              "vs checkpoint count.\n", max_rows);
  bench::TablePrinter ktable({"K", "Checkpoints", "Build", "Indexed/q"},
                             {7, 12, 10, 12});
  ktable.PrintHeader();
  auto rel = std::make_shared<const Relation>(MakeTable(&rng, max_rows));
  std::vector<TimePoint> probes = ProbePoints(&rng, probes_n);
  // K = 1 is exercised by the ctest edge cases; at bench scale it would
  // checkpoint after every event (O(#events * avg alive) memory).
  for (int64_t k : {int64_t{16}, int64_t{64}, int64_t{256}, int64_t{4096}}) {
    auto index = TimelineIndex::Build(rel, k);
    double build = bench::TimeOnce([&] { TimelineIndex::Build(rel, k); });
    double indexed = bench::TimeMedian(
        [&] {
          for (TimePoint t : probes) index->Timeslice(t);
        },
        repeats);
    ktable.PrintRow({std::to_string(k),
                     std::to_string(index->num_checkpoints()),
                     bench::TablePrinter::Seconds(build),
                     Sci(indexed / probes_n)});
  }

  // --- SQL AS OF: snapshot reducibility vs tau at the root of REWR. --------
  // Two period tables of a tenth of the largest size; the plan cache is
  // off, so every query pays parse, bind and planning like a serving
  // stream of distinct instants.
  const int sql_rows = std::max(max_rows / 10, 100);
  const int sql_probes = std::max(probes_n / 10, 2);
  std::printf("\nSQL AS OF (%d rows per table, %d instants, plan cache "
              "off): reducible plan vs tau at the root of REWR.\n",
              sql_rows, sql_probes);
  TemporalDB db(TimeDomain{0, kDomainEnd});
  db.set_plan_cache_enabled(false);
  for (const char* name : {"h1", "h2"}) {
    if (!db.PutPeriodTable(name, MakeTable(&rng, sql_rows), "a_begin",
                           "a_end")
             .ok()) {
      std::fprintf(stderr, "FATAL: cannot load %s\n", name);
      return 1;
    }
  }
  std::vector<TimePoint> instants = ProbePoints(&rng, sql_probes);
  for (TimePoint& t : instants) t = std::min(t, kDomainEnd - 1);
  RewriteOptions root_tau;
  root_tau.push_down_timeslice = false;
  bench::TablePrinter qtable({"Query", "Reducible/q", "RootTau/q", "Speedup"},
                             {10, 12, 12, 10});
  qtable.PrintHeader();
  const std::pair<const char*, const char*> queries[] = {
      {"aggregate", "SELECT count(*) AS n, avg(v) AS a FROM h1"},
      {"join", "SELECT x.v, y.v FROM h1 x JOIN h2 y ON x.k = y.k"},
      {"except", "SELECT k FROM h1 EXCEPT ALL SELECT k FROM h2"}};
  for (const auto& [name, body] : queries) {
    std::vector<std::string> sqls;
    for (TimePoint t : instants) {
      sqls.push_back("SEQ VT AS OF " + std::to_string(t) + " (" + body + ")");
    }
    for (const std::string& sql : sqls) {
      Result<Relation> reducible = db.Query(sql);
      Result<Relation> reference = db.Query(sql, root_tau);
      if (!reducible.ok() || !reference.ok() ||
          !reducible->BagEquals(*reference)) {
        std::fprintf(stderr, "FATAL: AS OF plans diverge: %s\n", sql.c_str());
        return 1;
      }
    }
    auto run = [&](const RewriteOptions& options) {
      return bench::TimeMedian(
                 [&] {
                   for (const std::string& sql : sqls) {
                     (void)db.Query(sql, options);
                   }
                 },
                 repeats) /
             sql_probes;
    };
    double reducible = run(db.options());
    double reference = run(root_tau);
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx", reference / reducible);
    qtable.PrintRow({name, Sci(reducible), Sci(reference), speedup});
  }
  return 0;
}
