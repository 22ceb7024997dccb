// Timeslice serving hot path: the checkpointed timeline index
// (engine/timeline_index.h) against the O(table) scan
// (TimesliceEncoded) it bypasses — the tau_T lookup behind every
// `SEQ VT AS OF t` query and `TemporalDB::Timeslice()` call.  Measures
// point timeslices across table sizes (indexed vs scan, plus the
// one-off build cost amortized over the lookups) and the sensitivity to
// the checkpoint interval K (replay length vs checkpoint memory).
// Record medians into BENCH_timeslice.json per docs/benchmarks.md.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "engine/temporal_ops.h"
#include "engine/timeline_index.h"
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
  return 0;
}
