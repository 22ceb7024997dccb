// The traced replay: issues a request through TemporalDB's public API
// exactly like the untraced run, then replays its steps by calling each
// module's public functions from outside, under spans:
//
//   read:  middleware.query (the real Query() call), then sql.parse,
//          sql.bind, rewrite.rewr, rewrite.pushdown, rewrite.hints,
//          engine.execute (Execute on the plan from TemporalDB::Plan),
//          engine.ops (one engine.op.<kind> span per unique plan node,
//          each executed over its children's materialized results, so
//          a node's span minus its children's spans is its self time),
//          index.timeslice (TimelineIndex::Timeslice on the attached
//          index, for AS-OF reads answered from one);
//   write: middleware.insert (the real Insert()/InsertRows() call),
//          then Insert's steps in order on a copy of the pre-write
//          relation: write.copy, write.addrow, write.encode, write.stats,
//          write.index, and index.build when the real write compacted.
//
// Nothing here changes the database beyond the real request itself.
#ifndef PERIODK_PERFBENCH_TRACE_H_
#define PERIODK_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "middleware/temporal_db.h"

namespace perfbench {

/// Per-request layer times: layer -> request class -> samples.
class LayerSamples {
 public:
  void Add(const std::string& layer, const std::string& cls, double value);
  bool Has(const std::string& layer) const { return samples_.count(layer); }
  /// Geometric mean over request classes of each class's median, the
  /// rule every per-request metric of the benchmark follows (each class
  /// weighs the same).  NaN when the layer has no samples.
  double GeomeanOfMedians(const std::string& layer) const;
  /// Median over every sample of the layer, whatever its class (for
  /// residuals derived by subtraction, which can be <= 0).
  double PooledMedian(const std::string& layer) const;
  const std::map<std::string, std::map<std::string, std::vector<double>>>&
  all() const {
    return samples_;
  }

 private:
  std::map<std::string, std::map<std::string, std::vector<double>>> samples_;
};

/// Exact counters summed over a fixed prefix of the request sequence.
struct LayerCounters {
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t result_rows = 0;
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  int64_t delta_publishes = 0;
  int64_t compactions = 0;
  // ExecStats sums of the Execute replays (traced runs only).
  int64_t nodes_executed = 0;
  int64_t memo_hits = 0;
  int64_t rows_materialized = 0;
  int64_t index_timeslices = 0;
  int64_t index_delta_events = 0;
  int64_t plan_nodes = 0;
  std::vector<double> qerrors;
};

/// Where a traced request records what it measured.
struct TraceSink {
  Tracer* tracer = nullptr;
  LayerSamples* layers = nullptr;
  /// Sum of self time per request class and operator kind
  /// (engine.op.<kind> spans), in us; null skips the decomposed replay.
  std::map<std::string, std::map<std::string, double>>* op_self_us = nullptr;
  /// Counters of the fixed prefix; null once the prefix is over.
  LayerCounters* counters = nullptr;
};

/// Untraced Query(): the latency of the call and its result.  Adds the
/// plan-cache hit/miss delta of the call to `counters` when non-null
/// (the stats are read outside the timed interval).
periodk::Result<periodk::Relation> TimedQuery(const periodk::TemporalDB& db,
                                              const std::string& sql,
                                              double* latency_s,
                                              LayerCounters* counters);

/// Untraced Insert() (one row) or InsertRows() (several).
periodk::Status TimedWrite(periodk::TemporalDB& db, const std::string& table,
                           std::vector<periodk::Row> rows, double* latency_s,
                           LayerCounters* counters);

/// Traced read of request class `cls`; returns Query()'s result and
/// sets *latency_s to Query()'s latency (measured as in TimedQuery).
periodk::Result<periodk::Relation> TraceRead(const periodk::TemporalDB& db,
                                             const std::string& sql,
                                             const std::string& cls,
                                             int64_t request,
                                             const TraceSink& sink,
                                             double* latency_s);

/// Traced write; like TimedWrite plus the replayed write steps.
periodk::Status TraceWrite(periodk::TemporalDB& db, const std::string& table,
                           std::vector<periodk::Row> rows,
                           const std::string& cls, int64_t request,
                           const TraceSink& sink, double* latency_s);

/// Times TimelineIndex::Build over `table`'s current relation (the cost
/// of a compaction or a cold index) into layer index.build_ms.
void TraceIndexBuild(const periodk::TemporalDB& db, const std::string& table,
                     int64_t request, const TraceSink& sink);

/// The operator kinds reported per layer, in output order.
const std::vector<std::string>& ReportedOpKinds();

}  // namespace perfbench

#endif  // PERIODK_PERFBENCH_TRACE_H_
