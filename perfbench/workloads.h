// The benchmark's three workloads, each driven by one client thread in
// a closed loop through TemporalDB's public API (every request is
// issued after the previous one returned), with library defaults
// (engine num_threads = 1, inline index compaction):
//
//   employee     Table 3 (top): the ten employee snapshot queries at
//                1000 employees, in repeated passes.
//   tpcbih       Table 3 (bottom): the eleven TPC-BiH queries at SF 0.02,
//                in repeated passes.
//   asof-stream  salaries at 7,600 employees under a write stream: three
//                single-row inserts and one 64-row batch per round, seven
//                AS-OF key lookups after every write, one AS-OF
//                aggregate per round.
//
// A run either measures end-to-end latency (tracing off) or replays the
// same requests under the traced replay of trace.h.  Outputs are
// checked outside every timed interval.
#ifndef PERIODK_PERFBENCH_WORKLOADS_H_
#define PERIODK_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the span dump of a traced run ("" = don't write).
  std::string out_dir;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  size_t samples = 0;
};

struct RunReport {
  Outcomes outcomes;
  /// The metrics of the final JSON line: end-to-end metrics with
  /// tracing off, per-layer metrics with tracing on.  Times (units s,
  /// ms, us) are scaled to the nominal machine speed, here and in
  /// `details`.
  std::vector<Metric> metrics;
  /// Further figures printed in the text report.
  std::vector<Metric> details;
  /// Exact counters over a fixed prefix of the request sequence; they
  /// repeat exactly between runs of the same workload, seed and mode.
  std::vector<std::pair<std::string, std::string>> counters;
  /// The first few failure descriptions.
  std::vector<std::string> errors;
  /// CalibrationSeconds() samples taken between passes or rounds.
  std::vector<double> calibration_s;
};

/// Runs one workload; throws std::runtime_error when set-up fails.
RunReport RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERIODK_PERFBENCH_WORKLOADS_H_
