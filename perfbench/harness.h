// Measurement helpers of the repository benchmark (perfbench/): sample
// statistics, an in-memory span recorder with self-time accounting,
// order-independent result fingerprints, tolerant bag comparison and
// failure accounting.  Everything here is independent of the workloads
// so perfbench/harness_test.cc can pin it on hand-built inputs.
#ifndef PERIODK_PERFBENCH_HARNESS_H_
#define PERIODK_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "engine/relation.h"

namespace perfbench {

/// Monotonic wall clock (std::chrono::steady_clock), in seconds.
double NowSeconds();

/// The p-th percentile (0 <= p <= 100) of `values`, linearly
/// interpolated between the two closest ranks (rank = p/100 * (n-1)),
/// the rule of numpy's default percentile.  NaN when `values` is empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Geometric mean of strictly positive values; NaN when `values` is
/// empty or any value is <= 0 (a zero latency is a measurement bug).
double Geomean(const std::vector<double>& values);

/// One traced interval.  Spans nest: `parent` is the index of the span
/// that was open when this one began (-1 for a root); spans of one
/// request share `request`.  Times are microseconds since the tracer's
/// origin.
struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  int64_t request = 0;
  double duration_us() const { return end_us - start_us; }
};

/// Self time of every span: its duration minus the durations of its
/// direct children (children are nested inside their parent, so this
/// is the part of the interval no child covers).  Indexed like `spans`.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

/// Records spans in memory; written out once at the end of a run.
/// Single-threaded: the benchmark drives one client in a closed loop.
class Tracer {
 public:
  Tracer();
  /// Opens a span under the innermost open span; returns its index.
  int Begin(const std::string& name, int64_t request);
  /// Closes span `id`, which must be the innermost open span.
  void End(int id);

  /// RAII form of Begin/End.
  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name, int64_t request)
        : tracer_(tracer), id_(tracer->Begin(name, request)) {}
    ~Scope() { tracer_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// Spans as a JSON array (name, start_us, end_us, parent, request,
  /// self_us).
  void WriteJson(std::ostream& out) const;

 private:
  double origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Operations attempted and failed (an error or a wrong result).
struct Outcomes {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  double FailedFrac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Row count plus an order-independent fingerprint: the wrapping sum
/// of per-row hashes, so equal bags (any order) fingerprint equally
/// and a changed, missing or extra row changes it.
struct ResultShape {
  size_t rows = 0;
  uint64_t fingerprint = 0;
  bool operator==(const ResultShape& other) const = default;
};
ResultShape ShapeOf(const periodk::Relation& relation);

/// Bag equality where numeric cells may differ by a relative
/// `rel_tol` (aggregates summed in a different order); everything else
/// compares exactly.  On mismatch, `*why` (when non-null) says where.
bool BagsMatch(const periodk::Relation& a, const periodk::Relation& b,
               double rel_tol, std::string* why);

/// Row-exact comparison: same rows in the same order, numeric cells
/// within `rel_tol`.
bool RowsMatch(const periodk::Relation& a, const periodk::Relation& b,
               double rel_tol, std::string* why);

/// Snapshot equivalence of two PERIODENC-encoded results (interval
/// endpoints in the last two columns): at every interval endpoint of
/// either input, the two timeslices are equal bags within `rel_tol`.
/// Two encodings of one temporal relation pass even when rounding made
/// one side coalesce adjacent periods the other kept apart.
bool SnapshotsMatch(const periodk::Relation& a, const periodk::Relation& b,
                    double rel_tol, std::string* why);

/// Duration of a fixed CPU and memory workload that does not use
/// periodk: sort 64k integers, build and probe a 32k-entry hash map,
/// format and sort 8k strings, then fill and copy eight freshly
/// allocated 512 KB buffers (page faults, like operator outputs).  The
/// host's speed drifts by 10-50% over minutes on shared machines; this
/// duration drifts with it, so time metrics are scaled by
/// kNominalCalibrationSeconds over its median (perfbench/README.md,
/// "Machine-speed scaling").
double CalibrationSeconds();
inline constexpr double kNominalCalibrationSeconds = 0.014;

/// Process peak resident set size (getrusage ru_maxrss), in MB.
double PeakRssMb();

/// A JSON number with all its digits (17 significant; NaN/inf as null).
std::string JsonNumber(double value);
/// A JSON string literal.
std::string JsonString(const std::string& value);

}  // namespace perfbench

#endif  // PERIODK_PERFBENCH_HARNESS_H_
