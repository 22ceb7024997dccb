#include "workloads.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>

#include "baseline/naive.h"
#include "common/rng.h"
#include "datagen/employees.h"
#include "datagen/tpcbih.h"
#include "datagen/workloads.h"
#include "engine/temporal_ops.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "trace.h"

namespace perfbench {
namespace {

using periodk::Relation;
using periodk::Result;
using periodk::Row;
using periodk::Status;
using periodk::TemporalDB;
using periodk::TimeDomain;
using periodk::TimePoint;
using periodk::Value;

// Workload sizes (see perfbench/README.md for why each was chosen).
constexpr int kEmployees = 1000;
constexpr double kTpcBihScale = 0.02;
constexpr int kStreamEmployees = 7600;
// Check scales for the snapshot oracle (same seeds, small data).
constexpr int kCheckEmployees = 60;
constexpr TimeDomain kCheckEmployeeDomain{0, 1200};
constexpr double kCheckTpcBihScale = 0.0005;
// Set-ups per untraced run; setup_s is their median.  TPC-BiH set-up
// takes ~2.5 s (mostly its warm-up pass), the others ~0.15 s.
constexpr int kTpcBihSetups = 3;
constexpr int kQuickSetups = 9;
// Stream shape: a round is three single-row inserts and one batch,
// each followed by kLookupsPerWrite lookups, and one aggregate.  An
// epoch of kRoundsPerEpoch rounds starts from the loaded table, so
// the table stays within ~2% of its loaded size however fast the
// system runs.
constexpr int kWritesPerRound = 4;
constexpr int kBatchRows = 64;
constexpr int kLookupsPerWrite = 7;
constexpr int kRoundsPerEpoch = 32;
constexpr int kProbeRounds = 4;
constexpr int kTemplates = 512;
// Minimum samples per untraced run, whatever --seconds says, so every
// reported percentile has at least ten samples beyond it: 20 passes for
// pass_p50_s, 70 rounds (210 inserts for insert_p95_us, 1960 lookups
// for lookup_p99_us).
constexpr size_t kMinPasses = 20;
constexpr size_t kMinRounds = 70;
constexpr int kCheckEveryLookup = 4;
// Numeric cells may differ by this relative amount from the oracle
// (aggregates summed in another order).
constexpr double kRelTol = 1e-9;

double Since(double start) { return NowSeconds() - start; }

/// Factor that scales a time measured during the calibrated interval
/// to the nominal machine speed (see CalibrationSeconds).
double SpeedScale(const std::vector<double>& calibration_s) {
  return kNominalCalibrationSeconds / Median(calibration_s);
}

/// A set-up's duration at nominal speed, scaled by a calibration taken
/// right after it (set-up runs before the timed loop, when the machine
/// may run at another speed).
double ScaledSetup(double elapsed_s) {
  return elapsed_s * kNominalCalibrationSeconds / CalibrationSeconds();
}

void Record(RunReport& report, bool ok, const std::string& what) {
  report.outcomes.Record(ok);
  if (!ok && report.errors.size() < 8) report.errors.push_back(what);
}

void Require(const Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.ToString());
  }
}

// --- Issuing requests, traced or not. -------------------------------------

/// One closed-loop client: each call returns before the next is issued.
struct Client {
  explicit Client(std::vector<double>* calibration_s)
      : calibration_s(calibration_s) {}

  const TraceSink* sink = nullptr;  // null: untraced
  int64_t next_request = 0;
  /// Receives CalibrationSeconds() after every pass or round.
  std::vector<double>* calibration_s;

  void Calibrate() { calibration_s->push_back(CalibrationSeconds()); }

  Result<Relation> Read(const TemporalDB& db, const std::string& sql,
                        const std::string& cls, LayerCounters* counters,
                        double* latency_s) {
    if (sink == nullptr) return TimedQuery(db, sql, latency_s, counters);
    TraceSink s = *sink;
    s.counters = counters;
    return TraceRead(db, sql, cls, next_request++, s, latency_s);
  }

  Status Write(TemporalDB& db, const std::string& table, std::vector<Row> rows,
               const std::string& cls, LayerCounters* counters,
               double* latency_s) {
    if (sink == nullptr) {
      return TimedWrite(db, table, std::move(rows), latency_s, counters);
    }
    TraceSink s = *sink;
    s.counters = counters;
    return TraceWrite(db, table, std::move(rows), cls, next_request++, s,
                      latency_s);
  }
};

// --- The AS-OF/write stream. -----------------------------------------------

struct StreamSpec {
  std::string table;
  std::string key_col;    // lookups filter on it
  std::string value_col;  // lookups select it, the aggregate averages it
  bool new_values;        // writes carry a fresh integer value_col
};

struct StreamRequest {
  enum Kind { kWrite, kLookup, kAggregate } kind = kLookup;
  std::string cls;
  std::vector<Row> rows;  // kWrite
  std::string sql;        // reads
  TimePoint t = 0;
  Value key;
};

struct Stream {
  StreamSpec spec;
  TimeDomain domain;
  std::shared_ptr<const Relation> original;  // the loaded table
  int key_idx = 0;
  int value_idx = 0;
  std::vector<std::vector<StreamRequest>> rounds;
  std::string warm_sql;
};

std::string LookupSql(const StreamSpec& spec, TimePoint t, const Value& key) {
  return "SEQ VT AS OF " + std::to_string(t) + " (SELECT " + spec.value_col +
         " FROM " + spec.table + " WHERE " + spec.key_col + " = " +
         key.ToString() + ")";
}

std::string AggregateSql(const StreamSpec& spec, TimePoint t) {
  return "SEQ VT AS OF " + std::to_string(t) + " (SELECT count(*) AS n, avg(" +
         spec.value_col + ") AS a FROM " + spec.table + ")";
}

/// Generates the stream's requests from the seed: write rows are new
/// versions (period near the end of the domain) of rows sampled from
/// the loaded table; half of the read instants are a few recent "hot"
/// ones, half are uniform over the domain; lookup keys are sampled from
/// the table, so each is present.
Stream MakeStream(const TemporalDB& db, const StreamSpec& spec, uint64_t seed,
                  int rounds) {
  Stream stream;
  stream.spec = spec;
  stream.domain = db.domain();
  stream.original = db.catalog().GetShared(spec.table);
  const periodk::Schema& schema = stream.original->schema();
  const int arity = static_cast<int>(schema.size());
  stream.key_idx = schema.Find("", spec.key_col);
  stream.value_idx = schema.Find("", spec.value_col);
  const int begin_idx = schema.Find("", "vt_begin");
  const int end_idx = schema.Find("", "vt_end");
  if (stream.key_idx < 0 || stream.value_idx < 0 || begin_idx != arity - 2 ||
      end_idx != arity - 1) {
    throw std::runtime_error("unexpected schema of " + spec.table);
  }
  // Sample from a private copy: reading rows() of the catalog's own
  // relation would cache a row view that later copy-on-write inserts
  // would then copy too.
  Relation copy = *stream.original;
  const std::vector<Row>& all = copy.rows();
  periodk::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  std::vector<Row> templates;
  for (int i = 0; i < kTemplates; ++i) {
    templates.push_back(all[rng.Uniform(all.size())]);
  }
  const TimePoint tmin = stream.domain.tmin;
  const TimePoint tmax = stream.domain.tmax;
  const TimePoint hot[] = {tmax - 1, tmax - 5, tmax - 20, tmax - 60};
  auto pick_time = [&] {
    return rng.Chance(0.5) ? hot[rng.Uniform(4)] : rng.Range(tmin, tmax - 1);
  };
  auto new_version = [&] {
    Row row = templates[rng.Uniform(templates.size())];
    row[begin_idx] = Value::Int(tmax - rng.Range(1, 400));
    row[end_idx] = Value::Int(tmax);
    if (spec.new_values) {
      row[stream.value_idx] = Value::Int(rng.Range(38000, 158000));
    }
    return row;
  };
  for (int r = 0; r < rounds; ++r) {
    std::vector<StreamRequest> round;
    for (int w = 0; w < kWritesPerRound; ++w) {
      StreamRequest write;
      write.kind = StreamRequest::kWrite;
      const bool batch = w == kWritesPerRound - 1;
      write.cls = batch ? "batch" : "insert";
      for (int i = 0; i < (batch ? kBatchRows : 1); ++i) {
        write.rows.push_back(new_version());
      }
      round.push_back(std::move(write));
      for (int l = 0; l < kLookupsPerWrite; ++l) {
        StreamRequest read;
        read.cls = "lookup";
        read.t = pick_time();
        read.key = templates[rng.Uniform(templates.size())][stream.key_idx];
        read.sql = LookupSql(spec, read.t, read.key);
        round.push_back(std::move(read));
      }
    }
    StreamRequest agg;
    agg.kind = StreamRequest::kAggregate;
    agg.cls = "aggregate";
    agg.t = pick_time();
    agg.sql = AggregateSql(spec, agg.t);
    round.push_back(std::move(agg));
    stream.rounds.push_back(std::move(round));
  }
  stream.warm_sql =
      LookupSql(spec, tmax - 1, templates.front()[stream.key_idx]);
  return stream;
}

/// Row-exact reference for a stream read, from TimesliceEncoded over
/// the table's current relation plus the same filter or aggregate.
bool CheckStreamRead(const TemporalDB& db, const Stream& stream,
                     const StreamRequest& req, const Relation& got,
                     std::string* why) {
  Relation slice = periodk::TimesliceEncoded(
      *db.catalog().GetShared(stream.spec.table), req.t);
  Relation want(periodk::Schema::FromNames(
      req.kind == StreamRequest::kLookup ? std::vector<std::string>{"v"}
                                         : std::vector<std::string>{"n", "a"}));
  if (req.kind == StreamRequest::kLookup) {
    for (const Row& row : slice.rows()) {
      if (row[stream.key_idx] == req.key) want.AddRow({row[stream.value_idx]});
    }
  } else {
    double sum = 0;
    for (const Row& row : slice.rows()) {
      sum += row[stream.value_idx].NumericAsDouble();
    }
    const int64_t n = static_cast<int64_t>(slice.size());
    Row row{Value::Int(n), Value::Null()};
    if (n > 0) row[1] = Value::Double(sum / static_cast<double>(n));
    want.AddRow(std::move(row));
  }
  return RowsMatch(got, want, kRelTol, why);
}

/// Puts the loaded table back and warms its timeline index (untimed).
void RestoreStreamTable(TemporalDB& db, const Stream& stream,
                        RunReport& report) {
  Require(db.PutPeriodTable(stream.spec.table, Relation(*stream.original),
                            "vt_begin", "vt_end"),
          "restoring " + stream.spec.table);
  Record(report, db.Query(stream.warm_sql).ok(), "index warm-up failed");
}

struct StreamSamples {
  std::map<std::string, std::vector<double>> latency_s;  // per class
  std::vector<double> round_s;  // per round: sum of its request latencies
};

/// Runs one epoch (every round once), stopping early once `deadline`
/// (> 0) has passed and `samples` holds at least `min_rounds` rounds;
/// returns the summed request latency of the rounds it ran.
double RunEpoch(TemporalDB& db, const Stream& stream, Client& client,
                LayerCounters* counters, double deadline, size_t min_rounds,
                StreamSamples& samples, RunReport& report) {
  double epoch_total = 0;
  int lookups = 0;
  for (const std::vector<StreamRequest>& round : stream.rounds) {
    if (deadline > 0 && NowSeconds() > deadline &&
        samples.round_s.size() >= min_rounds) {
      break;
    }
    double round_total = 0;
    for (const StreamRequest& req : round) {
      double latency = 0;
      if (req.kind == StreamRequest::kWrite) {
        Status status = client.Write(db, stream.spec.table, req.rows, req.cls,
                                     counters, &latency);
        Record(report, status.ok(), req.cls + ": " + status.ToString());
      } else {
        Result<Relation> result =
            client.Read(db, req.sql, req.cls, counters, &latency);
        bool ok = result.ok();
        std::string why = ok ? "" : result.status().ToString();
        const bool sampled = req.kind == StreamRequest::kAggregate ||
                             lookups++ % kCheckEveryLookup == 0;
        if (ok && sampled) ok = CheckStreamRead(db, stream, req, *result, &why);
        Record(report, ok, req.sql + ": " + why);
      }
      samples.latency_s[req.cls].push_back(latency);
      round_total += latency;
    }
    samples.round_s.push_back(round_total);
    epoch_total += round_total;
    client.Calibrate();
  }
  return epoch_total;
}

// --- The analytic (Table 3) workloads. ------------------------------------

struct AnalyticSpec {
  const std::vector<periodk::WorkloadQuery>* queries;
  std::function<std::unique_ptr<TemporalDB>(uint64_t seed, bool check_scale)>
      load;
  StreamSpec probe;
  int setups;  // per untraced run
};

std::unique_ptr<TemporalDB> LoadEmployeeDb(uint64_t seed, int employees,
                                           const TimeDomain* domain) {
  periodk::EmployeesConfig config;
  config.num_employees = employees;
  config.seed = seed;
  if (domain != nullptr) config.domain = *domain;
  auto db = std::make_unique<TemporalDB>(config.domain);
  Require(periodk::LoadEmployees(db.get(), config), "LoadEmployees");
  return db;
}

std::unique_ptr<TemporalDB> LoadTpcBihDb(uint64_t seed, double scale) {
  periodk::TpcBihConfig config;
  config.scale_factor = scale;
  config.seed = seed;
  auto db = std::make_unique<TemporalDB>(config.domain);
  Require(periodk::LoadTpcBih(db.get(), config), "LoadTpcBih");
  return db;
}

AnalyticSpec EmployeeSpec() {
  return {&periodk::EmployeeWorkload(),
          [](uint64_t seed, bool check) {
            return check ? LoadEmployeeDb(seed, kCheckEmployees,
                                          &kCheckEmployeeDomain)
                         : LoadEmployeeDb(seed, kEmployees, nullptr);
          },
          {"salaries", "emp_no", "salary", true},
          kQuickSetups};
}

AnalyticSpec TpcBihSpec() {
  return {&periodk::TpcBihWorkload(),
          [](uint64_t seed, bool check) {
            return LoadTpcBihDb(seed, check ? kCheckTpcBihScale : kTpcBihScale);
          },
          {"lineitem", "l_orderkey", "l_quantity", false},
          kTpcBihSetups};
}

/// Compares every query at the check scale against NaiveSnapshotEval,
/// the snapshot-by-snapshot oracle (as tests/test_workload_oracle.cc).
void CheckAgainstOracle(const AnalyticSpec& spec, uint64_t seed,
                        RunReport& report) {
  std::unique_ptr<TemporalDB> db = spec.load(seed, true);
  std::map<std::string, periodk::sql::PeriodTableInfo> period_tables;
  for (const std::string& name : db->catalog().TableNames()) {
    period_tables[name] = periodk::sql::PeriodTableInfo{"vt_begin", "vt_end"};
  }
  for (const periodk::WorkloadQuery& q : *spec.queries) {
    Result<Relation> ours = db->Query(q.sql);
    auto parsed = periodk::sql::Parse(q.sql);
    bool ok = ours.ok() && parsed.ok();
    std::string why = ours.ok() ? "" : ours.status().ToString();
    if (ok) {
      periodk::sql::Binder binder(&db->catalog(), &period_tables);
      auto bound = binder.Bind(*parsed);
      ok = bound.ok();
      if (ok) {
        Relation oracle = periodk::NaiveSnapshotEval(bound->plan, db->catalog(),
                                                     db->domain());
        // Equal encodings, or failing that equal snapshots: aggregates
        // summed in another order can round adjacent periods apart.
        ok = BagsMatch(*ours, oracle, kRelTol, &why) ||
             SnapshotsMatch(*ours, oracle, kRelTol, &why);
      }
    }
    Record(report, ok, "oracle " + q.name + ": " + why);
  }
}

struct AnalyticDb {
  std::unique_ptr<TemporalDB> db;
  std::vector<ResultShape> expected;  // first-pass result of each query
};

/// Datagen, load and one warm-up pass (which fills the plan cache);
/// returns the set-up's duration.  The warm-up results become the
/// reference every later result is checked against.
double SetUpAnalytic(const AnalyticSpec& spec, uint64_t seed, AnalyticDb& out,
                     RunReport& report) {
  out.db.reset();  // release the previous set-up before building the next
  double start = NowSeconds();
  out.db = spec.load(seed, false);
  std::vector<Result<Relation>> warm;
  for (const periodk::WorkloadQuery& q : *spec.queries) {
    warm.push_back(out.db->Query(q.sql));
  }
  double elapsed = Since(start);
  std::vector<ResultShape> shapes;
  for (size_t i = 0; i < warm.size(); ++i) {
    const std::string& name = (*spec.queries)[i].name;
    shapes.push_back(warm[i].ok() ? ShapeOf(*warm[i]) : ResultShape{});
    bool ok = warm[i].ok();
    if (ok && !out.expected.empty()) ok = shapes[i] == out.expected[i];
    Record(report, ok, "warm-up " + name + " differs between set-ups");
  }
  if (out.expected.empty()) out.expected = std::move(shapes);
  return elapsed;
}

/// One pass over the query set; returns the summed Query() latency.
double RunPass(const AnalyticSpec& spec, AnalyticDb& adb, Client& client,
               LayerCounters* counters,
               std::vector<std::vector<double>>* latency_s, RunReport& report) {
  double total = 0;
  for (size_t i = 0; i < spec.queries->size(); ++i) {
    const periodk::WorkloadQuery& q = (*spec.queries)[i];
    double latency = 0;
    Result<Relation> result =
        client.Read(*adb.db, q.sql, q.name, counters, &latency);
    bool ok = result.ok() && ShapeOf(*result) == adb.expected[i];
    Record(report, ok, q.name + " result differs from the first pass");
    if (latency_s != nullptr) (*latency_s)[i].push_back(latency);
    total += latency;
  }
  client.Calibrate();
  return total;
}

// --- Reporting. -----------------------------------------------------------

void AddCounters(RunReport& report, const LayerCounters& c, bool traced) {
  auto add = [&](const std::string& name, int64_t value) {
    report.counters.emplace_back(name, std::to_string(value));
  };
  add("reads", c.reads);
  add("writes", c.writes);
  add("result_rows", c.result_rows);
  add("plan_cache_hits", c.plan_cache_hits);
  add("plan_cache_misses", c.plan_cache_misses);
  add("delta_publishes", c.delta_publishes);
  add("compactions", c.compactions);
  if (!traced) return;
  add("nodes_executed", c.nodes_executed);
  add("memo_hits", c.memo_hits);
  add("rows_materialized", c.rows_materialized);
  add("index_timeslices", c.index_timeslices);
  add("index_delta_events", c.index_delta_events);
  add("plan_nodes", c.plan_nodes);
  double qsum = 0;
  for (double q : c.qerrors) qsum += q;
  report.counters.emplace_back("qerror_sum", JsonNumber(qsum));
}

size_t SampleCount(const LayerSamples& layers, const std::string& layer) {
  size_t n = 0;
  auto it = layers.all().find(layer);
  if (it == layers.all().end()) return 0;
  for (const auto& [cls, values] : it->second) n += values.size();
  return n;
}

/// Everything a traced run measured, and what the per-layer metrics
/// are computed from.  A layer the workload itself never exercises
/// (writes and AS-OF reads on the analytic workloads) is measured on
/// the short probe stream that follows the traced passes.
struct TraceResult {
  Tracer tracer;
  LayerSamples layers;
  LayerSamples probe_layers;
  std::map<std::string, std::map<std::string, double>> op_self_us;
  LayerCounters prefix;        // first traced pass / epoch
  LayerCounters probe_prefix;  // the probe stream
  double passes_in_prefix = 1;  // analytic: 1 pass; stream: rounds
  double overhead_frac = 0;
};

/// The per-layer metrics; layer times are scaled by `scale`.
std::vector<Metric> PerLayerMetrics(const TraceResult& tr, double scale) {
  std::vector<Metric> out;
  auto layer = [&](const std::string& name, const std::string& unit,
                   bool pooled = false) {
    const LayerSamples& src = tr.layers.Has(name) ? tr.layers : tr.probe_layers;
    double value = pooled ? src.PooledMedian(name) : src.GeomeanOfMedians(name);
    out.push_back({name, unit, value * scale, SampleCount(src, name)});
  };
  const LayerCounters& c = tr.prefix;
  const LayerCounters& writes = c.writes > 0 ? c : tr.probe_prefix;
  const LayerCounters& indexed = c.index_timeslices > 0 ? c : tr.probe_prefix;
  const double passes = tr.passes_in_prefix;
  auto count = [&](const std::string& name, const std::string& unit, double v,
                   size_t n) { out.push_back({name, unit, v, n}); };
  const size_t reads = static_cast<size_t>(c.reads);

  layer("sql.parse_us", "us");
  layer("sql.bind_us", "us");
  layer("rewrite.rewr_us", "us");
  layer("rewrite.pushdown_us", "us");
  count("ra.qerror_p50", "ratio", Median(c.qerrors), c.qerrors.size());
  count("ra.qerror_max", "ratio", Percentile(c.qerrors, 100), c.qerrors.size());
  count("ra.plan_nodes", "count", static_cast<double>(c.plan_nodes) / passes,
        reads);
  const int64_t lookups = c.plan_cache_hits + c.plan_cache_misses;
  count("middleware.plan_cache_hit_rate", "ratio",
        lookups == 0 ? 0.0
                     : static_cast<double>(c.plan_cache_hits) /
                           static_cast<double>(lookups),
        static_cast<size_t>(lookups));
  layer("middleware.query_overhead_us", "us", true);
  layer("middleware.insert_residual_us", "us", true);
  layer("engine.execute_ms", "ms");
  double op_total = 0;
  std::map<std::string, double> per_kind;
  for (const auto& [cls, kinds] : tr.op_self_us) {
    for (const auto& [kind, us] : kinds) {
      per_kind[kind] += us;
      op_total += us;
    }
  }
  for (const std::string& kind : ReportedOpKinds()) {
    count("engine.op." + kind + ".self_share", "ratio",
          op_total > 0 ? per_kind[kind] / op_total : 0.0, reads);
  }
  count("engine.nodes_executed", "count",
        static_cast<double>(c.nodes_executed) / passes, reads);
  count("engine.memo_hits", "count", static_cast<double>(c.memo_hits) / passes,
        reads);
  count("engine.rows_materialized", "count",
        static_cast<double>(c.rows_materialized) / passes, reads);
  count("engine.materialized_per_result_row", "ratio",
        static_cast<double>(c.rows_materialized) /
            static_cast<double>(std::max<int64_t>(c.result_rows, 1)),
        reads);
  layer("index.timeslice_us", "us");
  count("index.delta_events_per_read", "count",
        static_cast<double>(indexed.index_delta_events) /
            static_cast<double>(std::max<int64_t>(indexed.index_timeslices, 1)),
        static_cast<size_t>(indexed.index_timeslices));
  count("index.delta_publishes", "count",
        static_cast<double>(writes.delta_publishes),
        static_cast<size_t>(writes.writes));
  count("index.compactions", "count", static_cast<double>(writes.compactions),
        static_cast<size_t>(writes.writes));
  layer("index.build_ms", "ms");
  layer("write.copy_us", "us");
  layer("write.addrow_us", "us");
  layer("write.encode_us", "us");
  layer("write.stats_us", "us");
  layer("write.index_us", "us");
  count("trace.overhead_frac", "ratio", tr.overhead_frac, 1);
  return out;
}

/// Writes the spans and the per-request-class breakdown (each Table 3
/// query is a class of its own) of a traced run.
void WriteTrace(const RunOptions& options, const TraceResult& tr) {
  if (options.out_dir.empty()) return;
  const std::string path = options.out_dir + "/spans-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  std::ofstream out(path);
  if (!out) return;
  out << "{\"workload\":" << JsonString(options.workload)
      << ",\"seed\":" << options.seed << ",\n\"breakdown\":{";
  // class -> layer -> median, plus mean operator self time per request.
  std::map<std::string, std::map<std::string, double>> rows;
  std::map<std::string, size_t> requests;
  for (const auto& [layer, classes] : tr.layers.all()) {
    for (const auto& [cls, values] : classes) {
      rows[cls][layer] = Median(values);
      if (layer == "engine.execute_ms") requests[cls] = values.size();
    }
  }
  for (const auto& [cls, kinds] : tr.op_self_us) {
    for (const auto& [kind, us] : kinds) {
      rows[cls]["engine.op." + kind + ".self_us_mean"] =
          us / static_cast<double>(std::max<size_t>(requests[cls], 1));
    }
  }
  bool first = true;
  for (const auto& [cls, layers] : rows) {
    out << (first ? "\n" : ",\n") << JsonString(cls) << ":{";
    first = false;
    bool first_layer = true;
    for (const auto& [layer, value] : layers) {
      out << (first_layer ? "" : ",") << JsonString(layer) << ":"
          << JsonNumber(value);
      first_layer = false;
    }
    out << "}";
  }
  out << "},\n\"spans\":";
  tr.tracer.WriteJson(out);
  out << "}\n";
}

// --- The three workloads. -------------------------------------------------

RunReport RunAnalytic(const AnalyticSpec& spec, const RunOptions& options) {
  RunReport report;
  AnalyticDb adb;
  std::vector<double> setups;
  const int setup_count = options.trace ? 1 : spec.setups;
  for (int s = 0; s < setup_count; ++s) {
    setups.push_back(
        ScaledSetup(SetUpAnalytic(spec, options.seed, adb, report)));
  }
  const size_t nq = spec.queries->size();
  Client client(&report.calibration_s);
  const double deadline = NowSeconds() + options.seconds;
  if (!options.trace) {
    LayerCounters prefix;
    std::vector<std::vector<double>> latency(nq);
    std::vector<double> passes;
    while (passes.size() < kMinPasses || NowSeconds() < deadline) {
      passes.push_back(RunPass(spec, adb, client,
                               passes.empty() ? &prefix : nullptr, &latency,
                               report));
    }
    CheckAgainstOracle(spec, options.seed, report);
    const double scale = SpeedScale(report.calibration_s);
    std::vector<double> medians_ms;
    for (size_t i = 0; i < nq; ++i) {
      medians_ms.push_back(Median(latency[i]) * 1e3 * scale);
      report.details.push_back({"query." + (*spec.queries)[i].name + ".p50_ms",
                                "ms", medians_ms.back(), latency[i].size()});
    }
    report.metrics = {
        {"setup_s", "s", Median(setups), setups.size()},
        {"query_geomean_ms", "ms", Geomean(medians_ms), passes.size() * nq},
        {"pass_p50_s", "s", Median(passes) * scale, passes.size()},
        {"peak_rss_mb", "MB", PeakRssMb(), 1}};
    AddCounters(report, prefix, false);
    return report;
  }

  // Untraced and traced passes alternate: the untraced ones are the
  // baseline of the tracing overhead, measured at the same machine speed.
  TraceResult tr;
  TraceSink sink{&tr.tracer, &tr.layers, &tr.op_self_us, nullptr};
  std::vector<double> untraced, traced;
  while (traced.empty() || NowSeconds() < deadline) {
    client.sink = nullptr;
    untraced.push_back(RunPass(spec, adb, client, nullptr, nullptr, report));
    client.sink = &sink;
    traced.push_back(RunPass(spec, adb, client,
                             traced.empty() ? &tr.prefix : nullptr, nullptr,
                             report));
  }
  tr.overhead_frac = Median(traced) / Median(untraced) - 1.0;
  // Probe: the write path and AS-OF reads on the workload's largest
  // table, which the Table 3 queries never exercise.
  Stream probe = MakeStream(*adb.db, spec.probe, options.seed, kProbeRounds);
  Record(report, adb.db->Query(probe.warm_sql).ok(), "probe warm-up failed");
  TraceSink probe_sink{&tr.tracer, &tr.probe_layers, nullptr, nullptr};
  TraceIndexBuild(*adb.db, spec.probe.table, client.next_request++, probe_sink);
  client.sink = &probe_sink;
  StreamSamples probe_samples;
  RunEpoch(*adb.db, probe, client, &tr.probe_prefix, -1, 0, probe_samples,
           report);
  CheckAgainstOracle(spec, options.seed, report);
  report.metrics = PerLayerMetrics(tr, SpeedScale(report.calibration_s));
  AddCounters(report, tr.prefix, true);
  const double scale = SpeedScale(report.calibration_s);
  report.details.push_back({"trace.untraced_pass_p50_s", "s",
                            Median(untraced) * scale, untraced.size()});
  report.details.push_back({"trace.traced_pass_p50_s", "s",
                            Median(traced) * scale, traced.size()});
  WriteTrace(options, tr);
  return report;
}

RunReport RunAsOfStream(const RunOptions& options) {
  RunReport report;
  const StreamSpec spec{"salaries", "emp_no", "salary", true};
  std::unique_ptr<TemporalDB> db;
  std::vector<double> setups;
  const int setup_count = options.trace ? 1 : kQuickSetups;
  const std::string warm_sql =
      "SEQ VT AS OF 6569 (SELECT salary FROM salaries WHERE emp_no = 10001)";
  for (int s = 0; s < setup_count; ++s) {
    db.reset();
    double start = NowSeconds();
    db = LoadEmployeeDb(options.seed, kStreamEmployees, nullptr);
    Result<Relation> warm = db->Query(warm_sql);  // builds the timeline index
    setups.push_back(ScaledSetup(Since(start)));
    Record(report, warm.ok(), "set-up index warm-up failed");
  }
  Stream stream = MakeStream(*db, spec, options.seed, kRoundsPerEpoch);
  Client client(&report.calibration_s);
  StreamSamples samples;
  const double deadline = NowSeconds() + options.seconds;

  if (!options.trace) {
    LayerCounters prefix;
    for (int epoch = 0; epoch == 0 || samples.round_s.size() < kMinRounds ||
                        NowSeconds() < deadline;
         ++epoch) {
      if (epoch > 0) RestoreStreamTable(*db, stream, report);
      RunEpoch(*db, stream, client, epoch == 0 ? &prefix : nullptr,
               epoch == 0 ? -1 : deadline, kMinRounds, samples, report);
    }
    const auto& lat = samples.latency_s;
    const double scale = SpeedScale(report.calibration_s);
    const double lookup_ms = Median(lat.at("lookup")) * 1e3 * scale;
    const double agg_ms = Median(lat.at("aggregate")) * 1e3 * scale;
    report.metrics = {
        {"setup_s", "s", Median(setups), setups.size()},
        {"query_geomean_ms", "ms", Geomean({lookup_ms, agg_ms}),
         lat.at("lookup").size() + lat.at("aggregate").size()},
        {"pass_p50_s", "s", Median(samples.round_s) * scale,
         samples.round_s.size()},
        {"peak_rss_mb", "MB", PeakRssMb(), 1}};
    auto detail = [&](const char* name, const char* unit, const char* cls,
                      double p) {
      const double per_s = unit[0] == 'u' ? 1e6 : 1e3;  // us or ms
      report.details.push_back({name, unit,
                                Percentile(lat.at(cls), p) * per_s * scale,
                                lat.at(cls).size()});
    };
    detail("lookup_p50_us", "us", "lookup", 50);
    detail("lookup_p99_us", "us", "lookup", 99);
    detail("asof_agg_p50_ms", "ms", "aggregate", 50);
    detail("insert_p50_us", "us", "insert", 50);
    detail("insert_p95_us", "us", "insert", 95);
    detail("batch_insert_p50_ms", "ms", "batch", 50);
    AddCounters(report, prefix, false);
    return report;
  }

  // Traced: untraced and traced epochs over the same requests
  // alternate, the untraced ones being the baseline of the tracing
  // overhead; the first traced epoch runs to its end and is the counter
  // prefix.  Only complete epochs enter the overhead.
  TraceResult tr;
  tr.passes_in_prefix = kRoundsPerEpoch;
  TraceSink sink{&tr.tracer, &tr.layers, &tr.op_self_us, nullptr};
  std::vector<double> untraced, traced;
  for (int epoch = 0; epoch < 2 || NowSeconds() < deadline; ++epoch) {
    const bool traced_epoch = epoch % 2 == 1;
    client.sink = nullptr;
    if (epoch > 0) RestoreStreamTable(*db, stream, report);
    if (traced_epoch) {
      TraceIndexBuild(*db, spec.table, client.next_request++, sink);
      client.sink = &sink;
    }
    StreamSamples epoch_samples;
    const bool first_traced = epoch == 1;
    double total =
        RunEpoch(*db, stream, client, first_traced ? &tr.prefix : nullptr,
                 epoch < 2 ? -1 : deadline, 0, epoch_samples, report);
    if (epoch_samples.round_s.size() == stream.rounds.size()) {
      (traced_epoch ? traced : untraced).push_back(total);
    }
  }
  tr.overhead_frac = Median(traced) / Median(untraced) - 1.0;
  report.metrics = PerLayerMetrics(tr, SpeedScale(report.calibration_s));
  AddCounters(report, tr.prefix, true);
  const double scale = SpeedScale(report.calibration_s);
  report.details.push_back({"trace.untraced_epoch_p50_s", "s",
                            Median(untraced) * scale, untraced.size()});
  report.details.push_back({"trace.traced_epoch_p50_s", "s",
                            Median(traced) * scale, traced.size()});
  WriteTrace(options, tr);
  return report;
}

}  // namespace

RunReport RunWorkload(const RunOptions& options) {
  RunReport report;
  if (options.workload == "employee") {
    report = RunAnalytic(EmployeeSpec(), options);
  } else if (options.workload == "tpcbih") {
    report = RunAnalytic(TpcBihSpec(), options);
  } else if (options.workload == "asof-stream") {
    report = RunAsOfStream(options);
  } else {
    throw std::runtime_error("unknown workload: " + options.workload);
  }
  report.details.push_back({"calibration_ms", "ms",
                            Median(report.calibration_s) * 1e3,
                            report.calibration_s.size()});
  report.details.push_back({"speed_scale", "ratio",
                            SpeedScale(report.calibration_s),
                            report.calibration_s.size()});
  report.details.push_back({"failed_frac", "ratio",
                            report.outcomes.FailedFrac(),
                            static_cast<size_t>(report.outcomes.attempted)});
  return report;
}

}  // namespace perfbench
