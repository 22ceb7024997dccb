#include "trace.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "engine/executor.h"
#include "engine/timeline_index.h"
#include "ra/cost_model.h"
#include "rewrite/rewriter.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "stats/table_stats.h"

namespace perfbench {

using periodk::CostModel;
using periodk::ExecOptions;
using periodk::ExecStats;
using periodk::Plan;
using periodk::PlanKind;
using periodk::PlanPtr;
using periodk::Relation;
using periodk::Result;
using periodk::Row;
using periodk::Status;
using periodk::TemporalDB;
using periodk::TimelineIndex;

void LayerSamples::Add(const std::string& layer, const std::string& cls,
                       double value) {
  samples_[layer][cls].push_back(value);
}

double LayerSamples::GeomeanOfMedians(const std::string& layer) const {
  auto it = samples_.find(layer);
  if (it == samples_.end()) return std::nan("");
  std::vector<double> medians;
  for (const auto& [cls, values] : it->second) {
    medians.push_back(Median(values));
  }
  return Geomean(medians);
}

double LayerSamples::PooledMedian(const std::string& layer) const {
  std::vector<double> pooled;
  auto it = samples_.find(layer);
  if (it != samples_.end()) {
    for (const auto& [cls, values] : it->second) {
      pooled.insert(pooled.end(), values.begin(), values.end());
    }
  }
  return Median(std::move(pooled));
}

const std::vector<std::string>& ReportedOpKinds() {
  static const std::vector<std::string> kinds = {
      "join",     "split_aggregate", "aggregate", "split",
      "coalesce", "except_all",      "distinct",  "timeslice",
      "select_project", "sort"};
  return kinds;
}

namespace {

/// Operator-kind name used in engine.op.<kind> spans ("" for leaves,
/// which are zero-copy handles and get no span).
std::string OpKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScan:
    case PlanKind::kConstant:
      return "";
    case PlanKind::kSelect:
    case PlanKind::kProject:
      return "select_project";
    case PlanKind::kJoin:
      return "join";
    case PlanKind::kUnionAll:
      return "union_all";
    case PlanKind::kExceptAll:
      return "except_all";
    case PlanKind::kAggregate:
      return "aggregate";
    case PlanKind::kDistinct:
      return "distinct";
    case PlanKind::kSort:
      return "sort";
    case PlanKind::kAntiJoin:
      return "anti_join";
    case PlanKind::kCoalesce:
      return "coalesce";
    case PlanKind::kSplit:
      return "split";
    case PlanKind::kSplitAggregate:
      return "split_aggregate";
    case PlanKind::kTimeslice:
      return "timeslice";
  }
  return "other";
}

ExecOptions ExecOptionsOf(const TemporalDB& db) {
  ExecOptions exec;
  exec.num_threads = db.options().num_threads;
  exec.use_timeline_index = db.options().use_timeline_index;
  exec.use_cost_model = db.options().use_cost_model;
  return exec;
}

std::map<std::string, periodk::sql::PeriodTableInfo> PeriodTables(
    const TemporalDB& db) {
  std::map<std::string, periodk::sql::PeriodTableInfo> out;
  for (const std::string& name : db.catalog().TableNames()) {
    if (db.IsPeriodTable(name)) {
      // Every table the benchmark's generators create stores its
      // validity interval in (vt_begin, vt_end).
      out[name] = periodk::sql::PeriodTableInfo{"vt_begin", "vt_end"};
    }
  }
  return out;
}

/// A leaf holding an already materialized relation.
PlanPtr ConstantOf(const PlanPtr& node,
                   std::shared_ptr<const Relation> relation) {
  auto leaf = std::make_shared<Plan>();
  leaf->kind = PlanKind::kConstant;
  leaf->schema = node->schema;
  leaf->constant = std::move(relation);
  return leaf;
}

/// Executes `node` bottom-up, one engine.op.<kind> span per unique
/// node: the span opens, the children run (nested spans), then the
/// node itself executes over its children's results as constants.
/// Scan children stay scans (a zero-copy handle, and the executor's
/// indexed timeslice and join-pruning routes key on them).  Shared
/// nodes run once (memo), like the executor's own DAG memoization.
std::shared_ptr<const Relation> RunDecomposed(
    const PlanPtr& node, const periodk::Catalog& catalog,
    const ExecOptions& exec, int64_t request, const TraceSink& sink,
    std::unordered_map<const Plan*, std::shared_ptr<const Relation>>& memo,
    std::vector<std::pair<int, std::string>>& op_spans) {
  auto hit = memo.find(node.get());
  if (hit != memo.end()) return hit->second;
  std::string kind = OpKindName(node->kind);
  std::shared_ptr<const Relation> out;
  if (kind.empty()) {
    out = std::make_shared<const Relation>(
        periodk::Execute(node, catalog, exec));
  } else {
    int span = sink.tracer->Begin("engine.op." + kind, request);
    auto copy = std::make_shared<Plan>(*node);
    for (PlanPtr* child : {&copy->left, &copy->right}) {
      if (*child == nullptr || (*child)->kind == PlanKind::kScan) continue;
      *child = ConstantOf(*child, RunDecomposed(*child, catalog, exec, request,
                                                sink, memo, op_spans));
    }
    out = std::make_shared<const Relation>(
        periodk::Execute(copy, catalog, exec));
    sink.tracer->End(span);
    op_spans.emplace_back(span, kind);
  }
  memo.emplace(node.get(), out);
  return out;
}

void CollectUnique(const PlanPtr& node, std::unordered_set<const Plan*>& seen,
                   std::vector<const Plan*>& out) {
  if (node == nullptr || !seen.insert(node.get()).second) return;
  out.push_back(node.get());
  CollectUnique(node->left, seen, out);
  CollectUnique(node->right, seen, out);
}

/// The indexed timeslice of an AS-OF plan: a kTimeslice directly over a
/// kScan on the unary left spine (where PushDownTimeslice puts it).
const Plan* IndexedSlice(const PlanPtr& plan) {
  for (const Plan* node = plan.get(); node != nullptr;
       node = node->left.get()) {
    if (node->kind == PlanKind::kTimeslice && node->left != nullptr &&
        node->left->kind == PlanKind::kScan) {
      return node;
    }
  }
  return nullptr;
}

double Since(double start) { return NowSeconds() - start; }

}  // namespace

Result<Relation> TimedQuery(const TemporalDB& db, const std::string& sql,
                            double* latency_s, LayerCounters* counters) {
  periodk::PlanCacheStats before;
  if (counters != nullptr) before = db.plan_cache_stats();
  double start = NowSeconds();
  Result<Relation> result = db.Query(sql);
  *latency_s = Since(start);
  if (counters != nullptr) {
    periodk::PlanCacheStats after = db.plan_cache_stats();
    counters->plan_cache_hits += after.hits - before.hits;
    counters->plan_cache_misses += after.misses - before.misses;
    ++counters->reads;
    if (result.ok()) {
      counters->result_rows += static_cast<int64_t>(result->size());
    }
  }
  return result;
}

Status TimedWrite(TemporalDB& db, const std::string& table,
                  std::vector<Row> rows, double* latency_s,
                  LayerCounters* counters) {
  periodk::IndexMaintenanceStats before;
  if (counters != nullptr) before = db.index_maintenance_stats();
  const bool single = rows.size() == 1;
  double start = NowSeconds();
  Status status = single ? db.Insert(table, std::move(rows.front()))
                         : db.InsertRows(table, std::move(rows));
  *latency_s = Since(start);
  if (counters != nullptr) {
    periodk::IndexMaintenanceStats after = db.index_maintenance_stats();
    counters->delta_publishes += after.delta_publishes - before.delta_publishes;
    counters->compactions += after.compactions - before.compactions;
    ++counters->writes;
  }
  return status;
}

Result<Relation> TraceRead(const TemporalDB& db, const std::string& sql,
                           const std::string& cls, int64_t request,
                           const TraceSink& sink, double* latency_s) {
  Tracer& tracer = *sink.tracer;
  LayerSamples& layers = *sink.layers;
  Tracer::Scope req(&tracer, "request", request);
  const int64_t hits_before = db.plan_cache_stats().hits;
  std::optional<Result<Relation>> result;
  {
    Tracer::Scope span(&tracer, "middleware.query", request);
    result.emplace(TimedQuery(db, sql, latency_s, sink.counters));
  }
  const bool cache_hit = db.plan_cache_stats().hits > hits_before;
  if (!result->ok()) return std::move(*result);

  // Front end and rewrite, replayed the way TemporalDB plans a
  // statement (PlanBound): parse, bind, REWR with the cost model's
  // reorder pre-pass, AS-OF pushdown, join-strategy hints.
  const periodk::Catalog& catalog = db.catalog();
  auto period_tables = PeriodTables(db);
  double front_end_us = 0;
  auto timed = [&](const char* span_name, const char* layer, auto&& fn) {
    Tracer::Scope span(&tracer, span_name, request);
    double start = NowSeconds();
    fn();
    double us = Since(start) * 1e6;
    if (layer != nullptr) layers.Add(layer, cls, us);
    front_end_us += us;
  };
  std::optional<Result<periodk::sql::Statement>> parsed;
  timed("sql.parse", "sql.parse_us",
        [&] { parsed.emplace(periodk::sql::Parse(sql)); });
  std::optional<Result<periodk::sql::BoundStatement>> bound;
  timed("sql.bind", "sql.bind_us", [&] {
    periodk::sql::Binder binder(&catalog, &period_tables);
    bound.emplace(binder.Bind(**parsed));
  });
  if (!bound->ok()) return Status::Internal("replayed bind failed");
  const periodk::sql::BoundStatement& stmt = **bound;
  std::optional<CostModel> cost;
  if (db.options().use_cost_model) cost.emplace(&catalog, db.domain());
  PlanPtr plan = stmt.plan;
  if (stmt.snapshot) {
    timed("rewrite.rewr", "rewrite.rewr_us", [&] {
      periodk::SnapshotRewriter rewriter(db.domain(), db.options(),
                                         stmt.encoded_tables,
                                         cost ? &*cost : nullptr);
      plan = rewriter.Rewrite(plan);
    });
    if (stmt.as_of.has_value()) {
      timed("rewrite.pushdown", "rewrite.pushdown_us", [&] {
        plan = periodk::MakeTimeslice(std::move(plan), *stmt.as_of);
        if (db.options().push_down_timeslice) {
          plan = periodk::PushDownTimeslice(plan);
        }
      });
    }
  }
  if (cost) {
    timed("rewrite.hints", nullptr,
          [&] { plan = periodk::ApplyJoinStrategyHints(plan, *cost); });
  }

  // Execute the middleware's own plan (a plan-cache hit after Query).
  Result<PlanPtr> served = db.Plan(sql);
  if (!served.ok()) return served.status();
  const ExecOptions exec = ExecOptionsOf(db);
  ExecStats stats;
  double execute_us = 0;
  {
    Tracer::Scope span(&tracer, "engine.execute", request);
    double start = NowSeconds();
    [[maybe_unused]] Relation replay =
        periodk::Execute(*served, catalog, exec, &stats);
    execute_us = Since(start) * 1e6;
  }
  layers.Add("engine.execute_ms", cls, execute_us / 1e3);
  // Query() ran only the phases a cache miss needs.
  double overhead_us =
      *latency_s * 1e6 - execute_us - (cache_hit ? 0.0 : front_end_us);
  layers.Add("middleware.query_overhead_us", cls, overhead_us);

  if (sink.op_self_us != nullptr) {
    std::vector<std::pair<int, std::string>> op_spans;
    const int first_op = static_cast<int>(tracer.spans().size()) + 1;
    {
      Tracer::Scope span(&tracer, "engine.ops", request);
      std::unordered_map<const Plan*, std::shared_ptr<const Relation>> memo;
      RunDecomposed(*served, catalog, exec, request, sink, memo, op_spans);
    }
    // Self time of each operator span: its duration minus its direct
    // children's (every span opened under engine.ops is an operator).
    const std::vector<Span>& spans = tracer.spans();
    std::vector<double> self(spans.size() - first_op);
    for (size_t i = first_op; i < spans.size(); ++i) {
      self[i - first_op] += spans[i].duration_us();
      if (spans[i].parent >= first_op) {
        self[spans[i].parent - first_op] -= spans[i].duration_us();
      }
    }
    for (const auto& [id, kind] : op_spans) {
      (*sink.op_self_us)[cls][kind] += self[id - first_op];
    }
  }

  if (const Plan* slice = IndexedSlice(*served)) {
    std::shared_ptr<const TimelineIndex> index =
        catalog.GetIndex(slice->left->table);
    if (index != nullptr &&
        index->BuiltFor(catalog.GetShared(slice->left->table).get())) {
      Tracer::Scope span(&tracer, "index.timeslice", request);
      double start = NowSeconds();
      [[maybe_unused]] Relation sliced = index->Timeslice(slice->slice_time);
      layers.Add("index.timeslice_us", cls, Since(start) * 1e6);
    }
  }

  if (sink.counters != nullptr) {
    LayerCounters& c = *sink.counters;
    c.nodes_executed += stats.nodes_executed;
    c.memo_hits += stats.memo_hits;
    c.rows_materialized += stats.rows_materialized;
    c.index_timeslices += stats.index_timeslices;
    c.index_delta_events += stats.index_delta_events;
    std::unordered_set<const Plan*> seen;
    std::vector<const Plan*> nodes;
    CollectUnique(*served, seen, nodes);
    c.plan_nodes += static_cast<int64_t>(nodes.size());
    CostModel estimator(&catalog, db.domain());
    for (const Plan* node : nodes) {
      auto actual = stats.node_rows.find(node);
      if (actual == stats.node_rows.end()) continue;
      double est = std::max(estimator.EstimateRows(*node), 1.0);
      double act = std::max(static_cast<double>(actual->second), 1.0);
      c.qerrors.push_back(std::max(est, act) / std::min(est, act));
    }
  }
  return std::move(*result);
}

Status TraceWrite(TemporalDB& db, const std::string& table,
                  std::vector<Row> rows, const std::string& cls,
                  int64_t request, const TraceSink& sink, double* latency_s) {
  Tracer& tracer = *sink.tracer;
  LayerSamples& layers = *sink.layers;
  Tracer::Scope req(&tracer, "request", request);
  const periodk::Catalog& catalog = db.catalog();
  std::shared_ptr<const Relation> current = catalog.GetShared(table);
  std::shared_ptr<const TimelineIndex> old_index = catalog.GetIndex(table);
  periodk::IndexMaintenanceStats before = db.index_maintenance_stats();
  std::vector<Row> replay_rows = rows;
  Status status = Status::OK();
  {
    Tracer::Scope span(&tracer, "middleware.insert", request);
    status = TimedWrite(db, table, std::move(rows), latency_s, sink.counters);
  }
  if (!status.ok()) return status;
  periodk::IndexMaintenanceStats after = db.index_maintenance_stats();

  // Insert's build phase, step by step, on a copy of the pre-write
  // relation (TemporalDB::Insert / InsertRows + PlanAppendIndex).
  double steps_us = 0;
  auto timed = [&](const char* span_name, const char* layer, auto&& fn) {
    Tracer::Scope span(&tracer, span_name, request);
    double start = NowSeconds();
    fn();
    double us = Since(start) * 1e6;
    layers.Add(layer, cls, us);
    steps_us += us;
  };
  const int begin_col = current->schema().Find("", "vt_begin");
  const int end_col = current->schema().Find("", "vt_end");
  std::optional<Relation> next;
  timed("write.copy", "write.copy_us", [&] { next.emplace(*current); });
  timed("write.addrow", "write.addrow_us", [&] {
    if (replay_rows.size() > 1) {
      next->Reserve(next->size() + replay_rows.size());
    }
    for (Row& row : replay_rows) next->AddRow(std::move(row));
  });
  timed("write.encode", "write.encode_us", [&] { next->ToColumnar(); });
  auto shared = std::make_shared<const Relation>(std::move(*next));
  std::shared_ptr<const periodk::TableStats> stats;
  timed("write.stats", "write.stats_us", [&] {
    stats = periodk::TableStats::Collect(shared, begin_col, end_col);
  });
  if (old_index != nullptr) {
    timed("write.index", "write.index_us", [&] {
      [[maybe_unused]] std::shared_ptr<const TimelineIndex> delta =
          TimelineIndex::WithDelta(old_index, shared);
    });
  }
  if (after.compactions > before.compactions) {
    int64_t k = TimelineIndex::kDefaultCheckpointInterval;
    if (db.options().use_cost_model) {
      k = CostModel::PickCheckpointInterval(*stats);
    }
    Tracer::Scope span(&tracer, "index.build", request);
    double start = NowSeconds();
    [[maybe_unused]] std::shared_ptr<const TimelineIndex> folded =
        TimelineIndex::Build(shared, begin_col, end_col, k);
    double us = Since(start) * 1e6;
    layers.Add("index.build_ms", "build", us / 1e3);
    steps_us += us;
  }
  layers.Add("middleware.insert_residual_us", cls, *latency_s * 1e6 - steps_us);
  return status;
}

void TraceIndexBuild(const TemporalDB& db, const std::string& table,
                     int64_t request, const TraceSink& sink) {
  std::shared_ptr<const Relation> relation = db.catalog().GetShared(table);
  const int begin_col = relation->schema().Find("", "vt_begin");
  const int end_col = relation->schema().Find("", "vt_end");
  int64_t k = TimelineIndex::kDefaultCheckpointInterval;
  std::shared_ptr<const periodk::TableStats> stats =
      db.catalog().GetStats(table);
  if (db.options().use_cost_model && stats != nullptr &&
      stats->BuiltFor(relation.get())) {
    k = CostModel::PickCheckpointInterval(*stats);
  }
  Tracer::Scope span(sink.tracer, "index.build", request);
  double start = NowSeconds();
  [[maybe_unused]] std::shared_ptr<const TimelineIndex> index =
      TimelineIndex::Build(relation, begin_col, end_col, k);
  sink.layers->Add("index.build_ms", "build", Since(start) * 1e3);
}

}  // namespace perfbench
