#include "middleware/temporal_db.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/str_util.h"
#include "engine/temporal_ops.h"
#include "engine/timeline_index.h"
#include "ra/cost_model.h"
#include "sql/parser.h"
#include "stats/table_stats.h"

namespace periodk {

namespace {

/// Plan-cache capacity; on overflow the cache restarts empty (a serving
/// workload inlining distinct literals must not grow memory forever).
constexpr size_t kPlanCacheMaxEntries = 1024;

/// Cache key for a (SQL text, rewrite options) pair.  Every option that
/// changes the produced plan is part of the key — use_cost_model shapes
/// plans (join reorder, strategy hints), so it is included — and plans
/// cached under different options never alias.  num_threads and
/// use_timeline_index are deliberately absent: they only change how a
/// plan executes, never the plan itself.
std::string PlanCacheKey(const std::string& sql,
                         const RewriteOptions& options) {
  return StrCat(static_cast<int>(options.semantics),
                static_cast<int>(options.hoist_coalesce),
                static_cast<int>(options.fuse_aggregation),
                static_cast<int>(options.pre_aggregate),
                static_cast<int>(options.final_coalesce),
                static_cast<int>(options.coalesce_impl),
                static_cast<int>(options.push_down_timeslice),
                static_cast<int>(options.use_cost_model), "|", sql);
}

/// The period-column checks CreatePeriodTable and PutPeriodTable
/// share: two distinct columns, both in the schema.
Status CheckPeriodColumns(const Schema& schema,
                          const sql::PeriodTableInfo& period) {
  if (period.begin_column == period.end_column) {
    return Status::InvalidArgument(
        StrCat("period begin and end must be distinct columns, got (",
               period.begin_column, ", ", period.end_column, ")"));
  }
  if (schema.Find("", period.begin_column) < 0 ||
      schema.Find("", period.end_column) < 0) {
    return Status::InvalidArgument(
        StrCat("period columns (", period.begin_column, ", ",
               period.end_column, ") must be part of the schema"));
  }
  return Status::OK();
}

/// A stored period endpoint column must be non-null int64: snapshot
/// semantics, the stats and the timeline index all read it as integer
/// time points.  On an encoded table this is a look at the column tag
/// and null count.
Status CheckEndpointColumn(const Relation& encoded, int col,
                           const std::string& table) {
  const ColumnData& column = encoded.col(static_cast<size_t>(col));
  if (column.tag() == ColumnTag::kInt && !column.has_nulls()) {
    return Status::OK();
  }
  return Status::InvalidArgument(StrCat(
      "period column ", encoded.schema().at(static_cast<size_t>(col)).name,
      " of ", table, " must hold non-null integer time points, got a ",
      column.tag() == ColumnTag::kInt ? "NULL" : "non-integer value"));
}

}  // namespace

std::string PlanCacheStats::ToString() const {
  return StrCat("plan cache: ", hits, " hits, ", misses, " misses, ",
                invalidations, " invalidations, ", entries, " entries");
}

std::string IndexMaintenanceStats::ToString() const {
  return StrCat("index maintenance: ", delta_publishes, " delta publishes, ",
                compactions, " compactions, ", background_compactions,
                " background compactions");
}

TemporalDB::TemporalDB(TemporalDB&& other)
    : domain_(other.domain_), options_(other.options_) {
  // Steal the guarded state under other's locks, in the serving path's
  // order (writer before catalog; plan cache last).  Writes to this
  // object's own guarded fields need no locks: nothing else can see an
  // object still under construction.
  MutexLock writer_lock(other.writer_mu_);
  SharedMutexLock catalog_lock(other.catalog_mu_);
  MutexLock cache_lock(other.plan_cache_mu_);
  catalog_ = std::move(other.catalog_);
  period_tables_ = std::move(other.period_tables_);
  catalog_generation_ = other.catalog_generation_;
  table_versions_ = std::move(other.table_versions_);
  index_maintenance_ = other.index_maintenance_;
  {
    MutexLock maintenance_lock(other.maintenance_mu_);
    maintenance_stats_ = other.maintenance_stats_;
  }
  // compaction_pool_ stays with `other`: its in-flight tasks captured
  // `other`'s `this` and drain against the (now empty) moved-from
  // catalog, where every generation-tag check fails harmlessly.
  plan_cache_enabled_ = other.plan_cache_enabled_;
  plan_cache_ = std::move(other.plan_cache_);
  cache_stats_ = other.cache_stats_;
}

TemporalDB::~TemporalDB() {
  // Serialize with writers so no new compaction can be scheduled, then
  // wait out the in-flight ones: their tasks dereference this object.
  MutexLock writer_lock(writer_mu_);
  if (compaction_pool_ != nullptr) compaction_pool_->Drain();
}

IndexMaintenanceStats TemporalDB::index_maintenance_stats() const {
  MutexLock lock(maintenance_mu_);
  return maintenance_stats_;
}

void TemporalDB::WaitForIndexMaintenance() {
  MutexLock writer_lock(writer_mu_);
  if (compaction_pool_ != nullptr) compaction_pool_->Drain();
}

// --- Writers.  All serialize on writer_mu_, build new table state
// outside the reader lock, and publish with a brief exclusive lock so
// readers only ever block for a pointer swap. -------------------------------

TemporalDB::AppendIndexPlan TemporalDB::PlanAppendIndex(
    const std::shared_ptr<const Relation>& old_relation,
    const std::shared_ptr<const TimelineIndex>& old_index,
    const std::shared_ptr<const Relation>& next,
    const std::shared_ptr<const TableStats>& next_stats, int begin_idx,
    int end_idx) const {
  AppendIndexPlan plan;
  if (!index_maintenance_.maintain_indexes || old_index == nullptr) {
    return plan;  // nothing to maintain: the slot drops, reads rebuild
  }
  // Only a current index over exactly the columns the period metadata
  // names can be extended; anything else (a racing layout change, a
  // hand-attached index) is dropped like before.
  if (!old_index->BuiltFor(old_relation.get()) ||
      old_index->begin_col() != begin_idx ||
      old_index->end_col() != end_idx) {
    return plan;
  }
  plan.index = TimelineIndex::WithDelta(old_index, next);
  if (plan.index == nullptr) return plan;  // unindexable appended rows
  // Threshold: ratio of the compacted core, clamped.  The delta is
  // checkpointed too, so this bounds memory/merge overhead rather than
  // correctness or per-lookup replay.
  int64_t base_events = static_cast<int64_t>(plan.index->num_events() -
                                             plan.index->num_delta_events());
  int64_t threshold = static_cast<int64_t>(
      index_maintenance_.compaction_ratio * static_cast<double>(base_events));
  threshold = std::clamp(threshold, index_maintenance_.min_compaction_events,
                         index_maintenance_.max_compaction_events);
  bool compact =
      static_cast<int64_t>(plan.index->num_delta_events()) >= threshold;
  // Checkpoint-K for the folded index comes from the fresh statistics
  // when the cost model is on, like the lazy build path.
  plan.checkpoint_interval = TimelineIndex::kDefaultCheckpointInterval;
  if (options_.use_cost_model && next_stats != nullptr &&
      next_stats->BuiltFor(next.get())) {
    plan.checkpoint_interval = CostModel::PickCheckpointInterval(*next_stats);
  }
  if (compact && !index_maintenance_.background_compaction) {
    std::shared_ptr<const TimelineIndex> folded = TimelineIndex::Build(
        next, begin_idx, end_idx, plan.checkpoint_interval);
    if (folded != nullptr) {
      plan.index = std::move(folded);
      MutexLock lock(maintenance_mu_);
      ++maintenance_stats_.compactions;
      return plan;
    }
  }
  plan.compact_in_background =
      compact && index_maintenance_.background_compaction;
  MutexLock lock(maintenance_mu_);
  ++maintenance_stats_.delta_publishes;
  return plan;
}

void TemporalDB::ScheduleBackgroundCompaction(
    const std::string& table, std::shared_ptr<const Relation> relation,
    int begin_idx, int end_idx, int64_t checkpoint_interval,
    uint64_t published_version) {
  {
    // One in-flight rebuild per table: a burst of appends keeps growing
    // the delta and re-arms once the current rebuild settles.
    MutexLock lock(maintenance_mu_);
    if (!pending_compactions_.insert(table).second) return;
  }
  if (compaction_pool_ == nullptr) {
    compaction_pool_ = std::make_unique<ThreadPool>(2);
  }
  compaction_pool_->Post([this, table, relation = std::move(relation),
                          begin_idx, end_idx, checkpoint_interval,
                          published_version] {
    // Build outside every lock — the expensive part.
    std::shared_ptr<const TimelineIndex> folded = TimelineIndex::Build(
        relation, begin_idx, end_idx, checkpoint_interval);
    bool published = false;
    if (folded != nullptr) {
      // Double-checked publication under the generation tag, like the
      // lazy read-side build: the folded index replaces the delta index
      // only while the table is still the exact published state it was
      // built from; any later append's publication wins.
      SharedMutexLock lock(catalog_mu_);
      auto version = table_versions_.find(table);
      if (version != table_versions_.end() &&
          version->second == published_version) {
        catalog_.PutIndex(table, folded);
        published = true;
      }
    }
    MutexLock lock(maintenance_mu_);
    if (published) ++maintenance_stats_.background_compactions;
    pending_compactions_.erase(table);
  });
}

Status TemporalDB::CreateTable(const std::string& name,
                               const std::vector<std::string>& columns) {
  return Publish(name, WriteKind::kCreate,
                 Relation(Schema::FromNames(columns)), std::nullopt, {});
}

Status TemporalDB::CreatePeriodTable(const std::string& name,
                                     const std::vector<std::string>& columns,
                                     const std::string& begin_column,
                                     const std::string& end_column) {
  sql::PeriodTableInfo period{begin_column, end_column};
  Relation table(Schema::FromNames(columns));
  Status status = CheckPeriodColumns(table.schema(), period);
  if (!status.ok()) return status;
  return Publish(name, WriteKind::kCreate, std::move(table),
                 std::move(period), {});
}

// periodk-lint: allow(relation-by-value): ownership sink, callers move
Status TemporalDB::PutPeriodTable(const std::string& name, Relation relation,
                                  const std::string& begin_column,
                                  const std::string& end_column) {
  sql::PeriodTableInfo period{begin_column, end_column};
  Status status = CheckPeriodColumns(relation.schema(), period);
  if (!status.ok()) return status;
  return Publish(name, WriteKind::kReplace, std::move(relation),
                 std::move(period), {});
}

Status TemporalDB::Insert(const std::string& table, Row row) {
  std::vector<Row> rows;
  rows.push_back(std::move(row));
  return InsertRows(table, std::move(rows));
}

Status TemporalDB::InsertRows(const std::string& table,
                              std::vector<Row> rows) {
  return Publish(table, WriteKind::kAppend, Relation(), std::nullopt,
                 std::move(rows));
}

Status TemporalDB::Publish(const std::string& name, WriteKind kind,
                           Relation&& base,
                           std::optional<sql::PeriodTableInfo> period,
                           std::vector<Row> rows) {
  MutexLock writer_lock(writer_mu_);
  std::shared_ptr<const Relation> current;
  std::shared_ptr<const TableStats> old_stats;
  std::shared_ptr<const TimelineIndex> old_index;
  // writer_mu_ alone would suffice for these reads (only writers modify
  // the catalog and they serialize), but "either of two locks" is not
  // a provable protocol — the shared lock is contention-free here and
  // lets the analysis check the reads.
  {
    SharedReaderLock lock(catalog_mu_);
    const bool exists = catalog_.Has(name);
    if (kind == WriteKind::kCreate && exists) {
      return Status::AlreadyExists(StrCat("table exists: ", name));
    }
    if (kind == WriteKind::kAppend) {
      if (!exists) return Status::NotFound(StrCat("unknown table: ", name));
      current = catalog_.GetShared(name);
      old_stats = catalog_.GetStats(name);
      old_index = catalog_.GetIndex(name);
      auto pt = period_tables_.find(name);
      if (pt != period_tables_.end()) period = pt->second;
    }
  }
  const Schema& schema = current != nullptr ? current->schema() : base.schema();
  // Validate every arity before any row lands: a write is atomic, so a
  // mid-batch mismatch must not leave the table half-populated.
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != schema.size()) {
      return Status::InvalidArgument(StrCat(
          "arity mismatch inserting into ", name, " at row ", i, ": got ",
          rows[i].size(), " values, expected ", schema.size()));
    }
  }
  if (kind == WriteKind::kAppend && rows.empty()) return Status::OK();

  // Build the new state outside the reader lock: copy-on-write leaves
  // the relation that pinned snapshots hold untouched.  An append
  // copies the stored columns and encodes only the batch.
  Relation next;
  if (kind == WriteKind::kAppend) {
    next = Relation::Append(*current, rows);
  } else {
    next = std::move(base);
    next.ToColumnar();
  }
  int begin_idx = -1;
  int end_idx = -1;
  if (period.has_value()) {
    begin_idx = next.schema().Find("", period->begin_column);
    end_idx = next.schema().Find("", period->end_column);
    for (int col : {begin_idx, end_idx}) {
      Status status = CheckEndpointColumn(next, col, name);
      if (!status.ok()) return status;
    }
  }
  auto relation = std::make_shared<const Relation>(std::move(next));
  // Every publication stores stats built for its relation, so an append
  // merges the batch into them.
  std::shared_ptr<const TableStats> stats =
      kind == WriteKind::kAppend
          ? TableStats::Merge(*old_stats, relation)
          : TableStats::Collect(relation, begin_idx, end_idx);
  // Index maintenance rides the same publication: an append turns the
  // old index plus the new rows into a differential index (or, past the
  // threshold, a freshly folded one).  Created and replaced tables have
  // no old index; their slot stays empty for a lazy build on read.
  AppendIndexPlan index_plan = PlanAppendIndex(
      current, old_index, relation, stats, begin_idx, end_idx);

  uint64_t published_version = 0;
  {
    SharedMutexLock lock(catalog_mu_);
    catalog_.PutShared(name, relation);
    catalog_.PutStats(name, std::move(stats));
    // PutShared dropped the index slot; restore the maintained index in
    // the same critical section so no reader observes the gap.
    if (index_plan.index != nullptr) catalog_.PutIndex(name, index_plan.index);
    if (period.has_value()) period_tables_[name] = *period;
    ++catalog_generation_;
    table_versions_[name] = catalog_generation_;
    published_version = catalog_generation_;
  }
  if (kind == WriteKind::kCreate) {
    InvalidatePlanCache();
  } else {
    InvalidatePlanCacheForTable(name);
  }
  if (index_plan.compact_in_background) {
    ScheduleBackgroundCompaction(name, relation, begin_idx, end_idx,
                                 index_plan.checkpoint_interval,
                                 published_version);
  }
  return Status::OK();
}

// --- Plan cache. -----------------------------------------------------------

void TemporalDB::InvalidatePlanCache() {
  MutexLock lock(plan_cache_mu_);
  if (plan_cache_.empty()) return;
  plan_cache_.clear();
  ++cache_stats_.invalidations;
}

void TemporalDB::InvalidatePlanCacheForTable(const std::string& table) {
  MutexLock lock(plan_cache_mu_);
  size_t dropped = 0;
  for (auto it = plan_cache_.begin(); it != plan_cache_.end();) {
    bool reads_table = false;
    for (const auto& [name, version] : it->second.table_versions) {
      if (name == table) {
        reads_table = true;
        break;
      }
    }
    if (reads_table) {
      it = plan_cache_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  if (dropped > 0) ++cache_stats_.invalidations;
}

PlanCacheStats TemporalDB::plan_cache_stats() const {
  MutexLock lock(plan_cache_mu_);
  PlanCacheStats stats = cache_stats_;
  stats.entries = static_cast<int64_t>(plan_cache_.size());
  return stats;
}

void TemporalDB::set_plan_cache_enabled(bool enabled) {
  MutexLock lock(plan_cache_mu_);
  plan_cache_enabled_ = enabled;
  // Disabling drops every entry: a bound plan from before the toggle
  // must not resurface after re-enabling (the per-table version tags
  // would already refuse to serve stale entries, but an explicit
  // disable means "no cached state, period").
  if (!enabled) plan_cache_.clear();
}

// --- Readers.  Every entry point pins one snapshot and runs entirely
// against it. ---------------------------------------------------------------

TemporalDB::Snapshot TemporalDB::PinSnapshot() const {
  SharedReaderLock lock(catalog_mu_);
  return Snapshot{catalog_, period_tables_, catalog_generation_,
                  table_versions_};
}

std::shared_ptr<const TimelineIndex> TemporalDB::EnsureTimelineIndex(
    const std::string& table, int begin_col, int end_col, Snapshot& snap,
    bool use_cost_model) const {
  std::shared_ptr<const Relation> relation = snap.catalog.GetShared(table);
  std::shared_ptr<const TimelineIndex> index = snap.catalog.GetIndex(table);
  if (index != nullptr && index->BuiltFor(relation.get()) &&
      index->begin_col() == begin_col && index->end_col() == end_col) {
    return index;
  }
  // Replay cost per lookup is O(K); checkpoint memory is O(avg alive
  // set) per checkpoint.  With statistics available, size K to the
  // table's alive-set profile instead of the one-size default (either
  // choice answers every lookup identically).
  int64_t checkpoint_interval = TimelineIndex::kDefaultCheckpointInterval;
  if (use_cost_model) {
    std::shared_ptr<const TableStats> stats = snap.catalog.GetStats(table);
    if (stats != nullptr && stats->BuiltFor(relation.get())) {
      checkpoint_interval = CostModel::PickCheckpointInterval(*stats);
    }
  }
  index = TimelineIndex::Build(relation, begin_col, end_col,
                               checkpoint_interval);
  if (index == nullptr) return nullptr;  // unindexable: scan path decides
  snap.catalog.PutIndex(table, index);
  {
    // Publish back to the live catalog, double-checked under the
    // generation tag: only while the catalog still is the exact state
    // the index was built against.  If another reader raced its own
    // build in first, keep that one — the two are interchangeable.
    SharedMutexLock lock(catalog_mu_);
    if (catalog_generation_ == snap.generation &&
        catalog_.GetIndex(table) == nullptr) {
      catalog_.PutIndex(table, index);
    }
  }
  return index;
}

void TemporalDB::EnsureTimelineIndexes(
    const std::vector<const class Plan*>& sliced_scans, Snapshot& snap,
    bool use_cost_model) const {
  for (const class Plan* node : sliced_scans) {
    const std::string& table = node->left->table;
    if (!snap.catalog.Has(table)) continue;
    int arity = static_cast<int>(snap.catalog.Get(table).schema().size());
    // Index over exactly the columns this slice reads: the stored
    // endpoint positions, trailing or not.  The executor rejects an
    // index over any other pair.
    auto [begin_col, end_col] = ResolveSliceColumns(*node);
    if (arity < 2 || begin_col >= arity || end_col >= arity) continue;
    EnsureTimelineIndex(table, begin_col, end_col, snap, use_cost_model);
  }
}

Result<sql::BoundStatement> TemporalDB::BindSql(const std::string& sql,
                                                const Snapshot& snap) const {
  Result<sql::Statement> parsed = sql::Parse(sql);
  if (!parsed.ok()) return parsed.status();
  sql::Binder binder(&snap.catalog, &snap.period_tables);
  return binder.Bind(*parsed);
}

Result<PlanPtr> TemporalDB::PlanBound(const sql::BoundStatement& bound,
                                      const RewriteOptions& options,
                                      const Snapshot& snap) const {
  try {
    PlanPtr plan = bound.plan;
    // One model per planning pass: it reads the snapshot's statistics
    // and memoizes per plan node, so the join reorder and the
    // strategy-hint pass below share estimates.
    std::optional<CostModel> cost;
    if (options.use_cost_model) cost.emplace(&snap.catalog, domain_);
    if (bound.as_of.has_value() && !domain_.Contains(*bound.as_of)) {
      return Status::InvalidArgument(StrCat("AS OF time ", *bound.as_of,
                                            " outside the domain ",
                                            domain_.ToString()));
    }
    if (bound.as_of.has_value() &&
        options.semantics == SnapshotSemantics::kPeriodK &&
        options.push_down_timeslice) {
      // Snapshot reducibility (Thm 6.3): tau_t(REWR(Q)(D)) = Q(tau_t(D)).
      // bound.plan is the plain Q over snapshot schemas, so slicing its
      // period-table scans at t leaves an ordinary multiset query.
      plan = BuildAsOfPlan(plan, *bound.as_of, bound.encoded_tables);
      if (cost.has_value()) plan = ReorderJoins(plan, *cost);
    } else if (bound.snapshot) {
      SnapshotRewriter rewriter(domain_, options, bound.encoded_tables,
                                cost.has_value() ? &*cost : nullptr);
      plan = rewriter.Rewrite(plan);
      // The baselines are not snapshot-reducible (their Table 1 bugs),
      // so their AS OF slices the whole rewritten result at the root.
      if (bound.as_of.has_value()) {
        plan = MakeTimeslice(std::move(plan), *bound.as_of);
      }
    } else if (cost.has_value()) {
      // Non-snapshot statements scan stored tables directly; their
      // commutative join clusters reorder with the same model.
      plan = ReorderJoins(plan, *cost);
    }
    if (cost.has_value()) {
      // Mark tiny overlap joins for the nested loop.  Runs on the final
      // plan so the hint lands on the joins that actually execute.
      plan = ApplyJoinStrategyHints(plan, *cost);
    }
    if (!bound.order_by.empty()) {
      Result<std::vector<SortKey>> keys =
          sql::BindOrderBy(bound.order_by, plan->schema);
      if (!keys.ok()) return keys.status();
      plan = MakeSort(std::move(plan), std::move(keys.value()));
    }
    return plan;
  } catch (const EngineError& error) {
    return Status::Internal(error.what());
  }
}

Result<TemporalDB::PlannedStatement> TemporalDB::PlanForSnapshot(
    const std::string& sql, const RewriteOptions& options,
    const Snapshot& snap) const {
  const std::string key = PlanCacheKey(sql, options);
  bool use_cache;
  {
    MutexLock lock(plan_cache_mu_);
    use_cache = plan_cache_enabled_;
    if (use_cache) {
      auto it = plan_cache_.find(key);
      if (it != plan_cache_.end()) {
        // An entry is served iff every base table it was bound against
        // is still at the version the binding saw.  Mutations of tables
        // the plan never reads leave it hot.
        bool valid = true;
        for (const auto& [table, version] : it->second.table_versions) {
          auto tv = snap.table_versions.find(table);
          if (tv == snap.table_versions.end() || tv->second != version) {
            valid = false;
            break;
          }
        }
        if (valid) {
          ++cache_stats_.hits;
          return it->second.planned;
        }
      }
      ++cache_stats_.misses;
    }
  }
  // Parse/bind/rewrite outside the lock: planning is the expensive part
  // and touches no cache state.  Failed statements are not cached: they
  // carry no plan to reuse and an error may be transient (e.g. a table
  // created later).
  Result<sql::BoundStatement> bound = BindSql(sql, snap);
  if (!bound.ok()) return bound.status();
  Result<PlanPtr> plan = PlanBound(*bound, options, snap);
  if (!plan.ok()) return plan.status();
  PlannedStatement planned{*plan, {}};
  if (bound->as_of.has_value()) {
    planned.sliced_scans = CollectSlicedScans(planned.plan);
  }
  if (use_cache) {
    // Record the base tables the plan reads at the versions the pinned
    // snapshot saw: the entry stays valid exactly as long as none of
    // those tables mutates.  A table absent from the snapshot's version
    // map (never published through a writer) pins version 0 and can
    // never be served once it appears — the conservative direction.
    std::vector<std::pair<std::string, uint64_t>> versions;
    for (const std::string& table : CollectScanTables(*plan)) {
      auto tv = snap.table_versions.find(table);
      versions.emplace_back(table,
                            tv == snap.table_versions.end() ? 0 : tv->second);
    }
    MutexLock lock(plan_cache_mu_);
    // Re-check the toggle: a disable while we planned means "cache
    // nothing".  The version tags carry the snapshot state this plan is
    // valid for, so an insert racing a catalog mutation is harmless —
    // queries pinned to any other state simply miss.
    if (plan_cache_enabled_) {
      if (plan_cache_.size() >= kPlanCacheMaxEntries) plan_cache_.clear();
      plan_cache_.insert_or_assign(key,
                                   CachedPlan{planned, std::move(versions)});
    }
  }
  return planned;
}

Result<PlanPtr> TemporalDB::Plan(const std::string& sql) const {
  return Plan(sql, options_);
}

Result<PlanPtr> TemporalDB::Plan(const std::string& sql,
                                 const RewriteOptions& options) const {
  try {
    Result<PlannedStatement> planned =
        PlanForSnapshot(sql, options, PinSnapshot());
    if (!planned.ok()) return planned.status();
    return planned->plan;
  } catch (const std::exception& error) {
    // Planning reports every failure as a Status; this is the backstop
    // that keeps the no-throw middleware boundary airtight.
    return Status::Internal(error.what());
  }
}

Result<PlanPtr> TemporalDB::Prepare(const std::string& sql) const {
  return Prepare(sql, options_);
}

Result<PlanPtr> TemporalDB::Prepare(const std::string& sql,
                                    const RewriteOptions& options) const {
  return Plan(sql, options);
}

Result<std::string> TemporalDB::Explain(const std::string& sql) const {
  Result<PlanPtr> plan = Plan(sql, options_);
  if (!plan.ok()) return plan.status();
  return (*plan)->ToString();
}

Result<std::string> TemporalDB::ExplainAnalyze(const std::string& sql) const {
  Snapshot snap = PinSnapshot();
  Result<PlannedStatement> planned = PlanForSnapshot(sql, options_, snap);
  if (!planned.ok()) return planned.status();
  const PlanPtr& plan = planned->plan;
  try {
    ExecStats stats;
    ExecOptions exec;
    exec.num_threads = options_.num_threads;
    exec.use_timeline_index = options_.use_timeline_index;
    exec.use_cost_model = options_.use_cost_model;
    if (exec.use_timeline_index) {
      EnsureTimelineIndexes(planned->sliced_scans, snap,
                            options_.use_cost_model);
    }
    Relation result = Execute(plan, snap.catalog, exec, &stats);
    std::string rendered;
    if (options_.use_cost_model) {
      // Per-node estimated vs. actual cardinality.  Deterministic:
      // estimates are a pure function of plan + snapshot statistics,
      // actuals are looked up per node while the *plan walk* dictates
      // the order (node_rows is never iterated).
      CostModel cost(&snap.catalog, domain_);
      PlanAnnotator annotate = [&](const class Plan& node) {
        std::string suffix =
            StrCat("  [est=", static_cast<int64_t>(cost.EstimateRows(node)));
        auto it = stats.node_rows.find(&node);
        if (it != stats.node_rows.end()) {
          suffix = StrCat(suffix, " actual=", it->second);
        }
        return StrCat(suffix, "]");
      };
      rendered = plan->ToString(0, annotate);
    } else {
      rendered = plan->ToString();
    }
    // The execution counters carry the per-run delta replay
    // (index delta events); the maintenance line adds the DB-lifetime
    // write-path view (delta publishes / compactions) so an operator
    // can see whether a slow AS-OF is riding an uncompacted delta.
    return StrCat(rendered, stats.ToString(), "\n",
                  index_maintenance_stats().ToString(), "\n",
                  result.size(), " result rows\n");
  } catch (const std::exception& error) {
    // EngineError plus anything execution-adjacent (e.g. std::thread
    // failing to spawn pool workers): the boundary never throws.
    return Status::Internal(error.what());
  }
}

Result<Relation> TemporalDB::Query(const std::string& sql) const {
  return Query(sql, options_);
}

Result<Relation> TemporalDB::Query(const std::string& sql,
                                   const RewriteOptions& options) const {
  Snapshot snap = PinSnapshot();
  Result<PlannedStatement> planned = PlanForSnapshot(sql, options, snap);
  if (!planned.ok()) return planned.status();
  try {
    ExecOptions exec;
    exec.num_threads = options.num_threads;
    exec.use_timeline_index = options.use_timeline_index;
    exec.use_cost_model = options.use_cost_model;
    // First indexed read builds the (per-snapshot, COW-shared) index.
    if (exec.use_timeline_index) {
      EnsureTimelineIndexes(planned->sliced_scans, snap,
                            options.use_cost_model);
    }
    return Execute(planned->plan, snap.catalog, exec);
  } catch (const std::exception& error) {
    // EngineError plus anything execution-adjacent (e.g. std::thread
    // failing to spawn pool workers): the boundary never throws.
    return Status::Internal(error.what());
  }
}

Result<Relation> TemporalDB::Timeslice(const std::string& table,
                                       TimePoint t) const {
  Snapshot snap = PinSnapshot();
  if (!snap.catalog.Has(table)) {
    return Status::NotFound(StrCat("unknown table: ", table));
  }
  auto it = snap.period_tables.find(table);
  if (it == snap.period_tables.end()) {
    return Status::InvalidArgument(StrCat(table, " is not a period table"));
  }
  const Relation& stored = snap.catalog.Get(table);
  int begin_idx = stored.schema().Find("", it->second.begin_column);
  int end_idx = stored.schema().Find("", it->second.end_column);
  try {  // the middleware boundary never throws, index path included
    if (options_.use_timeline_index) {
      // Point lookup through the timeline index: checkpoint + bounded
      // replay, row-identical to the scan path below.  Stored period
      // endpoints are non-null int64, so the index always builds.
      std::shared_ptr<const TimelineIndex> index = EnsureTimelineIndex(
          table, begin_idx, end_idx, snap, options_.use_cost_model);
      if (index != nullptr) return index->Timeslice(t);
    }
    // Normalize the period columns into the trailing position, slice.
    std::vector<int> order;
    for (size_t i = 0; i < stored.schema().size(); ++i) {
      if (static_cast<int>(i) != begin_idx &&
          static_cast<int>(i) != end_idx) {
        order.push_back(static_cast<int>(i));
      }
    }
    order.push_back(begin_idx);
    order.push_back(end_idx);
    Relation normalized =
        Execute(MakeProjectColumns(MakeConstant(stored), order), snap.catalog);
    return TimesliceEncoded(normalized, t);
  } catch (const std::exception& error) {
    return Status::Internal(error.what());
  }
}

}  // namespace periodk
