// TemporalDB: the database middleware of paper Section 9.  It stores
// SQL period relations, accepts SQL with the SEQ VT (...) snapshot
// modifier, rewrites snapshot queries with REWR and executes them on
// the bundled multiset engine.  This is the library's primary public
// entry point:
//
//   TemporalDB db(TimeDomain{0, 24});
//   db.CreatePeriodTable("works", {"name", "skill", "ts", "te"},
//                        "ts", "te");
//   db.Insert("works", {...});
//   auto result = db.Query(
//       "SEQ VT (SELECT count(*) AS cnt FROM works WHERE skill = 'SP')");
//
// Concurrency model — snapshot isolation: the catalog stores immutable
// relations behind shared_ptr<const Relation>.  Every read entry point
// (Query/Plan/Prepare/Explain/ExplainAnalyze/Timeslice) pins a snapshot
// — an O(#tables) copy of the handle map plus the period-table metadata
// and a generation number, taken under a shared_mutex — and runs
// entirely against that pinned state.  Writers (CreateTable /
// CreatePeriodTable / PutPeriodTable / Insert / InsertRows) serialize
// among themselves, build the mutated table copy-on-write *outside* the
// reader lock, and publish it with a brief exclusive lock.  Any number
// of concurrent readers therefore observe consistent snapshots while a
// writer mutates; no external locking is needed.
//
// Serving path: executable plans are cached per (SQL text, rewrite
// options).  Each cache entry records the base tables its plan scans
// and the per-table version each was at when the plan was bound; an
// entry is served only to queries whose pinned snapshot still has every
// one of those tables at the recorded version, so a plan raced by a
// catalog mutation (or by a cache disable/re-enable toggle) can never
// be served stale.  Invalidation is per table: mutating T (Insert /
// InsertRows / PutPeriodTable) evicts only the plans that read T, so a
// hot plan survives writes to unrelated tables.  Creating a table
// conservatively flushes everything; disabling the cache drops it
// outright.
//
// Storage invariant: every published table is columnar
// (engine/column.h), and a period table's two endpoint columns are
// non-null int64 columns.  All five writers end in one publish routine
// that establishes it (copy -> append -> encode -> endpoint check ->
// stats -> index maintenance -> swap), so every query scans typed
// column arrays and every index or statistic reads integer time points.
// The TimeDomain is not enforced on stored endpoints.
//
// Point-in-time reads (SEQ VT AS OF, Timeslice) are answered from
// per-table timeline indexes (engine/timeline_index.h) built lazily on
// the first indexed read.  Under the period-K semantics an AS OF t
// query is not rewritten at all: by snapshot reducibility it runs as
// the plain query over every period table sliced at t
// (BuildAsOfPlan).  Appends keep the indexes warm: the new rows become
// a differential delta published next to the base index, folded into a
// fresh full index by threshold-triggered compaction (inline or
// background — IndexMaintenanceOptions); see docs/architecture.md §8.
#ifndef PERIODK_MIDDLEWARE_TEMPORAL_DB_H_
#define PERIODK_MIDDLEWARE_TEMPORAL_DB_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "engine/executor.h"
#include "rewrite/rewriter.h"
#include "sql/binder.h"

namespace periodk {

/// Counters of the middleware plan cache.
struct PlanCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;        // lookups that had to plan (or failed to)
  int64_t invalidations = 0; // mutations that evicted at least one plan
  int64_t entries = 0;       // currently cached plans

  std::string ToString() const;
};

/// Write-path index maintenance (ROADMAP "incremental index maintenance
/// under write traffic").  With maintenance on, Insert/InsertRows keep
/// a table's timeline index warm instead of dropping it: the appended
/// rows become a differential delta (TimelineIndex::WithDelta) published
/// in the catalog slot alongside the new relation, and once the delta
/// crosses the compaction threshold the writer folds it into a fresh
/// fully checkpointed index — inline by default, or handed to a
/// work-stealing pool when background_compaction is set (published
/// double-checked under the table's generation tag, so a racing writer
/// simply wins).  Either mode answers every query identically; the
/// knobs trade write latency against read-side delta replay.
struct IndexMaintenanceOptions {
  /// Master switch.  Off restores the pre-differential behavior: every
  /// append drops the index for a lazy rebuild-from-scratch.
  bool maintain_indexes = true;
  /// Compaction triggers when the delta reaches
  /// clamp(compaction_ratio * base_events, min_compaction_events,
  /// max_compaction_events) events.
  int64_t min_compaction_events = 64;
  int64_t max_compaction_events = 4096;
  double compaction_ratio = 0.10;
  /// Hand compactions to a background worker instead of running them on
  /// the writer.  The delta index is still published immediately — the
  /// compacted replacement lands asynchronously (WaitForIndexMaintenance
  /// blocks until in-flight compactions settle).
  bool background_compaction = false;
};

/// Counters of the write-path index maintenance.
struct IndexMaintenanceStats {
  int64_t delta_publishes = 0;        // appends that published a delta index
  int64_t compactions = 0;            // deltas folded inline by the writer
  int64_t background_compactions = 0; // compactions completed on the pool
  std::string ToString() const;
};

class TemporalDB {
 public:
  explicit TemporalDB(TimeDomain domain, RewriteOptions options = {})
      : domain_(domain), options_(options) {}

  /// Movable (the destination gets fresh mutexes); not copyable.  The
  /// move takes `other`'s writer, catalog, and plan-cache locks — in
  /// that order, the same order the serving path acquires them — so a
  /// move racing concurrent readers or writers of `other` linearizes
  /// as one big exclusive writer instead of being undefined behavior.
  /// The thread-safety annotations enforce that the guarded state is
  /// only moved under those locks.  The moved-from instance is empty
  /// (no tables, no cached plans) and safe only to destroy or reassign.
  TemporalDB(TemporalDB&& other);
  TemporalDB& operator=(TemporalDB&&) = delete;

  /// Waits for in-flight background compactions before tearing the
  /// catalog down (their tasks reference this object's locks and
  /// catalog state).
  ~TemporalDB();

  const TimeDomain& domain() const { return domain_; }
  const RewriteOptions& options() const { return options_; }
  /// Not synchronized: configure options before sharing the instance
  /// across threads (per-call options are the thread-safe alternative).
  void set_options(const RewriteOptions& options) { options_ = options; }

  /// Creates an ordinary (non-temporal) table.  AlreadyExists when the
  /// name is taken.  Thread-safe (serializes with other writers).
  [[nodiscard]] Status CreateTable(const std::string& name,
                                   const std::vector<std::string>& columns);

  /// Creates a period table; `begin_column` / `end_column` must be two
  /// distinct members of `columns` (InvalidArgument otherwise;
  /// AlreadyExists when the name is taken).  Every row later written
  /// must hold non-null integer time points in both; values outside the
  /// domain are stored as given.  Thread-safe (serializes with other
  /// writers).
  [[nodiscard]] Status CreatePeriodTable(
      const std::string& name, const std::vector<std::string>& columns,
      const std::string& begin_column, const std::string& end_column);

  /// Registers an existing relation as a period table (bulk load);
  /// replaces any previous table of that name atomically.  Readers
  /// pinned to the old snapshot keep the old relation alive.
  /// InvalidArgument (table untouched) when a period endpoint is not a
  /// non-null integer.  Thread-safe (serializes with other writers).
  // periodk-lint: allow(relation-by-value): ownership sink, callers move
  [[nodiscard]] Status PutPeriodTable(const std::string& name,
                                      Relation relation,
                                      const std::string& begin_column,
                                      const std::string& end_column);

  /// Copy-on-write append of one row (InsertRows with a one-row batch):
  /// readers pinned to the old snapshot keep seeing the table without
  /// the row.  O(table) per call — batch with InsertRows when loading.
  /// Thread-safe.
  [[nodiscard]] Status Insert(const std::string& table, Row row);
  /// Bulk insert; atomic: a failure leaves the table untouched.
  /// InvalidArgument on an arity mismatch or, for period tables, a
  /// non-integer or NULL endpoint in any row; NotFound for unknown
  /// tables.  O(table + batch) per call.  Thread-safe.
  [[nodiscard]] Status InsertRows(const std::string& table,
                                  std::vector<Row> rows);

  /// Parses, binds, (for SEQ VT queries) rewrites, and executes against
  /// a pinned catalog snapshot.  Planning is served from the plan cache
  /// when possible; options.num_threads > 1 fans partitioned operators
  /// out to a work-stealing pool, and options.use_timeline_index routes
  /// AS-OF timeslices through lazily built timeline indexes.
  /// Thread-safe: any number of concurrent Query() calls may race any
  /// writer; each observes one consistent snapshot.  Never throws; all
  /// failures (parse/bind/execution) come back as the Status.
  [[nodiscard]] Result<Relation> Query(const std::string& sql) const;
  [[nodiscard]] Result<Relation> Query(const std::string& sql,
                                       const RewriteOptions& options) const;

  /// The executable plan for a statement (after rewriting), for EXPLAIN.
  [[nodiscard]] Result<PlanPtr> Plan(const std::string& sql) const;
  [[nodiscard]] Result<PlanPtr> Plan(const std::string& sql,
                                     const RewriteOptions& options) const;

  /// Plans the statement and warms the plan cache (no execution);
  /// subsequent Query() calls with the same text and options are cache
  /// hits until the next catalog mutation.  Returns a Status for every
  /// failure (unknown table, parse error, ...) — never throws across
  /// the middleware boundary.
  [[nodiscard]] Result<PlanPtr> Prepare(const std::string& sql) const;
  [[nodiscard]] Result<PlanPtr> Prepare(
      const std::string& sql, const RewriteOptions& options) const;

  /// EXPLAIN: the executable plan rendered as an indented tree; shared
  /// subplans are printed once and tagged `[shared #n]`.
  [[nodiscard]] Result<std::string> Explain(const std::string& sql) const;

  /// EXPLAIN ANALYZE: executes the statement and appends the engine's
  /// execution counters (nodes executed, memo hits, rows materialized,
  /// parallel tasks).
  [[nodiscard]] Result<std::string> ExplainAnalyze(
      const std::string& sql) const;

  /// tau_T of a period table: its snapshot at time t, with the two
  /// interval columns dropped.  NotFound for unknown tables,
  /// InvalidArgument for non-period tables.  Served from the table's
  /// timeline index — O(log #events + K + answer) after the first call
  /// has built the index — unless options().use_timeline_index is off,
  /// in which case it is the O(table) scan.  Both paths return
  /// identical rows in identical order.  Thread-safe, like every read
  /// entry point.
  [[nodiscard]] Result<Relation> Timeslice(const std::string& table,
                                           TimePoint t) const;

  /// The live catalog.  Unsynchronized direct access for single-threaded
  /// use (tests, benches); references obtained through it are
  /// invalidated by the next mutation of the same table.  Concurrent
  /// readers should go through Query()/Timeslice(), which pin snapshots.
  /// Unsynchronized by contract (see the doc comment above), so the
  /// one legitimate analysis opt-out: taking the reader lock here would
  /// only pretend to help — the returned reference outlives it.
  const Catalog& catalog() const PERIODK_NO_THREAD_SAFETY_ANALYSIS {
    return catalog_;
  }
  bool IsPeriodTable(const std::string& name) const {
    SharedReaderLock lock(catalog_mu_);
    return period_tables_.count(name) > 0;
  }

  /// Plan-cache observability and control.  Disabling the cache (for
  /// ablation/benchmarks) also drops every existing entry, so a plan
  /// bound before the toggle can never be served after re-enabling.
  [[nodiscard]] PlanCacheStats plan_cache_stats() const;
  void set_plan_cache_enabled(bool enabled);

  /// Write-path index maintenance knobs (see IndexMaintenanceOptions).
  /// Not synchronized: configure before sharing the instance across
  /// threads.
  void set_index_maintenance(const IndexMaintenanceOptions& options) {
    index_maintenance_ = options;
  }
  const IndexMaintenanceOptions& index_maintenance() const {
    return index_maintenance_;
  }
  /// Maintenance observability: delta publishes and compactions so far.
  /// Thread-safe.
  [[nodiscard]] IndexMaintenanceStats index_maintenance_stats() const;
  /// Blocks until every background compaction scheduled so far has
  /// finished (each either published its index or lost its
  /// generation-tag race and discarded it).  No-op when background
  /// compaction never ran.  Thread-safe; serializes with writers.
  void WaitForIndexMaintenance();

 private:
  /// An immutable view of the catalog pinned by one read operation: the
  /// relation-handle map (shares table storage with the live catalog),
  /// the period-table metadata, and the generation that identifies this
  /// exact catalog state for plan-cache tagging.
  struct Snapshot {
    Catalog catalog;
    std::map<std::string, sql::PeriodTableInfo> period_tables;
    uint64_t generation = 0;
    // Per-table publication versions (the generation at which each
    // table last changed) — what plan-cache hits are validated against.
    std::map<std::string, uint64_t> table_versions;
  };
  Snapshot PinSnapshot() const PERIODK_EXCLUDES(catalog_mu_);

  /// Lazily builds/publishes the timeline index of `table` over the
  /// endpoint columns (begin_col, end_col), attaching it to the pinned
  /// snapshot.  Publication back to the live catalog is double-checked
  /// under the generation tag: it happens only while the catalog is
  /// still at the snapshot's generation (a concurrent writer's
  /// copy-on-write publication simply wins and the index stays
  /// snapshot-local).  Returns nullptr when the columns cannot be
  /// indexed exactly (not non-null int64) — callers fall back to the
  /// scan.
  /// `use_cost_model` sizes the checkpoint interval from the table's
  /// statistics (CostModel::PickCheckpointInterval) instead of the
  /// fixed default; either interval yields identical query results.
  std::shared_ptr<const TimelineIndex> EnsureTimelineIndex(
      const std::string& table, int begin_col, int end_col, Snapshot& snap,
      bool use_cost_model) const PERIODK_EXCLUDES(catalog_mu_);
  /// Ensures an index for every timeslice-over-scan in `sliced_scans`
  /// (a PlannedStatement's list, recorded once at plan time), each over
  /// the endpoint columns that slice reads.  Plans without AS OF carry
  /// an empty list, so they pay nothing here.
  void EnsureTimelineIndexes(
      const std::vector<const class Plan*>& sliced_scans, Snapshot& snap,
      bool use_cost_model) const;

  /// How a write relates to the table's current state.
  enum class WriteKind {
    kCreate,   // the name must be free; flushes the whole plan cache
    kReplace,  // creates or replaces the table; evicts its cached plans
    kAppend,   // the table must exist; the rows are appended to it
  };
  /// The one publish path every writer ends in.  Under writer_mu_ it
  /// checks existence against `kind` and every arity of `rows` (so the
  /// write is atomic), builds the new relation -- kAppend copies the
  /// current table's columns and encodes only `rows`
  /// (Relation::Append); otherwise `base` is encoded as columns --
  /// rejects a non-integer or NULL period endpoint with
  /// InvalidArgument, merges the batch into the current stats
  /// (kAppend) or collects them, maintains the timeline index, and
  /// swaps relation, stats and index into the catalog in one exclusive
  /// section.  Then it invalidates cached plans and schedules any
  /// background compaction.  `period` names the endpoint columns of a
  /// created or replaced period table; an append reads them from the
  /// catalog.
  [[nodiscard]] Status Publish(const std::string& name, WriteKind kind,
                               Relation&& base,
                               std::optional<sql::PeriodTableInfo> period,
                               std::vector<Row> rows)
      PERIODK_EXCLUDES(writer_mu_, catalog_mu_);

  /// What an append publishes into the table's index slot, decided by
  /// PlanAppendIndex.
  struct AppendIndexPlan {
    /// Published next to the relation in the same exclusive-lock
    /// section; nullptr drops the slot (maintenance off, stale index,
    /// or unindexable appended rows) for a lazy rebuild on read.
    std::shared_ptr<const TimelineIndex> index;
    /// The delta crossed the threshold but compaction is deferred to
    /// the pool: the writer publishes `index` (the delta) now and
    /// schedules ScheduleBackgroundCompaction after the publication.
    bool compact_in_background = false;
    int64_t checkpoint_interval = 0;
  };
  /// Maintains `table`'s timeline index across a copy-on-write append:
  /// wraps the current index and the appended rows of `next` into a
  /// differential index, or — past the compaction threshold — folds
  /// them into a fresh full index (checkpoint-K sized from `next`'s
  /// statistics when the cost model is on).  Pure apart from the
  /// maintenance counters; runs outside the catalog locks like the rest
  /// of the writer's build phase.
  AppendIndexPlan PlanAppendIndex(
      const std::shared_ptr<const Relation>& old_relation,
      const std::shared_ptr<const TimelineIndex>& old_index,
      const std::shared_ptr<const Relation>& next,
      const std::shared_ptr<const TableStats>& next_stats, int begin_idx,
      int end_idx) const PERIODK_EXCLUDES(catalog_mu_, maintenance_mu_);
  /// Hands a full rebuild of `table`'s index (over `relation`, the
  /// just-published state at `published_version`) to the compaction
  /// pool.  The task builds outside every lock and publishes
  /// double-checked under the generation tag: only while the table is
  /// still at `published_version` — a writer that raced in between
  /// simply wins and the stale index is discarded.  At most one
  /// compaction is in flight per table (later appends re-arm once it
  /// settles).  Caller must hold writer_mu_ (the pool handle is
  /// writer state).
  void ScheduleBackgroundCompaction(const std::string& table,
                                    std::shared_ptr<const Relation> relation,
                                    int begin_idx, int end_idx,
                                    int64_t checkpoint_interval,
                                    uint64_t published_version)
      PERIODK_REQUIRES(writer_mu_) PERIODK_EXCLUDES(maintenance_mu_);

  /// An executable plan plus what serving it needs besides the plan.
  struct PlannedStatement {
    PlanPtr plan;
    /// AS-OF plans only: every kTimeslice of `plan` directly over a
    /// kScan (CollectSlicedScans), i.e. the tables whose timeline index
    /// a read ensures before executing.  Points into `plan`.
    std::vector<const class Plan*> sliced_scans;
  };

  [[nodiscard]] Result<sql::BoundStatement> BindSql(
      const std::string& sql, const Snapshot& snap) const;
  /// Plans a bound statement against `snap` (the snapshot supplies the
  /// statistics the cost model reads when options.use_cost_model is on).
  [[nodiscard]] Result<PlanPtr> PlanBound(
      const sql::BoundStatement& bound, const RewriteOptions& options,
      const Snapshot& snap) const;
  /// Plans against the pinned snapshot, consulting/warming the cache.
  [[nodiscard]] Result<PlannedStatement> PlanForSnapshot(
      const std::string& sql, const RewriteOptions& options,
      const Snapshot& snap) const;
  /// Flushes every cached plan (table creation, cache disable).
  void InvalidatePlanCache() PERIODK_EXCLUDES(plan_cache_mu_);
  /// Evicts only the cached plans whose base-table set contains
  /// `table` (Insert / InsertRows / PutPeriodTable).  Plans over other
  /// tables stay hot; the per-table version check at serve time makes
  /// eviction purely hygienic, so a racing in-flight planner is
  /// harmless.
  void InvalidatePlanCacheForTable(const std::string& table)
      PERIODK_EXCLUDES(plan_cache_mu_);

  TimeDomain domain_;
  RewriteOptions options_;

  // Catalog state.  catalog_mu_ orders readers (shared: snapshot pins)
  // against publication (exclusive: pointer swaps only — writers build
  // table copies outside it).  writer_mu_ serializes writers so
  // copy-on-write never loses an update; it is always acquired before
  // catalog_mu_ (declared to the analysis via ACQUIRED_BEFORE).
  mutable SharedMutex catalog_mu_;
  Mutex writer_mu_ PERIODK_ACQUIRED_BEFORE(catalog_mu_);
  // Mutable for exactly one reason: read entry points lazily attach
  // timeline indexes (a cache over immutable relations, never data)
  // under the exclusive lock — see EnsureTimelineIndex.
  mutable Catalog catalog_ PERIODK_GUARDED_BY(catalog_mu_);
  std::map<std::string, sql::PeriodTableInfo> period_tables_
      PERIODK_GUARDED_BY(catalog_mu_);
  // Bumped under the exclusive lock on every publication; a pinned
  // generation therefore names one exact catalog state.
  uint64_t catalog_generation_ PERIODK_GUARDED_BY(catalog_mu_) = 0;
  // table name -> generation at which that table was last published.
  std::map<std::string, uint64_t> table_versions_
      PERIODK_GUARDED_BY(catalog_mu_);
  // See set_index_maintenance().
  IndexMaintenanceOptions index_maintenance_;

  // Maintenance bookkeeping.  maintenance_mu_ guards the counters and
  // the per-table in-flight set; it is leaf-level (nothing is acquired
  // under it), so background tasks may take it while a writer holds
  // writer_mu_ waiting in Drain() without a cycle.  Mutable: readers
  // (index_maintenance_stats, ExplainAnalyze) snapshot the counters.
  mutable Mutex maintenance_mu_;
  mutable IndexMaintenanceStats maintenance_stats_
      PERIODK_GUARDED_BY(maintenance_mu_);
  // Tables with a background compaction in flight; gates re-scheduling
  // so a write burst queues at most one rebuild per table.
  std::set<std::string> pending_compactions_
      PERIODK_GUARDED_BY(maintenance_mu_);
  // Background compaction workers, created on first use.  Writer state:
  // only writers (who serialize on writer_mu_) schedule tasks, and
  // WaitForIndexMaintenance/the destructor drain under the same lock.
  // Deliberately not moved by the move constructor: in-flight tasks
  // capture `this` of the moved-from object, which therefore keeps its
  // pool and drains it at destruction (against its then-empty catalog).
  std::unique_ptr<ThreadPool> compaction_pool_ PERIODK_GUARDED_BY(writer_mu_);

  // Bound-plan cache, keyed by (SQL text, rewrite options).  Mutable:
  // Query()/Plan() are logically const; the cache is an optimization.
  // All cache state is guarded by plan_cache_mu_.  Entries record the
  // per-table versions their plan was bound against and are only served
  // to queries whose snapshot matches every one of them — correctness
  // does not depend on invalidation racing well with in-flight
  // planners.
  // The cache is bounded (it restarts empty on overflow), so
  // unboundedly many distinct statements cannot grow memory forever.
  struct CachedPlan {
    PlannedStatement planned;
    // Base tables the plan scans, each with the version it was bound
    // against.  A hit requires every listed table to still be at its
    // recorded version in the query's snapshot; a plan scanning no
    // table (constant-only) is valid forever.
    std::vector<std::pair<std::string, uint64_t>> table_versions;
  };
  mutable Mutex plan_cache_mu_;
  bool plan_cache_enabled_ PERIODK_GUARDED_BY(plan_cache_mu_) = true;
  mutable std::unordered_map<std::string, CachedPlan> plan_cache_
      PERIODK_GUARDED_BY(plan_cache_mu_);
  mutable PlanCacheStats cache_stats_ PERIODK_GUARDED_BY(plan_cache_mu_);
};

/// Batches row-at-a-time producers into atomic InsertRows() calls.
/// Insert() is copy-on-write per call — O(table) so that pinned reader
/// snapshots stay untouched — which makes row-wise bulk loading
/// quadratic; the loader buffers rows per table and ships each table's
/// batch once at Flush().  Row order per table is preserved.
class BulkLoader {
 public:
  explicit BulkLoader(TemporalDB* db) : db_(db) {}
  /// Buffers one row; validation happens at Flush() (InsertRows checks
  /// every arity before any row lands).
  [[nodiscard]] Status Insert(const std::string& table, Row row) {
    pending_[table].push_back(std::move(row));
    return Status::OK();
  }
  /// Ships every buffered batch; stops at the first failure.  Each
  /// batch is erased from the buffer as it is handed to InsertRows —
  /// whether it lands or fails — so a retrying Flush() never
  /// double-inserts an already-shipped table and never reports success
  /// for rows that were consumed by a failed batch.
  [[nodiscard]] Status Flush() {
    while (!pending_.empty()) {
      auto it = pending_.begin();
      std::vector<Row> rows = std::move(it->second);
      const std::string table = it->first;
      pending_.erase(it);
      Status status = db_->InsertRows(table, std::move(rows));
      if (!status.ok()) return status;
    }
    return Status::OK();
  }

 private:
  TemporalDB* db_;
  std::map<std::string, std::vector<Row>> pending_;
};

}  // namespace periodk

#endif  // PERIODK_MIDDLEWARE_TEMPORAL_DB_H_
