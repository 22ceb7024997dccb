// REWR (paper Fig. 4): reduces a query with snapshot semantics over
// N^T-relations to an ordinary multiset query over PERIODENC-encoded
// period relations.  The input plan is expressed over *snapshot*
// schemas (no temporal columns); the output plan is expressed over
// encoded relations whose last two columns are the interval endpoints.
//
// The rewriter implements three semantics:
//
//  * kPeriodK -- the paper's provably correct semantics: coalescing for
//    a unique encoding, split-based difference with bag semantics
//    (fixes the BD bug), aggregation with gap rows via the
//    union-with-neutral-tuple rule or the fused split+aggregate
//    operator (fixes the AG bug).
//  * kAlignment -- models the PG-Nat comparator [16, 18]: align
//    (split) then apply standard operators; *set*-semantics difference
//    (BD bug), no gap rows (AG bug), no coalescing (non-unique
//    encoding), no pre-aggregation.
//  * kIntervalPreservation -- models ATSQL [9]: like alignment for
//    RA+, difference as bag-preserving NOT EXISTS (BD bug), no gap rows
//    (AG bug), non-unique encoding.
//  * kTeradata -- models Teradata's statement modifiers [45, 2]: gap
//    rows *with* grouping but not without (the inverse of
//    snapshot-reducibility; still the AG bug), no snapshot difference
//    (N/A in the paper's Table 1), optional coalescing not applied
//    (non-unique encoding).
//
// Options toggle the Section 9 optimizations for the ablation study:
// coalesce hoisting (one final C instead of one per operator, justified
// by Lemma 6.1) and pre-aggregation inside split.
#ifndef PERIODK_REWRITE_REWRITER_H_
#define PERIODK_REWRITE_REWRITER_H_

#include <map>
#include <string>

#include "ra/plan.h"
#include "temporal/interval.h"

namespace periodk {

enum class SnapshotSemantics {
  kPeriodK,
  kAlignment,
  kIntervalPreservation,
  kTeradata,
};

const char* SnapshotSemanticsName(SnapshotSemantics semantics);

struct RewriteOptions {
  SnapshotSemantics semantics = SnapshotSemantics::kPeriodK;
  /// Apply coalescing once at the top instead of after every operator.
  bool hoist_coalesce = true;
  /// Use the fused split+aggregate operator instead of split followed by
  /// a standard aggregation.
  bool fuse_aggregation = true;
  /// Pre-aggregate per (group, begin, end) inside the fused operator.
  bool pre_aggregate = true;
  /// Apply the final coalesce that makes the output encoding unique.
  bool final_coalesce = true;
  CoalesceImpl coalesce_impl = CoalesceImpl::kNative;
  /// Plan a kPeriodK SEQ VT AS OF query by snapshot reducibility
  /// (BuildAsOfPlan): slice every period-table scan at t and run the
  /// plain query.  false puts tau_t at the root of the full REWR plan
  /// instead -- the plan the baseline semantics always get, kept as the
  /// in-process reference.  Plan-shaping: part of the middleware's
  /// plan-cache key.
  bool push_down_timeslice = true;
  /// Intra-query parallelism for execution (not a rewrite knob, but
  /// plumbed here so middleware callers configure one options struct):
  /// partitioned operators fan out to this many threads; 1 keeps
  /// execution sequential and bit-identical.  Does not change the
  /// produced plan, so it is excluded from the plan-cache key.
  int num_threads = 1;
  /// Serve timeslices from lazily built per-table timeline indexes
  /// (engine/timeline_index.h).  Like num_threads, an execution knob:
  /// it never changes the produced plan (and is excluded from the
  /// plan-cache key); false keeps the O(table) scan path bit for bit.
  bool use_timeline_index = true;
  /// Let the cost model (ra/cost_model.h) shape the plan: commutative
  /// join clusters are reordered by estimated cardinality before REWR
  /// and tiny overlap joins are marked for the nested loop.  Plan
  /// *shaping* — reordering changes row order — so this is part of the
  /// middleware's plan-cache key; false reproduces today's structural
  /// plans bit-identically.  (The executor's row-identical gates are
  /// the separate ExecOptions::use_cost_model.)
  bool use_cost_model = true;
};

class CostModel;

class SnapshotRewriter {
 public:
  /// `encoded_tables` maps a table name appearing in Scan nodes to the
  /// plan producing its encoding (used by the middleware when a period
  /// table stores its interval columns somewhere other than the last
  /// two positions).  Unmapped scans default to the table itself with
  /// (a_begin, a_end) appended.
  ///
  /// `cost_model`, when non-null and options.use_cost_model is set,
  /// drives a join-reorder pre-pass over the snapshot query (the
  /// caller keeps the model alive for the rewriter's lifetime; the
  /// middleware builds one per query over its pinned snapshot).
  SnapshotRewriter(TimeDomain domain, RewriteOptions options = {},
                   std::map<std::string, PlanPtr> encoded_tables = {},
                   const CostModel* cost_model = nullptr);

  /// Rewrites a snapshot query.  Result plan evaluates to the
  /// PERIODENC encoding of the query's N^T result (for kPeriodK; the
  /// baseline semantics yield their respective buggy encodings).
  PlanPtr Rewrite(const PlanPtr& query) const;

  const TimeDomain& domain() const { return domain_; }
  const RewriteOptions& options() const { return options_; }

 private:
  PlanPtr RewriteNode(const PlanPtr& q) const;
  PlanPtr MaybeCoalesce(PlanPtr p) const;
  PlanPtr RewriteScan(const PlanPtr& q) const;
  PlanPtr RewriteConstant(const PlanPtr& q) const;
  PlanPtr RewriteJoin(const PlanPtr& q) const;
  PlanPtr RewriteDifference(const PlanPtr& q) const;
  PlanPtr RewriteAggregate(const PlanPtr& q) const;
  PlanPtr RewriteDistinct(const PlanPtr& q) const;

  TimeDomain domain_;
  RewriteOptions options_;
  std::map<std::string, PlanPtr> encoded_tables_;
  const CostModel* cost_model_ = nullptr;
};

/// SEQ VT AS OF t by snapshot reducibility (paper Thm 6.3,
/// tau_t(REWR(Q)(D)) = Q(tau_t(D))): `query` is the plain query over
/// snapshot schemas (the binder's plan), and every kScan in it becomes
/// a timeslice at t of the stored table, read at the table's stored
/// endpoint positions so the executor can answer it from the timeline
/// index.  `encoded_tables` is the rewriter's map (table -> PERIODENC
/// plan); an unmapped scan reads its table with trailing endpoints.
/// Each slice keeps the snapshot scan's schema, so every other node is
/// reused as is: the result runs with plain multiset operators -- no
/// split, split-aggregate or coalesce.  Only valid for kPeriodK; the
/// baseline semantics are not snapshot-reducible (their Table 1 bugs).
/// Throws EngineError on operators REWR does not support either.
PlanPtr BuildAsOfPlan(const PlanPtr& query, TimePoint t,
                      const std::map<std::string, PlanPtr>& encoded_tables);

/// Pushes a top-level kTimeslice (the plan shape of SEQ VT AS OF t)
/// toward the leaves, one legal step at a time:
///
///   * tau_t(C(X))       = tau_t(X)            -- coalescing preserves
///     every snapshot (Def 8.2: C re-encodes the same N^T-relation, and
///     equivalent encodings have equal timeslices), so the coalesce is
///     dead work under a timeslice;
///   * tau_t(sigma_p(X)) = sigma_p(tau_t(X))   when p ignores the
///     endpoint columns (TimesliceCommutesWithSelect);
///   * tau_t(pi_E(X))    = pi_E'(tau_t(X))     when E passes the
///     endpoints through untouched (TimesliceCommutesWithProject); E'
///     is E without its two endpoint expressions.
///
/// Stops at the first non-commuting node.  The result is bag-equal to
/// the input plan (row order may differ when a coalesce is elided) and
/// has the same output schema.  Plans whose root is not kTimeslice are
/// returned unchanged.
///
/// The middleware no longer calls it (AS OF plans come from
/// BuildAsOfPlan).  It stays for the repository benchmark's trace
/// replay, which still times it as its `rewrite.pushdown` layer;
/// deleting it, with PushTimesliceInto / DropShift here and
/// TimesliceCommutesWith* in ra/plan.h, waits for a benchmark-only
/// change that drops that replay.
PlanPtr PushDownTimeslice(const PlanPtr& plan);

}  // namespace periodk

#endif  // PERIODK_REWRITE_REWRITER_H_
