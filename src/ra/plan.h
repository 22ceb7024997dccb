// Logical relational algebra plans.  REWR (paper Fig. 4) is a
// plan-to-plan transformation; the engine executor interprets plans over
// a catalog of materialized relations, and the annotated-model
// evaluators interpret the same plans over K-relations.
//
// Temporal-encoding invariant: every relation that encodes an
// N^T-relation (PERIODENC, Def 8.1) carries its interval endpoints in
// the *last two* columns (a_begin, a_end).
#ifndef PERIODK_RA_PLAN_H_
#define PERIODK_RA_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/agg.h"
#include "engine/expr.h"
#include "engine/relation.h"
#include "engine/schema.h"
#include "ra/join_analysis.h"
#include "temporal/interval.h"

namespace periodk {

enum class PlanKind {
  kScan,
  kConstant,
  kSelect,
  kProject,
  kJoin,
  kUnionAll,
  kExceptAll,
  kAggregate,
  kDistinct,
  kSort,
  // Exact-row anti join: left rows with no equal row in the right input
  // (used by the buggy NOT EXISTS difference of the baselines).
  kAntiJoin,
  // Temporal operators over PERIODENC-encoded relations:
  kCoalesce,        // multiset coalescing C (paper Def 8.2)
  kSplit,           // split operator N_G (paper Def 8.3)
  kSplitAggregate,  // split fused with (pre-)aggregation (paper Sec. 9)
  kTimeslice,       // tau_T: snapshot extraction
};

const char* PlanKindName(PlanKind kind);

/// Which implementation the coalesce operator uses (paper Sec. 10.2
/// compares the SQL/analytic-window implementation across DBMSs; the
/// native sweep is the "inside the kernel" implementation the paper
/// proposes as future work).
enum class CoalesceImpl { kNative, kWindow };

/// Physical-join hint for kJoin nodes.  kAuto leaves the choice to the
/// executor's structural dispatch (sweep for overlap joins, hash for
/// equi-keys, nested loop otherwise).  kNestedLoop forces the nested
/// loop — the cost model (ra/cost_model.h) marks joins whose estimated
/// input product is tiny, where sweep/hash setup costs more than the
/// quadratic scan.  The hint is part of the plan (rendered by
/// ToString) because the sweep's output *order* differs from the
/// nested loop's, so the substitution must be a visible plan property,
/// never a silent execution-time swap.
enum class JoinStrategy { kAuto, kNestedLoop };

/// One aggregate expression: func(arg) named `name`; arg is null for
/// count(*).
struct AggExpr {
  AggFunc func = AggFunc::kCountStar;
  ExprPtr arg;
  std::string name;
};

struct SortKey {
  int column = 0;
  bool ascending = true;
};

class Plan;
using PlanPtr = std::shared_ptr<const Plan>;

class Plan {
 public:
  PlanKind kind = PlanKind::kScan;
  Schema schema;  // output schema
  PlanPtr left;
  PlanPtr right;

  std::string table;                         // kScan
  std::shared_ptr<const Relation> constant;  // kConstant
  ExprPtr predicate;                         // kSelect, kJoin
  // kJoin: structural decomposition of `predicate` computed once by
  // MakeJoin (equi-keys, interval-overlap conjunct, residual); the
  // executor picks the physical join from this instead of re-deriving
  // the predicate shape per execution.
  JoinAnalysis join;
  // kJoin: cost-model hint overriding the structural dispatch above.
  JoinStrategy join_strategy = JoinStrategy::kAuto;
  std::vector<ExprPtr> exprs;                // kProject / kAggregate groups
  std::vector<AggExpr> aggs;                 // kAggregate, kSplitAggregate
  std::vector<int> split_group;    // kSplit / kSplitAggregate: group cols
  std::vector<SortKey> sort_keys;  // kSort
  TimePoint slice_time = 0;        // kTimeslice
  // kTimeslice: which child columns hold the interval endpoints; -1
  // means the trailing-two PERIODENC default.  Non-default positions
  // arise when the pushdown crosses the encoded-table projection of a
  // period table that stores its interval columns elsewhere.
  int slice_begin_col = -1;
  int slice_end_col = -1;
  CoalesceImpl coalesce_impl = CoalesceImpl::kNative;  // kCoalesce
  // kSplitAggregate without groups emits rows for *every* elementary
  // segment of the domain, including gaps (count = 0 / sum = NULL);
  // this implements the union-with-neutral-tuple trick of REWR's
  // aggregation rule (Fig. 4) in fused form.
  bool gap_rows = false;
  TimeDomain domain;  // kSplitAggregate with gap_rows
  // kSplitAggregate: pre-aggregate per (group, begin, end) before the
  // endpoint sweep (paper Sec. 9 optimization); false = ablation mode.
  bool pre_aggregate = true;

  /// Pretty rendering for debugging / EXPLAIN.  Plans are DAGs (the
  /// rewriter shares subplans); nodes with several parents are printed
  /// once, tagged `[shared #n]`, and referenced on later visits.
  std::string ToString(int indent = 0) const;

  /// Per-node suffix appended to a node's line by the annotated
  /// ToString overload (e.g. ExplainAnalyze's "est=... actual=...").
  /// Must be deterministic for a given plan — the rendering order is
  /// the tree walk, so annotator output is the only way nondeterminism
  /// could leak into EXPLAIN text.
  using Annotator = std::function<std::string(const Plan&)>;

  /// ToString with a per-node annotation suffix.
  std::string ToString(int indent, const Annotator& annotate) const;

 private:
  std::string NodeLine() const;
  void AppendTo(int indent, const std::unordered_map<const Plan*, int>& refs,
                std::unordered_map<const Plan*, int>& ids,
                const Annotator& annotate, std::string& out) const;
};

/// Free-function alias; consumers (middleware ExplainAnalyze) name the
/// callback type without spelling the nested name.
using PlanAnnotator = Plan::Annotator;

// --- Builders (compute output schemas, validate arities). ------------------

PlanPtr MakeScan(std::string table, Schema schema);
// periodk-lint: allow(relation-by-value): ownership sink, callers move
PlanPtr MakeConstant(Relation relation);
PlanPtr MakeSelect(PlanPtr child, ExprPtr predicate);
/// Output column i is exprs[i] named columns[i].
PlanPtr MakeProject(PlanPtr child, std::vector<ExprPtr> exprs,
                    std::vector<Column> columns);
/// Convenience: project onto existing columns by index.
PlanPtr MakeProjectColumns(PlanPtr child, const std::vector<int>& columns);
PlanPtr MakeJoin(PlanPtr left, PlanPtr right, ExprPtr predicate);
PlanPtr MakeUnionAll(PlanPtr left, PlanPtr right);
PlanPtr MakeExceptAll(PlanPtr left, PlanPtr right);
PlanPtr MakeAntiJoin(PlanPtr left, PlanPtr right);
/// Output schema: group columns (named after group_names) then one
/// column per aggregate.
PlanPtr MakeAggregate(PlanPtr child, std::vector<ExprPtr> group_exprs,
                      std::vector<Column> group_names,
                      std::vector<AggExpr> aggs);
PlanPtr MakeDistinct(PlanPtr child);
PlanPtr MakeSort(PlanPtr child, std::vector<SortKey> keys);
PlanPtr MakeCoalesce(PlanPtr child, CoalesceImpl impl = CoalesceImpl::kNative);
/// N_G(left, right): splits left's intervals at the endpoints of
/// group-mates in left UNION right; schema = left's schema.
PlanPtr MakeSplit(PlanPtr left, PlanPtr right, std::vector<int> group_cols);
/// Fused split + aggregation; output (group cols..., aggs..., begin, end).
PlanPtr MakeSplitAggregate(PlanPtr child, std::vector<int> group_cols,
                           std::vector<AggExpr> aggs, bool gap_rows,
                           TimeDomain domain, bool pre_aggregate = true);
PlanPtr MakeTimeslice(PlanPtr child, TimePoint t);
/// Timeslice over explicit endpoint columns: keeps rows with
/// child[begin_col] <= t < child[end_col] and drops those two columns
/// (remaining columns keep their relative order).  Trailing positions
/// normalize to the plain MakeTimeslice shape.
PlanPtr MakeTimesliceAt(PlanPtr child, TimePoint t, int begin_col,
                        int end_col);

/// Endpoint columns a kTimeslice node slices on, with the -1 defaults
/// resolved against the child's arity.
std::pair<int, int> ResolveSliceColumns(const Plan& timeslice);

/// True if the plan subtree contains a node of the given kind.
bool ContainsKind(const PlanPtr& plan, PlanKind kind);

/// Number of nodes of the given kind in the subtree.
int CountKind(const PlanPtr& plan, PlanKind kind);

/// Deduplicated names of every base table the plan scans (kScan
/// nodes), in first-visit order.  DAG-aware: shared subplans are
/// visited once.  The middleware records this set per cached plan so a
/// mutation of table T evicts only the plans that read T.
std::vector<std::string> CollectScanTables(const PlanPtr& plan);

/// Every kTimeslice directly over a kScan, in first-visit order
/// (DAG-aware): the slices the executor can answer from the table's
/// timeline index.  The middleware records them once per AS-OF plan.
std::vector<const Plan*> CollectSlicedScans(const PlanPtr& plan);

// --- Timeslice pushdown legality (consumed by PushDownTimeslice in
// rewrite/rewriter.h).  Both judge a single parent/child edge of an
// encoded plan, whose trailing two columns are the interval endpoints. -------

/// True iff tau_t commutes with this kSelect node: its predicate
/// references only the non-temporal prefix of its input (no column at
/// or above input arity - 2), so filtering before or after slicing
/// keeps the exact same rows.
bool TimesliceCommutesWithSelect(const Plan& select);

/// Generalized form: the slice reads endpoint columns (begin_col,
/// end_col) of the select's schema; commutes iff the predicate never
/// references either.
bool TimesliceCommutesWithSelect(const Plan& select, int begin_col,
                                 int end_col);

/// True iff tau_t commutes with this kProject node: its last two
/// expressions are plain references to the child's trailing endpoint
/// columns (the REWR projection shape that passes intervals through)
/// and no other expression reads an endpoint column.  Pushing tau below
/// then simply drops those two expressions.
bool TimesliceCommutesWithProject(const Plan& project);

/// Generalized form for a slice over output columns (begin_col,
/// end_col): commutes iff those two expressions are plain column
/// references into the child (to distinct columns) and no other
/// expression reads either referenced child column.  On success,
/// *child_begin_col / *child_end_col receive the child columns the
/// pushed-down slice must read — the positions of the period table's
/// stored interval columns, trailing or not.
bool TimesliceCommutesWithProject(const Plan& project, int begin_col,
                                  int end_col, int* child_begin_col,
                                  int* child_end_col);

}  // namespace periodk

#endif  // PERIODK_RA_PLAN_H_
