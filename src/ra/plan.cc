#include "ra/plan.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/status.h"
#include "common/str_util.h"

namespace periodk {

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScan:
      return "Scan";
    case PlanKind::kConstant:
      return "Constant";
    case PlanKind::kSelect:
      return "Select";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kJoin:
      return "Join";
    case PlanKind::kUnionAll:
      return "UnionAll";
    case PlanKind::kExceptAll:
      return "ExceptAll";
    case PlanKind::kAggregate:
      return "Aggregate";
    case PlanKind::kAntiJoin:
      return "AntiJoin";
    case PlanKind::kDistinct:
      return "Distinct";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kCoalesce:
      return "Coalesce";
    case PlanKind::kSplit:
      return "Split";
    case PlanKind::kSplitAggregate:
      return "SplitAggregate";
    case PlanKind::kTimeslice:
      return "Timeslice";
  }
  return "?";
}

namespace {

std::shared_ptr<Plan> NewPlan(PlanKind kind) {
  auto p = std::make_shared<Plan>();
  p->kind = kind;
  return p;
}

void RequireSameArity(const PlanPtr& l, const PlanPtr& r, const char* op) {
  if (l->schema.size() != r->schema.size()) {
    throw EngineError(StrCat(op, " requires union-compatible inputs, got ",
                             l->schema.size(), " vs ", r->schema.size(),
                             " columns"));
  }
}

/// How often each node is referenced in the DAG; children are counted
/// once per unique parent (matching the executor's consumer counting).
void CountRefs(const Plan* plan,
               std::unordered_map<const Plan*, int>& refs) {
  if (plan == nullptr) return;
  if (++refs[plan] > 1) return;
  CountRefs(plan->left.get(), refs);
  CountRefs(plan->right.get(), refs);
}

}  // namespace

/// One-line description of this node (no padding, newline or children).
std::string Plan::NodeLine() const {
  std::string out = PlanKindName(kind);
  switch (kind) {
    case PlanKind::kScan:
      out += StrCat(" ", table, " ", schema.ToString());
      break;
    case PlanKind::kConstant:
      out += StrCat(" (", constant->size(), " rows) ", schema.ToString());
      break;
    case PlanKind::kSelect:
      out += StrCat(" [", predicate->ToString(), "]");
      break;
    case PlanKind::kJoin:
      out += StrCat(" [", predicate->ToString(), "]");
      if (join_strategy == JoinStrategy::kNestedLoop) {
        // Cost-model hint: the tiny-input nested loop replaces whatever
        // the structural dispatch would pick (visible because the sweep
        // and the nested loop emit rows in different orders).
        out += " (nested loop: tiny inputs)";
      } else if (join.overlap.has_value()) {
        out += join.equi_keys.empty() ? " (interval sweep)"
                                      : " (partitioned interval sweep)";
      } else if (!join.equi_keys.empty()) {
        out += " (hash)";
      }
      break;
    case PlanKind::kProject:
      out += StrCat(
          " [",
          JoinMapped(exprs, ", ",
                     [](const ExprPtr& e) { return e->ToString(); }),
          "] -> ", schema.ToString());
      break;
    case PlanKind::kAggregate:
    case PlanKind::kSplitAggregate:
      out += StrCat(
          " groups=[",
          kind == PlanKind::kAggregate
              ? JoinMapped(exprs, ", ",
                           [](const ExprPtr& e) { return e->ToString(); })
              : JoinMapped(split_group, ", ",
                           [](int c) { return StrCat("#", c); }),
          "] aggs=[",
          JoinMapped(aggs, ", ",
                     [](const AggExpr& a) {
                       return StrCat(AggFuncName(a.func), "(",
                                     a.arg ? a.arg->ToString() : "*", ")");
                     }),
          "]");
      if (kind == PlanKind::kSplitAggregate && gap_rows) out += " +gaps";
      break;
    case PlanKind::kSplit:
      out += StrCat(" on=[",
                    JoinMapped(split_group, ", ",
                               [](int c) { return StrCat("#", c); }),
                    "]");
      break;
    case PlanKind::kCoalesce:
      out += coalesce_impl == CoalesceImpl::kNative ? " (native)" : " (window)";
      break;
    case PlanKind::kTimeslice:
      out += StrCat(" @", slice_time);
      if (slice_begin_col >= 0) {
        out += StrCat(" cols=(#", slice_begin_col, ", #", slice_end_col, ")");
      }
      break;
    default:
      break;
  }
  return out;
}

void Plan::AppendTo(int indent,
                    const std::unordered_map<const Plan*, int>& refs,
                    std::unordered_map<const Plan*, int>& ids,
                    const Annotator& annotate, std::string& out) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  const std::string suffix = annotate == nullptr ? "" : annotate(*this);
  if (refs.at(this) > 1) {
    // Shared node: the first visit prints the full subtree tagged with a
    // DAG id; later visits print only a back reference, so EXPLAIN shows
    // the plan's real shape instead of silently expanding it to a tree.
    auto [it, inserted] =
        ids.try_emplace(this, static_cast<int>(ids.size()) + 1);
    if (!inserted) {
      out += StrCat(pad, PlanKindName(kind), " [shared #", it->second,
                    ", see above]\n");
      return;
    }
    out += StrCat(pad, NodeLine(), " [shared #", it->second, "]", suffix,
                  "\n");
  } else {
    out += StrCat(pad, NodeLine(), suffix, "\n");
  }
  if (left != nullptr) left->AppendTo(indent + 1, refs, ids, annotate, out);
  if (right != nullptr) right->AppendTo(indent + 1, refs, ids, annotate, out);
}

std::string Plan::ToString(int indent) const {
  return ToString(indent, Annotator());
}

std::string Plan::ToString(int indent, const Annotator& annotate) const {
  std::unordered_map<const Plan*, int> refs;
  CountRefs(this, refs);
  std::unordered_map<const Plan*, int> ids;
  std::string out;
  AppendTo(indent, refs, ids, annotate, out);
  return out;
}

PlanPtr MakeScan(std::string table, Schema schema) {
  auto p = NewPlan(PlanKind::kScan);
  p->table = std::move(table);
  p->schema = std::move(schema);
  return p;
}

// periodk-lint: allow(relation-by-value): ownership sink, callers move
PlanPtr MakeConstant(Relation relation) {
  auto p = NewPlan(PlanKind::kConstant);
  p->schema = relation.schema();
  p->constant = std::make_shared<const Relation>(std::move(relation));
  return p;
}

PlanPtr MakeSelect(PlanPtr child, ExprPtr predicate) {
  auto p = NewPlan(PlanKind::kSelect);
  p->schema = child->schema;
  p->left = std::move(child);
  p->predicate = std::move(predicate);
  return p;
}

PlanPtr MakeProject(PlanPtr child, std::vector<ExprPtr> exprs,
                    std::vector<Column> columns) {
  if (exprs.size() != columns.size()) {
    throw EngineError("Project: expression/name count mismatch");
  }
  auto p = NewPlan(PlanKind::kProject);
  p->schema = Schema(std::move(columns));
  p->left = std::move(child);
  p->exprs = std::move(exprs);
  return p;
}

PlanPtr MakeProjectColumns(PlanPtr child, const std::vector<int>& columns) {
  std::vector<ExprPtr> exprs;
  std::vector<Column> names;
  for (int c : columns) {
    exprs.push_back(Col(c, child->schema.at(static_cast<size_t>(c)).name));
    names.push_back(child->schema.at(static_cast<size_t>(c)));
  }
  return MakeProject(std::move(child), std::move(exprs), std::move(names));
}

PlanPtr MakeJoin(PlanPtr left, PlanPtr right, ExprPtr predicate) {
  auto p = NewPlan(PlanKind::kJoin);
  p->schema = Schema::Concat(left->schema, right->schema);
  p->left = std::move(left);
  p->right = std::move(right);
  p->predicate = std::move(predicate);
  p->join = AnalyzeJoinPredicate(p->predicate, p->left->schema.size());
  return p;
}

PlanPtr MakeUnionAll(PlanPtr left, PlanPtr right) {
  RequireSameArity(left, right, "UnionAll");
  auto p = NewPlan(PlanKind::kUnionAll);
  p->schema = left->schema;
  p->left = std::move(left);
  p->right = std::move(right);
  return p;
}

PlanPtr MakeExceptAll(PlanPtr left, PlanPtr right) {
  RequireSameArity(left, right, "ExceptAll");
  auto p = NewPlan(PlanKind::kExceptAll);
  p->schema = left->schema;
  p->left = std::move(left);
  p->right = std::move(right);
  return p;
}

PlanPtr MakeAntiJoin(PlanPtr left, PlanPtr right) {
  RequireSameArity(left, right, "AntiJoin");
  auto p = NewPlan(PlanKind::kAntiJoin);
  p->schema = left->schema;
  p->left = std::move(left);
  p->right = std::move(right);
  return p;
}

PlanPtr MakeAggregate(PlanPtr child, std::vector<ExprPtr> group_exprs,
                      std::vector<Column> group_names,
                      std::vector<AggExpr> aggs) {
  if (group_exprs.size() != group_names.size()) {
    throw EngineError("Aggregate: group expression/name count mismatch");
  }
  auto p = NewPlan(PlanKind::kAggregate);
  Schema schema(std::move(group_names));
  for (const AggExpr& a : aggs) schema.Append(Column(a.name));
  p->schema = std::move(schema);
  p->left = std::move(child);
  p->exprs = std::move(group_exprs);
  p->aggs = std::move(aggs);
  return p;
}

PlanPtr MakeDistinct(PlanPtr child) {
  auto p = NewPlan(PlanKind::kDistinct);
  p->schema = child->schema;
  p->left = std::move(child);
  return p;
}

PlanPtr MakeSort(PlanPtr child, std::vector<SortKey> keys) {
  auto p = NewPlan(PlanKind::kSort);
  p->schema = child->schema;
  p->left = std::move(child);
  p->sort_keys = std::move(keys);
  return p;
}

PlanPtr MakeCoalesce(PlanPtr child, CoalesceImpl impl) {
  if (child->schema.size() < 2) {
    throw EngineError("Coalesce requires a period-encoded input");
  }
  auto p = NewPlan(PlanKind::kCoalesce);
  p->schema = child->schema;
  p->left = std::move(child);
  p->coalesce_impl = impl;
  return p;
}

PlanPtr MakeSplit(PlanPtr left, PlanPtr right, std::vector<int> group_cols) {
  RequireSameArity(left, right, "Split");
  if (left->schema.size() < 2) {
    throw EngineError("Split requires period-encoded inputs");
  }
  auto p = NewPlan(PlanKind::kSplit);
  p->schema = left->schema;
  p->left = std::move(left);
  p->right = std::move(right);
  p->split_group = std::move(group_cols);
  return p;
}

PlanPtr MakeSplitAggregate(PlanPtr child, std::vector<int> group_cols,
                           std::vector<AggExpr> aggs, bool gap_rows,
                           TimeDomain domain, bool pre_aggregate) {
  auto p = NewPlan(PlanKind::kSplitAggregate);
  Schema schema;
  for (int c : group_cols) {
    schema.Append(child->schema.at(static_cast<size_t>(c)));
  }
  for (const AggExpr& a : aggs) schema.Append(Column(a.name));
  schema.Append(Column("a_begin"));
  schema.Append(Column("a_end"));
  p->schema = std::move(schema);
  p->left = std::move(child);
  p->split_group = std::move(group_cols);
  p->aggs = std::move(aggs);
  p->gap_rows = gap_rows;
  p->domain = domain;
  p->pre_aggregate = pre_aggregate;
  return p;
}

PlanPtr MakeTimeslice(PlanPtr child, TimePoint t) {
  if (child->schema.size() < 2) {
    throw EngineError("Timeslice requires a period-encoded input");
  }
  auto p = NewPlan(PlanKind::kTimeslice);
  p->schema = child->schema.Prefix(child->schema.size() - 2);
  p->left = std::move(child);
  p->slice_time = t;
  return p;
}

PlanPtr MakeTimesliceAt(PlanPtr child, TimePoint t, int begin_col,
                        int end_col) {
  int arity = static_cast<int>(child->schema.size());
  if (arity < 2 || begin_col < 0 || end_col < 0 || begin_col >= arity ||
      end_col >= arity || begin_col == end_col) {
    throw EngineError(StrCat("TimesliceAt: bad endpoint columns (", begin_col,
                             ", ", end_col, ") for arity ", arity));
  }
  if (begin_col == arity - 2 && end_col == arity - 1) {
    return MakeTimeslice(std::move(child), t);
  }
  auto p = NewPlan(PlanKind::kTimeslice);
  Schema schema;
  for (int c = 0; c < arity; ++c) {
    if (c == begin_col || c == end_col) continue;
    schema.Append(child->schema.at(static_cast<size_t>(c)));
  }
  p->schema = std::move(schema);
  p->left = std::move(child);
  p->slice_time = t;
  p->slice_begin_col = begin_col;
  p->slice_end_col = end_col;
  return p;
}

std::pair<int, int> ResolveSliceColumns(const Plan& timeslice) {
  int arity = static_cast<int>(timeslice.left->schema.size());
  int b = timeslice.slice_begin_col >= 0 ? timeslice.slice_begin_col
                                         : arity - 2;
  int e = timeslice.slice_end_col >= 0 ? timeslice.slice_end_col : arity - 1;
  return {b, e};
}

bool ContainsKind(const PlanPtr& plan, PlanKind kind) {
  if (plan == nullptr) return false;
  if (plan->kind == kind) return true;
  return ContainsKind(plan->left, kind) || ContainsKind(plan->right, kind);
}

int CountKind(const PlanPtr& plan, PlanKind kind) {
  if (plan == nullptr) return 0;
  return (plan->kind == kind ? 1 : 0) + CountKind(plan->left, kind) +
         CountKind(plan->right, kind);
}

namespace {

void CollectScanTablesImpl(const Plan* node,
                           std::unordered_set<const Plan*>* visited,
                           std::vector<std::string>* out) {
  if (node == nullptr || !visited->insert(node).second) return;
  if (node->kind == PlanKind::kScan &&
      std::find(out->begin(), out->end(), node->table) == out->end()) {
    out->push_back(node->table);
  }
  CollectScanTablesImpl(node->left.get(), visited, out);
  CollectScanTablesImpl(node->right.get(), visited, out);
}

}  // namespace

std::vector<std::string> CollectScanTables(const PlanPtr& plan) {
  std::vector<std::string> out;
  std::unordered_set<const Plan*> visited;
  CollectScanTablesImpl(plan.get(), &visited, &out);
  return out;
}

namespace {

void CollectSlicedScansImpl(const Plan* node,
                            std::unordered_set<const Plan*>* visited,
                            std::vector<const Plan*>* out) {
  if (node == nullptr || !visited->insert(node).second) return;
  if (node->kind == PlanKind::kTimeslice &&
      node->left->kind == PlanKind::kScan) {
    out->push_back(node);
  }
  CollectSlicedScansImpl(node->left.get(), visited, out);
  CollectSlicedScansImpl(node->right.get(), visited, out);
}

}  // namespace

std::vector<const Plan*> CollectSlicedScans(const PlanPtr& plan) {
  std::vector<const Plan*> out;
  std::unordered_set<const Plan*> visited;
  CollectSlicedScansImpl(plan.get(), &visited, &out);
  return out;
}

namespace {

/// True iff every column `expr` references lies below `limit`.
bool ReferencesOnlyBelow(const ExprPtr& expr, int limit) {
  if (expr == nullptr) return true;
  std::vector<int> cols;
  CollectColumns(expr, &cols);
  for (int c : cols) {
    if (c >= limit) return false;
  }
  return true;
}

/// True iff `expr` references neither column a nor column b.
bool AvoidsColumns(const ExprPtr& expr, int a, int b) {
  if (expr == nullptr) return true;
  std::vector<int> cols;
  CollectColumns(expr, &cols);
  for (int c : cols) {
    if (c == a || c == b) return false;
  }
  return true;
}

}  // namespace

bool TimesliceCommutesWithSelect(const Plan& select) {
  if (select.kind != PlanKind::kSelect || select.left == nullptr) return false;
  int arity = static_cast<int>(select.left->schema.size());
  if (arity < 2) return false;
  return ReferencesOnlyBelow(select.predicate, arity - 2);
}

bool TimesliceCommutesWithSelect(const Plan& select, int begin_col,
                                 int end_col) {
  if (select.kind != PlanKind::kSelect || select.left == nullptr) return false;
  return AvoidsColumns(select.predicate, begin_col, end_col);
}

bool TimesliceCommutesWithProject(const Plan& project) {
  if (project.kind != PlanKind::kProject || project.left == nullptr) {
    return false;
  }
  int arity = static_cast<int>(project.left->schema.size());
  if (arity < 2 || project.exprs.size() < 2) return false;
  const ExprPtr& b = project.exprs[project.exprs.size() - 2];
  const ExprPtr& e = project.exprs[project.exprs.size() - 1];
  if (b->kind != ExprKind::kColumn || b->column != arity - 2) return false;
  if (e->kind != ExprKind::kColumn || e->column != arity - 1) return false;
  for (size_t i = 0; i + 2 < project.exprs.size(); ++i) {
    if (!ReferencesOnlyBelow(project.exprs[i], arity - 2)) return false;
  }
  return true;
}

bool TimesliceCommutesWithProject(const Plan& project, int begin_col,
                                  int end_col, int* child_begin_col,
                                  int* child_end_col) {
  if (project.kind != PlanKind::kProject || project.left == nullptr) {
    return false;
  }
  int out_arity = static_cast<int>(project.exprs.size());
  if (begin_col < 0 || end_col < 0 || begin_col >= out_arity ||
      end_col >= out_arity || begin_col == end_col) {
    return false;
  }
  const ExprPtr& b = project.exprs[static_cast<size_t>(begin_col)];
  const ExprPtr& e = project.exprs[static_cast<size_t>(end_col)];
  if (b->kind != ExprKind::kColumn || e->kind != ExprKind::kColumn ||
      b->column == e->column) {
    return false;
  }
  // The slice below drops the referenced child columns, so every other
  // output expression must survive without them.
  for (int i = 0; i < out_arity; ++i) {
    if (i == begin_col || i == end_col) continue;
    if (!AvoidsColumns(project.exprs[static_cast<size_t>(i)], b->column,
                       e->column)) {
      return false;
    }
  }
  *child_begin_col = b->column;
  *child_end_col = e->column;
  return true;
}

}  // namespace periodk
