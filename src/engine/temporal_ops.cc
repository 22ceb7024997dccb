#include "engine/temporal_ops.h"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>
#include <unordered_map>

#include "common/status.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "engine/window.h"

namespace periodk {

namespace {

TimePoint TimeOf(const Value& v) {
  if (v.type() != ValueType::kInt) {
    throw EngineError("temporal column must hold integer time points, got " +
                      v.ToString());
  }
  return v.AsInt();
}

size_t NonTemporalArity(const Relation& r, const char* op) {
  if (r.schema().size() < 2) {
    throw EngineError(std::string(op) + " requires a period-encoded input");
  }
  return r.schema().size() - 2;
}

/// Decodes the trailing interval of an encoded row.  Returns false for
/// an empty validity interval (begin >= end: annotation 0 everywhere);
/// throws on non-integer endpoints.  The row-at-a-time operators
/// (CoalesceWindow, SplitRelation) decode through here; the columnar
/// kernels read EndpointArrays, which throws the same error, and drop
/// the same rows (NonEmptyRows), so the two coalesce implementations
/// cannot diverge on degenerate rows.
bool DecodeRowInterval(const Row& row, size_t nattr, TimePoint* b,
                       TimePoint* e) {
  *b = TimeOf(row[nattr]);
  *e = TimeOf(row[nattr + 1]);
  return *b < *e;
}

using Intervals = std::vector<std::pair<TimePoint, TimePoint>>;

// One coalesced maximal segment [begin, end) carrying `count`
// duplicates.
struct CoalescedSegment {
  TimePoint begin = 0;
  TimePoint end = 0;
  int64_t count = 0;
};

// Endpoint sweep over one group's intervals: ±1 events, segments
// between annotation changepoints.
void SweepIntervalsToSegments(const Intervals& intervals,
                              std::vector<std::pair<TimePoint, int64_t>>& events,
                              std::vector<CoalescedSegment>& out) {
  events.clear();
  events.reserve(intervals.size() * 2);
  for (const auto& [b, e] : intervals) {
    events.emplace_back(b, 1);
    events.emplace_back(e, -1);
  }
  std::sort(events.begin(), events.end());
  int64_t count = 0;
  TimePoint seg_start = 0;
  size_t i = 0;
  while (i < events.size()) {
    TimePoint t = events[i].first;
    int64_t delta = 0;
    while (i < events.size() && events[i].first == t) {
      delta += events[i].second;
      ++i;
    }
    int64_t next = count + delta;
    if (next == count) continue;  // not an annotation changepoint
    if (count > 0) out.push_back({seg_start, t, count});
    seg_start = t;
    count = next;
  }
}

// Raw begin/end arrays of two endpoint columns.  A non-int or NULL
// endpoint throws TimeOf's error for the first such cell in row order,
// begin before end within a row -- exactly what decoding row by row
// throws.
std::pair<const int64_t*, const int64_t*> EndpointArrays(const ColumnData& b,
                                                         const ColumnData& e) {
  auto pure_int = [](const ColumnData& c) {
    return c.tag() == ColumnTag::kInt && !c.has_nulls();
  };
  if (!pure_int(b) || !pure_int(e)) {
    for (size_t i = 0; i < b.size(); ++i) {
      TimeOf(b.Get(i));
      TimeOf(e.Get(i));
    }
  }
  return {b.ints(), e.ints()};
}

// Rows with a non-empty validity interval; the others carry annotation
// 0 everywhere.
std::vector<uint32_t> NonEmptyRows(const int64_t* bs, const int64_t* es,
                                   size_t n) {
  std::vector<uint32_t> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (bs[i] < es[i]) rows.push_back(static_cast<uint32_t>(i));
  }
  return rows;
}

}  // namespace

// Groups by the attribute prefix (packed keys over typed columns, first
// appearance order), sweeps each group's endpoints and gathers the
// output straight from the columns: dictionary codes are copied and
// dictionaries shared.
// periodk-lint: columnar-lane-begin(coalesce)
Relation CoalesceNative(const Relation& input, const OpContext& ctx) {
  size_t nattr = NonTemporalArity(input, "Coalesce");
  KernelColumns in(input);
  auto [bs, es] = EndpointArrays(in.Column(nattr), in.Column(nattr + 1));
  std::vector<uint32_t> live = NonEmptyRows(bs, es, input.size());
  std::vector<const ColumnData*> keys;
  keys.reserve(nattr);
  for (size_t c = 0; c < nattr; ++c) keys.push_back(&in.Column(c));
  RowGroups groups = GroupRows(keys, live);
  size_t ngroups = groups.reps.size();
  std::vector<Intervals> intervals(ngroups);
  for (size_t k = 0; k < live.size(); ++k) {
    intervals[groups.ids[k]].emplace_back(bs[live[k]], es[live[k]]);
  }

  // The per-group sweeps are independent: chunks of groups fan out to
  // the pool, each into its own segment slots.
  std::vector<std::vector<CoalescedSegment>> segments(ngroups);
  auto ranges = PlanChunks(ctx.num_threads(static_cast<int64_t>(input.size())),
                           static_cast<int64_t>(ngroups),
                           /*min_grain=*/1);
  if (ranges.size() <= 1) {
    std::vector<std::pair<TimePoint, int64_t>> events;
    for (size_t gi = 0; gi < ngroups; ++gi) {
      SweepIntervalsToSegments(intervals[gi], events, segments[gi]);
    }
  } else {
    std::vector<ExecStats> chunk_stats(ranges.size());
    RunChunks(ctx.pool->get(), ranges, [&](size_t c, int64_t b, int64_t e) {
      std::vector<std::pair<TimePoint, int64_t>> events;
      for (int64_t gi = b; gi < e; ++gi) {
        SweepIntervalsToSegments(intervals[static_cast<size_t>(gi)], events,
                                 segments[static_cast<size_t>(gi)]);
      }
      chunk_stats[c].parallel_tasks = 1;
    });
    if (ctx.stats != nullptr) {
      for (const ExecStats& s : chunk_stats) ctx.stats->Merge(s);
    }
  }

  // Emission in group order, `count` copies of each segment.
  std::vector<uint32_t> src;  // input row per output row
  std::vector<int64_t> out_b;
  std::vector<int64_t> out_e;
  for (size_t gi = 0; gi < ngroups; ++gi) {
    for (const CoalescedSegment& s : segments[gi]) {
      for (int64_t c = 0; c < s.count; ++c) {
        src.push_back(groups.reps[gi]);
        out_b.push_back(s.begin);
        out_e.push_back(s.end);
      }
    }
  }
  size_t n = src.size();
  std::vector<ColumnData> out_cols;
  out_cols.reserve(nattr + 2);
  for (size_t c = 0; c < nattr; ++c) out_cols.push_back(in.Gather(c, src));
  out_cols.push_back(ColumnData::FromInts(std::move(out_b)));
  out_cols.push_back(ColumnData::FromInts(std::move(out_e)));
  return Relation::FromColumns(input.schema(), std::move(out_cols), n);
}
// periodk-lint: columnar-lane-end(coalesce)

Relation CoalesceWindow(const Relation& input) {
  size_t nattr = NonTemporalArity(input, "Coalesce");
  int tcol = static_cast<int>(nattr);
  int dcol = tcol + 1;

  // Step 1 (SQL: UNION ALL of two projections): each tuple becomes a
  // +1 event at its begin and a -1 event at its end.
  Schema ev_schema = input.schema().Prefix(nattr);
  ev_schema.Append(Column("t"));
  ev_schema.Append(Column("delta"));
  Relation events(std::move(ev_schema));
  events.Reserve(input.size() * 2);
  for (const Row& row : input.rows()) {
    TimePoint b = 0;
    TimePoint e = 0;
    if (!DecodeRowInterval(row, nattr, &b, &e)) continue;
    Row open(row.begin(), row.begin() + static_cast<long>(nattr));
    Row close = open;
    open.push_back(Value::Int(b));
    open.push_back(Value::Int(1));
    close.push_back(Value::Int(e));
    close.push_back(Value::Int(-1));
    events.AddRow(std::move(open));
    events.AddRow(std::move(close));
  }

  std::vector<int> partition;
  for (size_t i = 0; i < nattr; ++i) partition.push_back(static_cast<int>(i));

  // Step 2 (SQL: sum(delta) OVER (PARTITION BY attrs ORDER BY t RANGE
  // UNBOUNDED PRECEDING)): open-interval count per time point.
  WindowSpec w_count{partition, {{tcol, true}}, WindowFunc::kRunningSumRange,
                     dcol};
  Relation with_count = ApplyWindow(events, w_count, "cnt");
  int cntcol = dcol + 1;

  // Step 3 (SQL: row_number() OVER (PARTITION BY attrs, t)): keep one
  // row per distinct time point (peers carry the same count).
  std::vector<int> partition_t = partition;
  partition_t.push_back(tcol);
  WindowSpec w_rn{partition_t, {}, WindowFunc::kRowNumber, -1};
  Relation with_rn = ApplyWindow(with_count, w_rn, "rn");
  int rncol = cntcol + 1;
  Relation dedup(with_rn.schema());
  for (const Row& row : with_rn.rows()) {
    if (row[static_cast<size_t>(rncol)].AsInt() == 1) dedup.AddRow(row);
  }

  // Step 4 (SQL: lag(cnt) OVER (PARTITION BY attrs ORDER BY t)): keep
  // only annotation changepoints.
  WindowSpec w_lag{partition, {{tcol, true}}, WindowFunc::kLag, cntcol};
  Relation with_lag = ApplyWindow(dedup, w_lag, "prev_cnt");
  int lagcol = rncol + 1;
  Relation changes(with_lag.schema());
  for (const Row& row : with_lag.rows()) {
    const Value& prev = row[static_cast<size_t>(lagcol)];
    if (prev.is_null() ||
        prev.AsInt() != row[static_cast<size_t>(cntcol)].AsInt()) {
      changes.AddRow(row);
    }
  }

  // Step 5 (SQL: lead(t) OVER (PARTITION BY attrs ORDER BY t)): the end
  // of each maximal interval is the next changepoint.
  WindowSpec w_lead{partition, {{tcol, true}}, WindowFunc::kLead, tcol};
  Relation with_lead = ApplyWindow(changes, w_lead, "next_t");
  int leadcol = lagcol + 1;

  // Step 6 (SQL: final filter + join against a numbers relation to
  // restore multiplicities): emit cnt duplicates per maximal interval.
  Relation out(input.schema());
  for (const Row& row : with_lead.rows()) {
    int64_t cnt = row[static_cast<size_t>(cntcol)].AsInt();
    if (cnt <= 0) continue;
    const Value& next_t = row[static_cast<size_t>(leadcol)];
    if (next_t.is_null()) {
      throw EngineError("coalesce: open interval never closes");
    }
    for (int64_t c = 0; c < cnt; ++c) {
      Row o(row.begin(), row.begin() + static_cast<long>(nattr));
      o.push_back(row[static_cast<size_t>(tcol)]);
      o.push_back(next_t);
      out.AddRow(std::move(o));
    }
  }
  return out;
}

Relation CoalesceRelation(const Relation& input, CoalesceImpl impl,
                          const OpContext& ctx) {
  return impl == CoalesceImpl::kNative ? CoalesceNative(input, ctx)
                                       : CoalesceWindow(input);
}

namespace {
// -1 = unlimited; counts down while a SplitBudgetScope is active.
thread_local int64_t t_split_budget = -1;
}  // namespace

SplitBudgetScope::SplitBudgetScope(int64_t max_fragments)
    : previous_(t_split_budget) {
  t_split_budget = max_fragments;
}

SplitBudgetScope::~SplitBudgetScope() { t_split_budget = previous_; }

Relation SplitRelation(const Relation& left, const Relation& right,
                       const std::vector<int>& group_cols) {
  size_t nattr = NonTemporalArity(left, "Split");
  if (left.schema().size() != right.schema().size()) {
    throw EngineError("Split requires union-compatible inputs");
  }
  std::unordered_map<Row, std::vector<TimePoint>, RowHash, RowEq> endpoints;
  auto collect = [&](const Relation& r) {
    for (const Row& row : r.rows()) {
      TimePoint b = 0;
      TimePoint e = 0;
      if (!DecodeRowInterval(row, nattr, &b, &e)) continue;
      Row key;
      key.reserve(group_cols.size());
      for (int c : group_cols) key.push_back(row[static_cast<size_t>(c)]);
      auto& pts = endpoints[key];
      pts.push_back(b);
      pts.push_back(e);
    }
  };
  collect(left);
  collect(right);
  for (auto& [key, pts] : endpoints) {
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  }
  Relation out(left.schema());
  auto charge_budget = [](int64_t fragments) {
    if (t_split_budget < 0) return;
    t_split_budget -= fragments;
    if (t_split_budget < 0) throw SplitBudgetExceeded();
  };
  for (const Row& row : left.rows()) {
    TimePoint b = 0;
    TimePoint e = 0;
    if (!DecodeRowInterval(row, nattr, &b, &e)) continue;
    Row key;
    key.reserve(group_cols.size());
    for (int c : group_cols) key.push_back(row[static_cast<size_t>(c)]);
    const std::vector<TimePoint>& pts = endpoints[key];
    TimePoint start = b;
    auto lo = std::upper_bound(pts.begin(), pts.end(), b);
    auto hi = std::lower_bound(lo, pts.end(), e);
    charge_budget(hi - lo + 1);
    for (auto it = lo; it != hi; ++it) {
      Row frag(row.begin(), row.begin() + static_cast<long>(nattr));
      frag.push_back(Value::Int(start));
      frag.push_back(Value::Int(*it));
      out.AddRow(std::move(frag));
      start = *it;
    }
    Row frag(row.begin(), row.begin() + static_cast<long>(nattr));
    frag.push_back(Value::Int(start));
    frag.push_back(Value::Int(e));
    out.AddRow(std::move(frag));
  }
  return out;
}

namespace {

// Partial aggregate for one (group, begin, end) cell.
struct Partial {
  TimePoint begin = 0;
  TimePoint end = 0;
  int64_t star = 0;
  std::vector<AggState> states;
};

// Running sweep state for one aggregate function: count/sum support
// subtraction; min/max keep an ordered multiset of partial extrema
// (min/max distribute over the partial decomposition).
//
// The integer sum is maintained in 128-bit arithmetic so that summing
// endpoint-magnitude values (a TimeDomain touching INT64_MIN/INT64_MAX
// puts such values in plain columns) is never UB: opens and closes
// cancel exactly, a fragment whose true sum fits int64 finalizes as
// that exact integer, and one that does not widens to the double sum —
// the same behavior AggState has on overflow.  (The 128-bit sum itself
// cannot overflow: it would take 2^64 simultaneously open partials.)
struct RunningAgg {
  int64_t count = 0;
  int64_t n_nonint = 0;
  __int128 isum = 0;
  double dsum = 0.0;
  std::map<Value, int64_t> mins;
  std::map<Value, int64_t> maxs;

  void Open(const AggState& s) {
    count += s.count;
    isum += s.isum;
    dsum += s.dsum;
    if (!s.all_int) ++n_nonint;
    if (s.any) {
      ++mins[s.min_v];
      ++maxs[s.max_v];
    }
  }

  void Close(const AggState& s) {
    count -= s.count;
    isum -= s.isum;
    dsum -= s.dsum;
    if (!s.all_int) --n_nonint;
    if (s.any) {
      if (--mins[s.min_v] == 0) mins.erase(s.min_v);
      if (--maxs[s.max_v] == 0) maxs.erase(s.max_v);
    }
  }

  Value Finalize(AggFunc f, int64_t star) const {
    switch (f) {
      case AggFunc::kCountStar:
        return Value::Int(star);
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
        if (count == 0) return Value::Null();
        if (n_nonint == 0 &&
            isum >= static_cast<__int128>(
                        std::numeric_limits<int64_t>::min()) &&
            isum <= static_cast<__int128>(
                        std::numeric_limits<int64_t>::max())) {
          return Value::Int(static_cast<int64_t>(isum));
        }
        return Value::Double(dsum);
      case AggFunc::kAvg:
        if (count == 0) return Value::Null();
        return Value::Double(dsum / static_cast<double>(count));
      case AggFunc::kMin:
        return mins.empty() ? Value::Null() : mins.begin()->first;
      case AggFunc::kMax:
        return maxs.empty() ? Value::Null() : maxs.rbegin()->first;
    }
    throw EngineError("unknown aggregate function");
  }
};

// Phase 1 of the fused split-aggregate: one partial per (group, begin,
// end) cell, or per row without pre-aggregation.  Groups, and the cells
// within a group, are in first-appearance order.
struct PartialTable {
  std::vector<Row> group_keys;
  std::vector<std::vector<Partial>> group_partials;
};

// periodk-lint: columnar-lane-begin(split-aggregate-phase1)
PartialTable PreAggregate(const Relation& input, size_t nattr,
                          const std::vector<int>& group_cols,
                          const std::vector<AggExpr>& aggs,
                          bool pre_aggregate) {
  KernelColumns in(input);
  auto [bs, es] = EndpointArrays(in.Column(nattr), in.Column(nattr + 1));
  std::vector<uint32_t> live = NonEmptyRows(bs, es, input.size());
  std::vector<const ColumnData*> keys;
  keys.reserve(group_cols.size());
  for (int c : group_cols) keys.push_back(&in.Column(static_cast<size_t>(c)));
  std::vector<const Expr*> arg_exprs;
  arg_exprs.reserve(aggs.size());
  for (const AggExpr& a : aggs) {
    arg_exprs.push_back(a.func == AggFunc::kCountStar ? nullptr : a.arg.get());
  }
  std::vector<const ColumnData*> args = in.Columns(arg_exprs, &live);
  RowGroups groups = GroupRows(keys, live);

  PartialTable table;
  table.group_partials.resize(groups.reps.size());
  PackedKeyMap cell_map(/*width=*/3, /*expected=*/64);  // [group, b, e]
  std::vector<uint32_t> cell_slot;  // cell id -> index in group_partials[g]
  for (size_t k = 0; k < live.size(); ++k) {
    const uint32_t i = live[k];
    std::vector<Partial>& partials = table.group_partials[groups.ids[k]];
    const uint64_t cell[3] = {groups.ids[k], static_cast<uint64_t>(bs[i]),
                              static_cast<uint64_t>(es[i])};
    uint32_t cid = pre_aggregate
                       ? cell_map.FindOrInsert(cell)
                       : static_cast<uint32_t>(cell_slot.size());
    if (cid == cell_slot.size()) {
      cell_slot.push_back(static_cast<uint32_t>(partials.size()));
      Partial p;
      p.begin = bs[i];
      p.end = es[i];
      p.states.resize(aggs.size());
      partials.push_back(std::move(p));
    }
    Partial& p = partials[cell_slot[cid]];
    p.star += 1;
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (args[a] != nullptr) p.states[a].AccumulateColumn(*args[a], i);
    }
  }
  table.group_keys = KeyRows(keys, groups.reps);
  return table;
}
// periodk-lint: columnar-lane-end(split-aggregate-phase1)

}  // namespace

Relation SplitAggregateRelation(const Relation& input,
                                const std::vector<int>& group_cols,
                                const std::vector<AggExpr>& aggs,
                                bool gap_rows, const TimeDomain& domain,
                                bool pre_aggregate, const OpContext& ctx) {
  size_t nattr = NonTemporalArity(input, "SplitAggregate");
  // gap_rows with grouping emits full-domain coverage per *observed*
  // group (count 0 where the group is absent) -- Teradata-style grouped
  // gaps; without grouping it implements the paper's correct global
  // aggregation.

  // Output schema: group columns, aggregate columns, fragment interval.
  Schema schema;
  for (int c : group_cols) {
    schema.Append(input.schema().at(static_cast<size_t>(c)));
  }
  for (const AggExpr& a : aggs) schema.Append(Column(a.name));
  schema.Append(Column("a_begin"));
  schema.Append(Column("a_end"));

  // Phase 1: pre-aggregate per (group, begin, end).  Without the
  // optimization every row becomes its own partial (ablation mode).
  PartialTable phase1 =
      PreAggregate(input, nattr, group_cols, aggs, pre_aggregate);
  std::vector<Row>& group_keys = phase1.group_keys;
  std::vector<std::vector<Partial>>& group_partials = phase1.group_partials;
  // Global aggregation over an empty input still produces the
  // full-domain gap row.  With grouping there is no such row: gaps are
  // emitted per *observed* group, and an empty input has none (a
  // synthetic empty-key group would emit rows narrower than the output
  // schema).
  if (gap_rows && group_cols.empty() && group_partials.empty()) {
    group_keys.emplace_back();
    group_partials.emplace_back();
  }

  // Phase 2: per group, sweep partial endpoints maintaining running
  // aggregate state; each elementary fragment gets the finalized values.
  auto sweep_group = [&](const Row& group, const std::vector<Partial>& partials,
                         Relation& out) {
    // (time, is_close, partial index); closes and opens at equal time
    // are both applied before the next segment is emitted.
    std::vector<std::tuple<TimePoint, int, size_t>> events;
    events.reserve(partials.size() * 2);
    for (size_t i = 0; i < partials.size(); ++i) {
      events.emplace_back(partials[i].begin, 0, i);
      events.emplace_back(partials[i].end, 1, i);
    }
    std::sort(events.begin(), events.end(),
              [](const auto& a, const auto& b) {
                return std::get<0>(a) < std::get<0>(b);
              });
    std::vector<RunningAgg> running(aggs.size());
    int64_t star = 0;
    TimePoint prev = domain.tmin;
    bool have_prev = gap_rows;
    auto emit = [&](TimePoint from, TimePoint to) {
      if (gap_rows) {
        // Gap rows declare the result complete over [tmin, tmax); input
        // intervals may exceed the domain, so fragments are clamped to
        // it — otherwise the output would claim validity at time points
        // the domain does not contain.
        from = std::max(from, domain.tmin);
        to = std::min(to, domain.tmax);
      }
      if (from >= to) return;
      Row row = group;
      for (size_t i = 0; i < aggs.size(); ++i) {
        row.push_back(running[i].Finalize(aggs[i].func, star));
      }
      row.push_back(Value::Int(from));
      row.push_back(Value::Int(to));
      out.AddRow(std::move(row));
    };
    size_t i = 0;
    while (i < events.size()) {
      TimePoint t = std::get<0>(events[i]);
      if (have_prev && (star > 0 || gap_rows)) emit(prev, t);
      while (i < events.size() && std::get<0>(events[i]) == t) {
        const Partial& p = partials[std::get<2>(events[i])];
        if (std::get<1>(events[i]) == 0) {
          star += p.star;
          for (size_t a = 0; a < aggs.size(); ++a) running[a].Open(p.states[a]);
        } else {
          star -= p.star;
          for (size_t a = 0; a < aggs.size(); ++a) {
            running[a].Close(p.states[a]);
          }
        }
        ++i;
      }
      prev = t;
      have_prev = true;
    }
    if (gap_rows && prev < domain.tmax) emit(prev, domain.tmax);
  };

  // The per-group sweeps are independent; chunks of groups fan out to
  // the pool exactly like the coalesce sweep.
  size_t ngroups = group_partials.size();
  auto ranges = PlanChunks(ctx.num_threads(static_cast<int64_t>(input.size())),
                           static_cast<int64_t>(ngroups),
                           /*min_grain=*/1);
  if (ranges.size() <= 1) {
    Relation out(std::move(schema));
    for (size_t gi = 0; gi < ngroups; ++gi) {
      sweep_group(group_keys[gi], group_partials[gi], out);
    }
    return out;
  }
  std::vector<Relation> outs;
  outs.reserve(ranges.size());
  for (size_t c = 0; c < ranges.size(); ++c) outs.emplace_back(schema);
  std::vector<ExecStats> chunk_stats(ranges.size());
  RunChunks(ctx.pool->get(), ranges, [&](size_t c, int64_t b, int64_t e) {
    for (int64_t gi = b; gi < e; ++gi) {
      sweep_group(group_keys[static_cast<size_t>(gi)],
                  group_partials[static_cast<size_t>(gi)], outs[c]);
    }
    chunk_stats[c].parallel_tasks = 1;
  });
  return GatherChunks(std::move(outs), std::move(chunk_stats), ctx);
}

// Filters on the raw endpoint arrays and gathers the kept columns; row
// order is preserved.
// periodk-lint: columnar-lane-begin(timeslice)
Relation TimesliceEncodedAt(const Relation& input, TimePoint t,
                            int begin_col, int end_col) {
  int arity = static_cast<int>(input.schema().size());
  if (arity < 2 || begin_col < 0 || end_col < 0 || begin_col >= arity ||
      end_col >= arity || begin_col == end_col) {
    throw EngineError(StrCat("TimesliceAt: bad endpoint columns (", begin_col,
                             ", ", end_col, ") for arity ", arity));
  }
  Schema schema;
  std::vector<int> keep;
  keep.reserve(static_cast<size_t>(arity) - 2);
  for (int c = 0; c < arity; ++c) {
    if (c == begin_col || c == end_col) continue;
    keep.push_back(c);
    schema.Append(input.schema().at(static_cast<size_t>(c)));
  }
  KernelColumns in(input);
  auto [bs, es] = EndpointArrays(in.Column(static_cast<size_t>(begin_col)),
                                 in.Column(static_cast<size_t>(end_col)));
  // Pure comparisons -- no endpoint arithmetic, so the whole int64 range
  // (a TimeDomain touching INT64_MIN/INT64_MAX) is safe.
  std::vector<uint32_t> alive;
  for (size_t i = 0; i < input.size(); ++i) {
    if (bs[i] <= t && t < es[i]) alive.push_back(static_cast<uint32_t>(i));
  }
  std::vector<ColumnData> cols;
  cols.reserve(keep.size());
  for (int c : keep) cols.push_back(in.Gather(static_cast<size_t>(c), alive));
  return Relation::FromColumns(std::move(schema), std::move(cols),
                               alive.size());
}
// periodk-lint: columnar-lane-end(timeslice)

Relation TimesliceEncoded(const Relation& input, TimePoint t) {
  size_t nattr = NonTemporalArity(input, "Timeslice");
  return TimesliceEncodedAt(input, t, static_cast<int>(nattr),
                            static_cast<int>(nattr + 1));
}

}  // namespace periodk
