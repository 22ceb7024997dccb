#include "engine/interval_join.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "temporal/interval.h"

namespace periodk {

namespace {

Row Concat(const Row& lrow, const Row& rrow) {
  Row combined;
  combined.reserve(lrow.size() + rrow.size());
  combined.insert(combined.end(), lrow.begin(), lrow.end());
  combined.insert(combined.end(), rrow.begin(), rrow.end());
  return combined;
}

/// One input of the overlap join's row output.  A pair's cells come
/// from the input's storage: the rows of a row-stored input, or the
/// typed columns of a columnar one, read cell by cell -- so a join over
/// a stored table never builds and caches the table's full row view.
class PairCells {
 public:
  explicit PairCells(const Relation& in)
      : in_(in), rows_(in.is_columnar() ? nullptr : &in.rows()) {}

  /// Appends row i's cells to `out`.
  void AppendTo(uint32_t i, Row* out) const {
    if (rows_ != nullptr) {
      const Row& row = (*rows_)[i];
      out->insert(out->end(), row.begin(), row.end());
      return;
    }
    for (size_t c = 0; c < in_.schema().size(); ++c) {
      out->push_back(in_.col(c).Get(i));
    }
  }

 private:
  const Relation& in_;
  const std::vector<Row>* rows_;
};

}  // namespace

Relation NestedLoopJoin(const Plan& plan, const Relation& left,
                        const Relation& right) {
  Relation out(plan.schema);
  const JoinAnalysis& ja = plan.join;
  if (ja.equi_keys.empty() && !ja.overlap.has_value()) {
    // Genuinely opaque predicate: evaluate it per pair.
    for (const Row& lrow : left.rows()) {
      for (const Row& rrow : right.rows()) {
        Row combined = Concat(lrow, rrow);
        if (plan.predicate->EvalBool(combined)) {
          out.AddRow(std::move(combined));
        }
      }
    }
    return out;
  }
  // Analyzed predicate: test the decomposed conjuncts directly on the
  // source rows (equivalent to the full predicate — join_analysis.h
  // guarantees the parts conjoined back are the original under SQL
  // three-valued logic) and materialize only matching pairs.  Same
  // left-major emission order as the opaque path.
  auto strictly_less = [](const Value& a, const Value& b) {
    const std::optional<int> c = SqlCompare(a, b);
    return c.has_value() && *c < 0;
  };
  for (const Row& lrow : left.rows()) {
    for (const Row& rrow : right.rows()) {
      bool match = true;
      for (const auto& [lc, rc] : ja.equi_keys) {
        const std::optional<int> c = SqlCompare(
            lrow[static_cast<size_t>(lc)], rrow[static_cast<size_t>(rc)]);
        if (!c.has_value() || *c != 0) {
          match = false;
          break;
        }
      }
      if (match && ja.overlap.has_value()) {
        const OverlapSpec& ov = *ja.overlap;
        match = strictly_less(lrow[static_cast<size_t>(ov.left_begin)],
                              rrow[static_cast<size_t>(ov.right_end)]) &&
                strictly_less(rrow[static_cast<size_t>(ov.right_begin)],
                              lrow[static_cast<size_t>(ov.left_end)]);
      }
      if (!match) continue;
      Row combined = Concat(lrow, rrow);
      if (ja.residual != nullptr && !ja.residual->EvalBool(combined)) {
        continue;
      }
      out.AddRow(std::move(combined));
    }
  }
  return out;
}

// The overlap join reads typed endpoint and key columns only; row
// output is assembled from the inputs' storage (PairCells) and checked
// against the predicate.
// periodk-lint: columnar-lane-begin(overlap-join)
namespace {

// One well-formed input row staged for the sweep.
struct Staged {
  TimePoint begin = 0;
  TimePoint end = 0;
  uint32_t row = 0;
};

// Per-equi-key bucket.  Rows whose endpoints are non-NULL integers with
// begin < end ride the sweep; the rest -- NULL, double or string
// endpoints, empty or reversed intervals -- can still satisfy the raw
// predicate under SQL comparison semantics (an empty interval's
// `b1 < e2 AND b2 < e1` holds against any interval containing it), so
// they take the nested-loop slow lane.
struct Bucket {
  std::vector<Staged> left;
  std::vector<Staged> right;
  std::vector<uint32_t> slow_left;
  std::vector<uint32_t> slow_right;
};

using RowPair = std::pair<uint32_t, uint32_t>;

// Reusable per-worker sweep scratch: the active sets keep arrival
// (begin-stable) order and drop expired entries lazily during the
// emission scan, so the emitted order is a pure function of the staged
// rows.
struct SweepScratch {
  std::vector<std::pair<TimePoint, uint32_t>> active_l;
  std::vector<std::pair<TimePoint, uint32_t>> active_r;
};

constexpr uint32_t kNoBucket = 0xffffffffu;

// Cell i of an endpoint column as an integer; false for NULL and for
// every other type (a mixed column is decided cell by cell).
bool IntAt(const ColumnData& col, size_t i, TimePoint* out) {
  if (col.IsNull(i)) return false;
  if (col.tag() == ColumnTag::kInt) {
    *out = col.ints()[i];
    return true;
  }
  if (col.tag() != ColumnTag::kMixed) return false;
  const Value& v = col.mixed()[i];
  if (v.type() != ValueType::kInt) return false;
  *out = v.AsInt();
  return true;
}

// Joins one bucket: slow(l, r) for every pair with a malformed side --
// each left slow row against the right rows, then the left well-formed
// rows against the right slow rows, in staging (= source) order --
// then sweep(l, r) for every overlapping pair of well-formed intervals.
// Sorts the staged rows, so each bucket must be joined by exactly one
// worker.
template <typename SlowFn, typename SweepFn>
void SweepBucket(Bucket& bucket, SweepScratch& scratch, const SlowFn& slow,
                 const SweepFn& sweep) {
  for (uint32_t l : bucket.slow_left) {
    for (const Staged& r : bucket.right) slow(l, r.row);
    for (uint32_t r : bucket.slow_right) slow(l, r);
  }
  for (const Staged& l : bucket.left) {
    for (uint32_t r : bucket.slow_right) slow(l.row, r);
  }

  // Plane sweep over the well-formed intervals: advance both inputs in
  // begin order; an arriving interval pairs with every active opposite
  // interval that has not yet ended.  Each overlapping pair is emitted
  // exactly once, when its later-starting member arrives.
  std::vector<Staged>& ls = bucket.left;
  std::vector<Staged>& rs = bucket.right;
  if (ls.empty() || rs.empty()) return;
  auto by_begin = [](const Staged& a, const Staged& b) {
    return a.begin < b.begin;
  };
  // Stable: rows sharing a begin stay in staging order, so the emitted
  // order survives the removal of non-emitting rows.
  std::stable_sort(ls.begin(), ls.end(), by_begin);
  std::stable_sort(rs.begin(), rs.end(), by_begin);
  auto& active_l = scratch.active_l;
  auto& active_r = scratch.active_r;
  active_l.clear();
  active_r.clear();
  // Emits `cur` against every still-active opposite entry, compacting
  // expired entries (end <= cur.begin) out in the same pass.
  auto emit_against = [](const Staged& cur,
                         std::vector<std::pair<TimePoint, uint32_t>>& opposite,
                         const auto& emit_pair) {
    size_t kept = 0;
    for (auto& entry : opposite) {
      if (entry.first > cur.begin) {
        emit_pair(entry.second);
        opposite[kept++] = entry;
      }
    }
    opposite.resize(kept);
  };
  size_t i = 0;
  size_t j = 0;
  while (i < ls.size() || j < rs.size()) {
    bool take_left =
        j >= rs.size() || (i < ls.size() && ls[i].begin <= rs[j].begin);
    if (take_left) {
      const Staged& cur = ls[i++];
      emit_against(cur, active_r, [&](uint32_t r) { sweep(cur.row, r); });
      active_l.emplace_back(cur.end, cur.row);
    } else {
      const Staged& cur = rs[j++];
      emit_against(cur, active_l, [&](uint32_t l) { sweep(l, cur.row); });
      active_r.emplace_back(cur.end, cur.row);
    }
  }
}

// Assigns every row of both sides its bucket, numbered in
// first-appearance order over the left rows and then the right rows;
// a NULL key gets kNoBucket (NULL never equi-joins).  With no keys all
// rows share bucket 0.  Returns whether the keys were packed.
//
// Two key equalities, both Value::Compare equality: when every key
// pair shares a tag and is FastKeyable, keys are packed uint64 words
// (BuildPackedKeys) with the right side's dictionary codes translated
// into the left column's code space (both dictionaries are sorted;
// right strings absent on the left get codes past the left dictionary,
// distinct from every left code and from each other, so they never
// match).  Otherwise -- a NaN double, a mixed column, int keys meeting
// double keys (3 == 3.0 has no shared word) -- each key is a Row of
// Get(i) values under RowEq.
bool AssignBuckets(const std::vector<const ColumnData*>& lkeys,
                   const std::vector<const ColumnData*>& rkeys, size_t nl,
                   size_t nr, std::vector<uint32_t>* lids,
                   std::vector<uint32_t>* rids) {
  lids->resize(nl);
  rids->resize(nr);
  bool same_tags = true;
  for (size_t j = 0; j < lkeys.size(); ++j) {
    same_tags = same_tags && lkeys[j]->tag() == rkeys[j]->tag();
  }
  std::vector<uint64_t> lpacked;
  std::vector<uint64_t> rpacked;
  if (same_tags && BuildPackedKeys(lkeys, nl, &lpacked) &&
      BuildPackedKeys(rkeys, nr, &rpacked)) {
    const size_t width = lkeys.size() + 1;
    for (size_t j = 0; j < lkeys.size(); ++j) {
      const ColumnData& lc = *lkeys[j];
      const ColumnData& rc = *rkeys[j];
      if (lc.tag() != ColumnTag::kString || lc.dict() == rc.dict()) continue;
      const std::vector<std::string>& lv = lc.dict()->values();
      const std::vector<std::string>& rv = rc.dict()->values();
      std::vector<uint64_t> remap(rv.size());
      for (size_t c = 0; c < rv.size(); ++c) {
        auto it = std::lower_bound(lv.begin(), lv.end(), rv[c]);
        remap[c] = (it != lv.end() && *it == rv[c])
                       ? static_cast<uint64_t>(it - lv.begin())
                       : lv.size() + c;
      }
      uint64_t* word = rpacked.data() + j;
      const uint64_t* nulls = rpacked.data() + lkeys.size();
      for (size_t i = 0; i < nr; ++i, word += width, nulls += width) {
        if ((*nulls & (uint64_t{1} << j)) == 0) *word = remap[*word];
      }
    }
    PackedKeyMap map(width, /*expected=*/64);
    auto assign = [&](const std::vector<uint64_t>& packed,
                      std::vector<uint32_t>* ids) {
      for (size_t i = 0; i < ids->size(); ++i) {
        const uint64_t* key = &packed[i * width];
        (*ids)[i] = key[width - 1] != 0 ? kNoBucket : map.FindOrInsert(key);
      }
    };
    assign(lpacked, lids);
    assign(rpacked, rids);
    return true;
  }
  std::unordered_map<Row, uint32_t, RowHash, RowEq> map;
  auto assign = [&](const std::vector<const ColumnData*>& keys,
                    std::vector<uint32_t>* ids) {
    for (size_t i = 0; i < ids->size(); ++i) {
      Row key;
      key.reserve(keys.size());
      for (const ColumnData* col : keys) {
        Value v = col->Get(i);
        if (v.is_null()) break;
        key.push_back(std::move(v));
      }
      (*ids)[i] = key.size() < keys.size()
                      ? kNoBucket
                      : map.try_emplace(std::move(key),
                                        static_cast<uint32_t>(map.size()))
                            .first->second;
    }
  };
  assign(lkeys, lids);
  assign(rkeys, rids);
  return false;
}

}  // namespace

Relation IntervalOverlapJoin(const Plan& plan, const Relation& left,
                             const Relation& right, const OpContext& ctx) {
  const JoinAnalysis& ja = plan.join;
  if (!ja.overlap.has_value()) {
    throw EngineError("IntervalOverlapJoin requires an overlap conjunct");
  }
  if (left.size() >= kNoBucket || right.size() >= kNoBucket) {
    throw EngineError("IntervalOverlapJoin input exceeds 2^32 - 1 rows");
  }
  const OverlapSpec& ov = *ja.overlap;

  // Stage both sides from their typed key and endpoint columns (a
  // row-stored input has just those columns encoded).  Buckets are
  // created in first-appearance order of their key, left side first.
  KernelColumns lin(left);
  KernelColumns rin(right);
  std::vector<const ColumnData*> lkeys;
  std::vector<const ColumnData*> rkeys;
  for (const auto& [l, r] : ja.equi_keys) {
    lkeys.push_back(&lin.Column(static_cast<size_t>(l)));
    rkeys.push_back(&rin.Column(static_cast<size_t>(r)));
  }
  std::vector<uint32_t> lids;
  std::vector<uint32_t> rids;
  const bool packed =
      AssignBuckets(lkeys, rkeys, left.size(), right.size(), &lids, &rids);
  std::vector<Bucket> buckets;
  bool all_well_formed = true;
  auto stage = [&](bool is_left, KernelColumns& in,
                   const std::vector<uint32_t>& ids) {
    const int bc = is_left ? ov.left_begin : ov.right_begin;
    const int ec = is_left ? ov.left_end : ov.right_end;
    const ColumnData& bcol = in.Column(static_cast<size_t>(bc));
    const ColumnData& ecol = in.Column(static_cast<size_t>(ec));
    for (uint32_t i = 0; i < ids.size(); ++i) {
      TimePoint b = 0;
      TimePoint e = 0;
      const bool well_formed =
          IntAt(bcol, i, &b) && IntAt(ecol, i, &e) && b < e;
      all_well_formed = all_well_formed && well_formed;
      if (ids[i] == kNoBucket) continue;
      if (ids[i] == buckets.size()) buckets.emplace_back();
      Bucket& bucket = buckets[ids[i]];
      if (!well_formed) {
        (is_left ? bucket.slow_left : bucket.slow_right).push_back(i);
      } else {
        (is_left ? bucket.left : bucket.right).push_back(Staged{b, e, i});
      }
    }
  };
  stage(/*is_left=*/true, lin, lids);
  stage(/*is_left=*/false, rin, rids);

  // Output layout: gathered columns when both inputs are columnar, no
  // predicate remains to check, every interval is well-formed and the
  // keys packed; Concat rows otherwise, checked against the residual
  // (sweep pairs) or the full predicate (slow-lane pairs).
  const bool columnar_out = left.is_columnar() && right.is_columnar() &&
                            ja.residual == nullptr && all_well_formed &&
                            packed;
  // Built before the fan-out: a row-stored input's row view is fetched
  // once, on the calling thread (columnar output has no such input).
  const PairCells lcells(left);
  const PairCells rcells(right);

  // The buckets are the parallel work units: chunks of buckets fan out
  // to the pool, each emitting into its own slot, concatenated in
  // bucket order afterwards — so the output order depends only on the
  // staged rows, not on the chunk plan or worker scheduling.  A
  // single-bucket join (pure temporal, no equi-keys) stays sequential.
  auto ranges = PlanChunks(
      ctx.num_threads(static_cast<int64_t>(left.size() + right.size())),
      static_cast<int64_t>(buckets.size()),
      /*min_grain=*/1);
  const bool fan_out = ranges.size() > 1;
  std::vector<std::vector<RowPair>> chunk_pairs(ranges.size());
  std::vector<Relation> chunk_rows(columnar_out ? 0 : ranges.size(),
                                   Relation(plan.schema));
  std::vector<ExecStats> chunk_stats(ranges.size());
  RunChunks(fan_out ? ctx.pool->get() : nullptr, ranges,
            [&](size_t c, int64_t b, int64_t e) {
    SweepScratch scratch;
    for (int64_t k = b; k < e; ++k) {
      Bucket& bucket = buckets[static_cast<size_t>(k)];
      if (columnar_out) {
        // No slow-lane rows and nothing to check: bare index pairs.
        auto pair = [&](uint32_t l, uint32_t r) {
          chunk_pairs[c].emplace_back(l, r);
        };
        SweepBucket(bucket, scratch, pair, pair);
        continue;
      }
      Relation& out = chunk_rows[c];
      auto emit = [&](const Expr* check, uint32_t l, uint32_t r) {
        Row combined;
        combined.reserve(plan.schema.size());
        lcells.AppendTo(l, &combined);
        rcells.AppendTo(r, &combined);
        if (check == nullptr || check->EvalBool(combined)) {
          // periodk-lint: allow(row-api-in-columnar-lane): row output
          out.AddRow(std::move(combined));
        }
      };
      // The sweep has established the equi-keys (by bucketing) and the
      // overlap; only the residual remains.  Slow-lane pairs get the
      // full predicate: re-checking the matched keys is harmless and
      // keeps the lane trivially equivalent to the nested loop.
      SweepBucket(
          bucket, scratch,
          [&](uint32_t l, uint32_t r) { emit(plan.predicate.get(), l, r); },
          [&](uint32_t l, uint32_t r) { emit(ja.residual.get(), l, r); });
    }
    chunk_stats[c].parallel_tasks = fan_out ? 1 : 0;
  });
  if (!columnar_out) {
    return GatherChunks(std::move(chunk_rows), std::move(chunk_stats), ctx);
  }
  if (ctx.stats != nullptr) {
    for (const ExecStats& s : chunk_stats) ctx.stats->Merge(s);
  }

  size_t total = 0;
  for (const auto& cp : chunk_pairs) total += cp.size();
  std::vector<uint32_t> lidx;
  std::vector<uint32_t> ridx;
  lidx.reserve(total);
  ridx.reserve(total);
  for (const auto& cp : chunk_pairs) {
    for (const RowPair& p : cp) {
      lidx.push_back(p.first);
      ridx.push_back(p.second);
    }
  }
  std::vector<ColumnData> cols;
  cols.reserve(plan.schema.size());
  for (size_t c = 0; c < left.schema().size(); ++c) {
    cols.push_back(ColumnData::Gather(left.col(c), lidx));
  }
  for (size_t c = 0; c < right.schema().size(); ++c) {
    cols.push_back(ColumnData::Gather(right.col(c), ridx));
  }
  return Relation::FromColumns(plan.schema, std::move(cols), total);
}
// periodk-lint: columnar-lane-end(overlap-join)

}  // namespace periodk
