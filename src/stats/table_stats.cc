#include "stats/table_stats.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/status.h"
#include "common/str_util.h"
#include "engine/column.h"

namespace periodk {

namespace {

/// Calls visit(key) with the packed key word of every non-null cell in
/// rows [from, to) of a FastKeyable column -- BuildPackedKeys' encoding,
/// so word equality is Value equality -- until visit returns false.
template <typename Visit>
void ForEachKey(const ColumnData& col, size_t from, size_t to, Visit visit) {
  auto run = [&](auto key_at) {
    for (size_t i = from; i < to; ++i) {
      if (!col.IsNull(i) && !visit(key_at(i))) return;
    }
  };
  switch (col.tag()) {
    case ColumnTag::kInt:
      run([&](size_t i) { return static_cast<uint64_t>(col.ints()[i]); });
      break;
    case ColumnTag::kDouble:
      run([&](size_t i) {
        const double d = col.doubles()[i];
        return std::bit_cast<uint64_t>(d == 0.0 ? 0.0 : d);  // -0.0 == +0.0
      });
      break;
    case ColumnTag::kBool:
      run([&](size_t i) { return uint64_t{col.bools()[i]}; });
      break;
    case ColumnTag::kString:
      run([&](size_t i) { return uint64_t{col.codes()[i]}; });
      break;
    case ColumnTag::kMixed:
      break;  // never FastKeyable
  }
}

/// Distinct keys among the non-null cells [from, to) of a FastKeyable
/// column.
PackedKeyMap DistinctKeys(const ColumnData& col, size_t from, size_t to) {
  PackedKeyMap keys(/*width=*/1, /*expected=*/to - from);
  ForEachKey(col, from, to, [&keys](uint64_t key) {
    keys.FindOrInsert(&key);
    return true;
  });
  return keys;
}

/// Distinct non-null values of a column; exact.  Fast-keyable columns
/// count packed keys (dictionary codes keep string comparisons out of
/// the loop); mixed and NaN-holding columns fall back to a Value set.
int64_t CountDistinct(const ColumnData& col) {
  if (FastKeyable(col)) {
    return static_cast<int64_t>(DistinctKeys(col, 0, col.size()).size());
  }
  std::unordered_set<Value, ValueHash> seen;
  seen.reserve(col.size());
  for (size_t i = 0; i < col.size(); ++i) {
    if (!col.IsNull(i)) seen.insert(col.Get(i));
  }
  return static_cast<int64_t>(seen.size());
}

/// How many of `batch`'s keys occur among the non-null cells of rows
/// [0, from) of the FastKeyable column `col`: one pass over the old
/// rows, stopping once every key was seen.  A one-hash bit filter with
/// ~64 bits per batch key turns away most old cells before the binary
/// search over the sorted batch keys.
int64_t CountOverlap(const ColumnData& col, size_t from,
                     const PackedKeyMap& batch) {
  std::vector<uint64_t> probe(batch.size());
  for (uint32_t id = 0; id < probe.size(); ++id) probe[id] = *batch.KeyOf(id);
  if (probe.empty()) return 0;
  std::sort(probe.begin(), probe.end());
  const int filter_log2 = std::bit_width(std::bit_ceil(probe.size())) + 5;
  auto slot = [filter_log2](uint64_t key) {
    return (key * 0x9e3779b97f4a7c15ULL) >> (64 - filter_log2);
  };
  std::vector<uint64_t> filter(size_t{1} << (filter_log2 - 6), 0);
  for (uint64_t key : probe) {
    filter[slot(key) >> 6] |= uint64_t{1} << (slot(key) & 63);
  }
  std::vector<uint8_t> seen(probe.size(), 0);
  size_t found = 0;
  ForEachKey(col, 0, from, [&](uint64_t key) {
    const uint64_t s = slot(key);
    if ((filter[s >> 6] >> (s & 63) & 1) == 0) return true;
    auto it = std::lower_bound(probe.begin(), probe.end(), key);
    if (it != probe.end() && *it == key && seen[it - probe.begin()] == 0) {
      seen[it - probe.begin()] = 1;
      ++found;
    }
    return found < probe.size();
  });
  return static_cast<int64_t>(found);
}

/// Adds the integers among rows [from, size) of `col` to the range of
/// `cs`.
void ObserveInts(const ColumnData& col, size_t from, ColumnStats* cs) {
  auto observe = [cs](int64_t v) {
    if (!cs->has_int_range) {
      cs->has_int_range = true;
      cs->min_int = cs->max_int = v;
    } else {
      cs->min_int = std::min(cs->min_int, v);
      cs->max_int = std::max(cs->max_int, v);
    }
  };
  if (col.tag() == ColumnTag::kInt) {
    for (size_t i = from; i < col.size(); ++i) {
      if (!col.IsNull(i)) observe(col.ints()[i]);
    }
  } else if (col.tag() == ColumnTag::kMixed) {
    for (size_t i = from; i < col.size(); ++i) {
      if (const int64_t* v = col.mixed()[i].TryInt(); v != nullptr) {
        observe(*v);
      }
    }
  }
}

}  // namespace

void TableStats::ObserveIntervals(const Relation& rel, size_t from) {
  const ColumnData& bc = rel.col(static_cast<size_t>(begin_col_));
  const ColumnData& ec = rel.col(static_cast<size_t>(end_col_));
  for (size_t i = from; i < rel.size(); ++i) {
    if (bc.IsNull(i) || ec.IsNull(i)) continue;
    const Value b = bc.Get(i);
    const Value e = ec.Get(i);
    const int64_t* bi = b.TryInt();
    const int64_t* ei = e.TryInt();
    if (bi == nullptr || ei == nullptr || *bi >= *ei) continue;
    const int64_t len = *ei - *bi;
    if (interval_count_ == 0) {
      min_begin_ = *bi;
      max_end_ = *ei;
    } else {
      min_begin_ = std::min(min_begin_, *bi);
      max_end_ = std::max(max_end_, *ei);
    }
    ++interval_count_;
    length_sum_ += len;
    int bucket = 0;
    for (int64_t v = len; v > 1 && bucket < kLengthBuckets - 1; v >>= 1) {
      ++bucket;
    }
    ++length_histogram_[bucket];
  }
}

std::shared_ptr<const TableStats> TableStats::Collect(
    std::shared_ptr<const Relation> source, int begin_col, int end_col) {
  std::shared_ptr<TableStats> stats(new TableStats());
  // Stored tables are columnar by construction; a row-stored input
  // (engine-level callers) is encoded into a local temporary.
  std::optional<Relation> encoded;
  if (!source->is_columnar()) {
    encoded.emplace(*source);
    encoded->ToColumnar();
  }
  const Relation& rel = encoded.has_value() ? *encoded : *source;
  const size_t arity = rel.schema().size();
  stats->row_count_ = static_cast<int64_t>(rel.size());
  stats->names_.reserve(arity);
  for (size_t c = 0; c < arity; ++c) {
    stats->names_.push_back(rel.schema().at(c).name);
  }
  stats->columns_.resize(arity);
  for (size_t c = 0; c < arity; ++c) {
    ColumnStats& cs = stats->columns_[c];
    cs.distinct = CountDistinct(rel.col(c));
    cs.null_count = static_cast<int64_t>(rel.col(c).null_count());
    ObserveInts(rel.col(c), 0, &cs);
  }
  if (begin_col >= 0 && end_col >= 0 &&
      static_cast<size_t>(begin_col) < arity &&
      static_cast<size_t>(end_col) < arity && begin_col != end_col) {
    stats->begin_col_ = begin_col;
    stats->end_col_ = end_col;
    stats->ObserveIntervals(rel, 0);
  }
  stats->source_ = std::move(source);
  return stats;
}

std::shared_ptr<const TableStats> TableStats::Merge(
    const TableStats& previous, std::shared_ptr<const Relation> appended) {
  const Relation& rel = *appended;
  const auto from = static_cast<size_t>(previous.row_count_);
  if (!rel.is_columnar() || rel.schema().size() != previous.columns_.size() ||
      rel.size() < from) {
    throw EngineError(StrCat("TableStats::Merge: ", rel.size(), " rows of ",
                             rel.schema().ToString(),
                             " do not extend the previous ", from, " rows"));
  }
  const Relation& old = *previous.source_;
  std::shared_ptr<TableStats> stats(new TableStats(previous));
  stats->row_count_ = static_cast<int64_t>(rel.size());
  for (size_t c = 0; c < stats->columns_.size(); ++c) {
    ColumnStats& cs = stats->columns_[c];
    const ColumnData& col = rel.col(c);
    cs.null_count = static_cast<int64_t>(col.null_count());
    ObserveInts(col, from, &cs);
    if (!FastKeyable(col)) {
      cs.distinct = CountDistinct(col);
      continue;
    }
    // A FastKeyable column whose old rows hold values kept its tag, so
    // old and new rows share one key space.
    const int64_t old_distinct = previous.columns_[c].distinct;
    PackedKeyMap batch = DistinctKeys(col, from, rel.size());
    int64_t overlap = 0;
    if (old_distinct > 0 && col.tag() == ColumnTag::kString &&
        old.is_columnar() && old.col(c).tag() == ColumnTag::kString &&
        static_cast<int64_t>(old.col(c).dict()->size()) == old_distinct) {
      // Every entry of the old dictionary occurs in the old rows, so a
      // batch string is old iff the old dictionary holds it.
      const std::vector<std::string>& known = old.col(c).dict()->values();
      for (uint32_t id = 0; id < batch.size(); ++id) {
        const std::string& s =
            col.dict()->At(static_cast<uint32_t>(*batch.KeyOf(id)));
        overlap += std::binary_search(known.begin(), known.end(), s) ? 1 : 0;
      }
    } else if (old_distinct > 0) {
      overlap = CountOverlap(col, from, batch);
    }
    cs.distinct = old_distinct + static_cast<int64_t>(batch.size()) - overlap;
  }
  if (stats->has_period()) stats->ObserveIntervals(rel, from);
  stats->source_ = std::move(appended);
  return stats;
}

int TableStats::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

double TableStats::AvgAliveRows() const {
  if (interval_count_ == 0) return 0.0;
  const int64_t s = std::max<int64_t>(span(), 1);
  return static_cast<double>(length_sum_) / static_cast<double>(s);
}

std::string TableStats::ToString() const {
  std::string out = StrCat("rows=", row_count_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    const ColumnStats& cs = columns_[c];
    out += StrCat("\n  ", names_[c], ": nulls=", cs.null_count,
                  " distinct=", cs.distinct);
    if (cs.has_int_range) {
      out += StrCat(" range=[", cs.min_int, "..", cs.max_int, "]");
    }
  }
  if (has_period()) {
    out += StrCat("\n  period(", names_[static_cast<size_t>(begin_col_)], ", ",
                  names_[static_cast<size_t>(end_col_)],
                  "): intervals=", interval_count_, " length_sum=", length_sum_,
                  " span=[", min_begin_, "..", max_end_, ") hist=[");
    for (int b = 0; b < kLengthBuckets; ++b) {
      if (b > 0) out += ",";
      out += StrCat(length_histogram_[b]);
    }
    out += "]";
  }
  return out;
}

}  // namespace periodk
