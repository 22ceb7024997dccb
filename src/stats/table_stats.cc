#include "stats/table_stats.h"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/str_util.h"
#include "engine/column.h"

namespace periodk {

namespace {

/// Distinct non-null values of column `c` of a columnar relation;
/// exact.  Fast-keyable columns go through the packed-key machinery
/// (dictionary codes keep string comparisons out of the loop); mixed
/// and NaN-holding columns fall back to a Value set.
int64_t CountDistinct(const Relation& rel, size_t c) {
  const size_t n = rel.size();
  if (n == 0) return 0;
  if (FastKeyable(rel.col(c))) {
    std::vector<uint64_t> packed;
    if (BuildPackedKeys(rel.columns(), {static_cast<int>(c)}, n, &packed)) {
      const ColumnData& col = rel.col(c);
      PackedKeyMap map(/*width=*/2, /*expected=*/n);
      for (size_t i = 0; i < n; ++i) {
        if (col.IsNull(i)) continue;
        map.FindOrInsert(&packed[i * 2]);
      }
      return static_cast<int64_t>(map.size());
    }
  }
  std::unordered_set<Value, ValueHash> seen;
  seen.reserve(n);
  const ColumnData& col = rel.col(c);
  for (size_t i = 0; i < n; ++i) {
    if (!col.IsNull(i)) seen.insert(col.Get(i));
  }
  return static_cast<int64_t>(seen.size());
}

}  // namespace

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
  const size_t n = rel.size();
  const size_t arity = rel.schema().size();
  stats->row_count_ = static_cast<int64_t>(n);
  stats->names_.reserve(arity);
  for (size_t c = 0; c < arity; ++c) stats->names_.push_back(rel.schema().at(c).name);
  stats->columns_.resize(arity);

  for (size_t c = 0; c < arity; ++c) {
    ColumnStats& cs = stats->columns_[c];
    cs.distinct = CountDistinct(rel, c);
    const ColumnData& col = rel.col(c);
    cs.null_count = static_cast<int64_t>(col.null_count());
    auto observe = [&cs](int64_t v) {
      if (!cs.has_int_range) {
        cs.has_int_range = true;
        cs.min_int = cs.max_int = v;
      } else {
        cs.min_int = std::min(cs.min_int, v);
        cs.max_int = std::max(cs.max_int, v);
      }
    };
    if (col.tag() == ColumnTag::kInt) {
      for (size_t i = 0; i < n; ++i) {
        if (!col.IsNull(i)) observe(col.ints()[i]);
      }
    } else if (col.tag() == ColumnTag::kMixed) {
      for (const Value& v : col.mixed()) {
        if (const int64_t* i = v.TryInt(); i != nullptr) observe(*i);
      }
    }
  }

  if (begin_col >= 0 && end_col >= 0 &&
      static_cast<size_t>(begin_col) < arity &&
      static_cast<size_t>(end_col) < arity && begin_col != end_col) {
    stats->begin_col_ = begin_col;
    stats->end_col_ = end_col;
    auto record = [&stats](const Value& b, const Value& e) {
      const int64_t* bi = b.TryInt();
      const int64_t* ei = e.TryInt();
      if (bi == nullptr || ei == nullptr || *bi >= *ei) return;
      const int64_t len = *ei - *bi;
      if (stats->interval_count_ == 0) {
        stats->min_begin_ = *bi;
        stats->max_end_ = *ei;
      } else {
        stats->min_begin_ = std::min(stats->min_begin_, *bi);
        stats->max_end_ = std::max(stats->max_end_, *ei);
      }
      ++stats->interval_count_;
      stats->length_sum_ += len;
      int bucket = 0;
      for (int64_t v = len; v > 1 && bucket < kLengthBuckets - 1; v >>= 1) {
        ++bucket;
      }
      ++stats->length_histogram_[bucket];
    };
    const ColumnData& bc = rel.col(static_cast<size_t>(begin_col));
    const ColumnData& ec = rel.col(static_cast<size_t>(end_col));
    for (size_t i = 0; i < n; ++i) {
      if (bc.IsNull(i) || ec.IsNull(i)) continue;
      record(bc.Get(i), ec.Get(i));
    }
  }

  stats->source_ = std::move(source);
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
