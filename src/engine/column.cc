#include "engine/column.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <type_traits>
#include <unordered_map>

#include "common/status.h"
#include "common/str_util.h"

namespace periodk {

namespace {

// splitmix64 finalizer; also used to combine packed key words.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

const char* ColumnTagName(ColumnTag tag) {
  switch (tag) {
    case ColumnTag::kInt:
      return "int";
    case ColumnTag::kDouble:
      return "double";
    case ColumnTag::kBool:
      return "bool";
    case ColumnTag::kString:
      return "string";
    case ColumnTag::kMixed:
      return "mixed";
  }
  return "?";
}

void ColumnData::InitValidity() {
  validity_.assign((size_ + 63) / 64, 0);
}

ColumnData ColumnData::Encode(const std::vector<Row>& rows, size_t col,
                              const std::vector<uint32_t>* which) {
  const size_t n = which == nullptr ? rows.size() : which->size();
  auto cell = [&](size_t i) -> const Value& {
    return rows[which == nullptr ? i : (*which)[i]][col];
  };
  ColumnData out;
  out.size_ = n;

  bool has_bool = false, has_int = false, has_double = false;
  bool has_string = false;
  size_t nulls = 0;
  for (size_t i = 0; i < n; ++i) {
    switch (cell(i).type()) {
      case ValueType::kNull:
        ++nulls;
        break;
      case ValueType::kBool:
        has_bool = true;
        break;
      case ValueType::kInt:
        has_int = true;
        break;
      case ValueType::kDouble:
        has_double = true;
        break;
      case ValueType::kString:
        has_string = true;
        break;
    }
  }
  int kinds = static_cast<int>(has_bool) + static_cast<int>(has_int) +
              static_cast<int>(has_double) + static_cast<int>(has_string);
  if (kinds > 1) {
    out.tag_ = ColumnTag::kMixed;
  } else if (has_bool) {
    out.tag_ = ColumnTag::kBool;
  } else if (has_double) {
    out.tag_ = ColumnTag::kDouble;
  } else if (has_string) {
    out.tag_ = ColumnTag::kString;
  } else {
    out.tag_ = ColumnTag::kInt;  // pure int, or all-null/empty
  }

  out.null_count_ = nulls;
  if (nulls > 0) out.InitValidity();
  switch (out.tag_) {
    case ColumnTag::kInt:
      out.ints_.resize(n, 0);
      for (size_t i = 0; i < n; ++i) {
        if (const int64_t* v = cell(i).TryInt()) {
          out.ints_[i] = *v;
          if (nulls > 0) out.SetValid(i);
        }
      }
      break;
    case ColumnTag::kDouble:
      out.doubles_.resize(n, 0.0);
      for (size_t i = 0; i < n; ++i) {
        if (const double* v = cell(i).TryDouble()) {
          out.doubles_[i] = *v;
          if (std::isnan(*v)) out.has_nan_ = true;
          if (nulls > 0) out.SetValid(i);
        }
      }
      break;
    case ColumnTag::kBool:
      out.bools_.resize(n, 0);
      for (size_t i = 0; i < n; ++i) {
        if (const bool* v = cell(i).TryBool()) {
          out.bools_[i] = *v ? 1 : 0;
          if (nulls > 0) out.SetValid(i);
        }
      }
      break;
    case ColumnTag::kString: {
      // One probe per cell numbers the distinct strings in first-
      // appearance order; only those are sorted, and the provisional
      // ids are then remapped to sorted dictionary codes.
      std::unordered_map<std::string_view, uint32_t> id_of;
      std::vector<std::string_view> distinct;
      out.codes_.resize(n, 0);
      for (size_t i = 0; i < n; ++i) {
        if (const std::string* s = cell(i).TryString()) {
          auto [it, fresh] = id_of.try_emplace(
              *s, static_cast<uint32_t>(distinct.size()));
          if (fresh) distinct.emplace_back(*s);
          out.codes_[i] = it->second;
          if (nulls > 0) out.SetValid(i);
        }
      }
      std::vector<uint32_t> order(distinct.size());
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return distinct[a] < distinct[b];
      });
      std::vector<std::string> dict;
      dict.reserve(order.size());
      std::vector<uint32_t> code_of(order.size());
      for (size_t c = 0; c < order.size(); ++c) {
        code_of[order[c]] = static_cast<uint32_t>(c);
        dict.emplace_back(distinct[order[c]]);
      }
      for (size_t i = 0; i < n; ++i) {
        if (!out.IsNull(i)) out.codes_[i] = code_of[out.codes_[i]];
      }
      out.dict_ = std::make_shared<const StringDict>(std::move(dict));
      break;
    }
    case ColumnTag::kMixed:
      out.mixed_.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        out.mixed_.push_back(cell(i));
        if (nulls > 0 && !cell(i).is_null()) out.SetValid(i);
      }
      break;
  }
  return out;
}

ColumnData ColumnData::Append(const ColumnData& head,
                              const std::vector<Row>& rows, size_t col) {
  ColumnData tail = Encode(rows, col);
  if (head.size_ == 0) return tail;
  const size_t n = head.size_;
  ColumnData out;
  out.size_ = n + tail.size_;
  out.null_count_ = head.null_count_ + tail.null_count_;
  // Encode's tag over all rows: a part without non-null cells adds no
  // type; two typed parts keep their tag only when they agree.
  const bool head_values = head.null_count_ < n;
  const bool tail_values = tail.null_count_ < tail.size_;
  if (!head_values) {
    out.tag_ = tail.tag_;
  } else if (!tail_values || head.tag_ == tail.tag_) {
    out.tag_ = head.tag_;
  } else {
    out.tag_ = ColumnTag::kMixed;
  }
  out.has_nan_ = out.tag_ == ColumnTag::kDouble &&
                 (head.has_nan_ || tail.has_nan_);

  if (out.null_count_ > 0) {
    out.InitValidity();
    if (head.has_nulls()) {
      std::copy(head.validity_.begin(), head.validity_.end(),
                out.validity_.begin());
    } else {
      std::fill_n(out.validity_.begin(), n / 64, ~uint64_t{0});
      if (n % 64 != 0) out.validity_[n / 64] = (uint64_t{1} << (n % 64)) - 1;
    }
    for (size_t j = 0; j < tail.size_; ++j) {
      if (!tail.IsNull(j)) out.SetValid(n + j);
    }
  }

  // Both parts' payloads back to back at exact capacity.  A part of
  // another tag holds no values, so it contributes Encode's zero
  // placeholders.
  const ColumnData* const parts[] = {&head, &tail};
  auto concat = [&](auto member) {
    using Vec = std::remove_cvref_t<decltype(head.*member)>;
    Vec v;
    v.reserve(out.size_);
    for (const ColumnData* part : parts) {
      if (part->tag_ == out.tag_) {
        v.insert(v.end(), (part->*member).begin(), (part->*member).end());
      } else {
        v.resize(v.size() + part->size_);
      }
    }
    return v;
  };
  switch (out.tag_) {
    case ColumnTag::kInt:
      out.ints_ = concat(&ColumnData::ints_);
      break;
    case ColumnTag::kDouble:
      out.doubles_ = concat(&ColumnData::doubles_);
      break;
    case ColumnTag::kBool:
      out.bools_ = concat(&ColumnData::bools_);
      break;
    case ColumnTag::kString: {
      // Code maps into the merged dictionary; empty = codes unchanged.
      std::vector<uint32_t> head_map, tail_map;
      const bool head_dict = head.tag_ == ColumnTag::kString;
      const bool tail_dict = tail.tag_ == ColumnTag::kString;
      out.dict_ = head_dict ? head.dict_ : tail.dict_;
      if (head_dict && tail_dict) {
        const std::vector<std::string>& a = head.dict_->values();
        const std::vector<std::string>& b = tail.dict_->values();
        tail_map.resize(b.size());
        bool all_known = true;
        for (size_t k = 0; k < b.size() && all_known; ++k) {
          auto it = std::lower_bound(a.begin(), a.end(), b[k]);
          all_known = it != a.end() && *it == b[k];
          tail_map[k] = static_cast<uint32_t>(it - a.begin());
        }
        if (!all_known) {
          // Sorted union; both inputs are sorted and duplicate-free.
          std::vector<std::string> merged;
          merged.reserve(a.size() + b.size());
          head_map.resize(a.size());
          size_t i = 0, k = 0;
          while (i < a.size() || k < b.size()) {
            const auto code = static_cast<uint32_t>(merged.size());
            const bool take_a = k == b.size() || (i < a.size() && a[i] <= b[k]);
            const bool take_b = i == a.size() || (k < b.size() && b[k] <= a[i]);
            merged.push_back(take_a ? a[i] : b[k]);
            if (take_a) head_map[i++] = code;
            if (take_b) tail_map[k++] = code;
          }
          out.dict_ = std::make_shared<const StringDict>(std::move(merged));
        }
      }
      out.codes_.reserve(out.size_);
      const std::vector<uint32_t>* const maps[] = {&head_map, &tail_map};
      for (size_t p = 0; p < 2; ++p) {
        const ColumnData* part = parts[p];
        const std::vector<uint32_t>* map = maps[p];
        if (part->tag_ != ColumnTag::kString) {
          out.codes_.resize(out.codes_.size() + part->size_);
        } else if (map->empty()) {
          out.codes_.insert(out.codes_.end(), part->codes_.begin(),
                            part->codes_.end());
        } else {
          for (size_t i = 0; i < part->size_; ++i) {
            out.codes_.push_back(part->IsNull(i) ? 0
                                                 : (*map)[part->codes_[i]]);
          }
        }
      }
      break;
    }
    case ColumnTag::kMixed:
      out.mixed_.reserve(out.size_);
      for (const ColumnData* part : parts) {
        if (part->tag_ == ColumnTag::kMixed) {
          out.mixed_.insert(out.mixed_.end(), part->mixed_.begin(),
                            part->mixed_.end());
        } else {
          for (size_t i = 0; i < part->size_; ++i) {
            out.mixed_.push_back(part->Get(i));
          }
        }
      }
      break;
  }
  return out;
}

ColumnData ColumnData::FromInts(std::vector<int64_t> values) {
  ColumnData out;
  out.tag_ = ColumnTag::kInt;
  out.size_ = values.size();
  out.ints_ = std::move(values);
  return out;
}

ColumnData ColumnData::Gather(const ColumnData& src,
                              const std::vector<uint32_t>& indices) {
  ColumnData out;
  out.tag_ = src.tag_;
  out.size_ = indices.size();
  out.dict_ = src.dict_;
  out.has_nan_ = src.has_nan_;
  size_t nulls = 0;
  if (src.has_nulls()) {
    out.InitValidity();
    for (size_t k = 0; k < indices.size(); ++k) {
      if (src.IsNull(indices[k])) {
        ++nulls;
      } else {
        out.SetValid(k);
      }
    }
    if (nulls == 0) out.validity_.clear();
  }
  out.null_count_ = nulls;
  switch (src.tag_) {
    case ColumnTag::kInt:
      out.ints_.resize(indices.size());
      for (size_t k = 0; k < indices.size(); ++k) {
        out.ints_[k] = src.ints_[indices[k]];
      }
      break;
    case ColumnTag::kDouble:
      out.doubles_.resize(indices.size());
      for (size_t k = 0; k < indices.size(); ++k) {
        out.doubles_[k] = src.doubles_[indices[k]];
      }
      break;
    case ColumnTag::kBool:
      out.bools_.resize(indices.size());
      for (size_t k = 0; k < indices.size(); ++k) {
        out.bools_[k] = src.bools_[indices[k]];
      }
      break;
    case ColumnTag::kString:
      out.codes_.resize(indices.size());
      for (size_t k = 0; k < indices.size(); ++k) {
        out.codes_[k] = src.codes_[indices[k]];
      }
      break;
    case ColumnTag::kMixed:
      out.mixed_.reserve(indices.size());
      for (uint32_t i : indices) out.mixed_.push_back(src.mixed_[i]);
      break;
  }
  return out;
}

Value ColumnData::Get(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (tag_) {
    case ColumnTag::kInt:
      return Value::Int(ints_[i]);
    case ColumnTag::kDouble:
      return Value::Double(doubles_[i]);
    case ColumnTag::kBool:
      return Value::Bool(bools_[i] != 0);
    case ColumnTag::kString:
      return Value::String(dict_->At(codes_[i]));
    case ColumnTag::kMixed:
      return mixed_[i];
  }
  return Value::Null();
}

bool FastKeyable(const ColumnData& column) {
  switch (column.tag()) {
    case ColumnTag::kInt:
    case ColumnTag::kBool:
    case ColumnTag::kString:
      return true;
    case ColumnTag::kDouble:
      return !column.has_nan();
    case ColumnTag::kMixed:
      return false;
  }
  return false;
}

namespace {

// Packs n keys, one row-major `width = keys.size() + 1`-word key per
// row rows[0 .. n) (rows 0 .. n - 1 when null), into out[0 .. n * width).
// Every key column must be FastKeyable.
void PackKeys(const std::vector<const ColumnData*>& keys, size_t n,
              const uint32_t* rows, uint64_t* out) {
  auto row_of = [rows](size_t k) { return rows == nullptr ? k : rows[k]; };
  const size_t width = keys.size() + 1;
  std::fill_n(out, n * width, 0);
  for (size_t j = 0; j < keys.size(); ++j) {
    const ColumnData& col = *keys[j];
    uint64_t* word = out + j;
    switch (col.tag()) {
      case ColumnTag::kInt: {
        const int64_t* v = col.ints();
        for (size_t k = 0; k < n; ++k, word += width) {
          *word = static_cast<uint64_t>(v[row_of(k)]);
        }
        break;
      }
      case ColumnTag::kDouble: {
        const double* v = col.doubles();
        for (size_t k = 0; k < n; ++k, word += width) {
          double d = v[row_of(k)];
          *word = std::bit_cast<uint64_t>(d == 0.0 ? 0.0 : d);  // -0.0 == +0.0
        }
        break;
      }
      case ColumnTag::kBool: {
        const uint8_t* v = col.bools();
        for (size_t k = 0; k < n; ++k, word += width) *word = v[row_of(k)];
        break;
      }
      case ColumnTag::kString: {
        const uint32_t* v = col.codes();
        for (size_t k = 0; k < n; ++k, word += width) *word = v[row_of(k)];
        break;
      }
      case ColumnTag::kMixed:
        break;  // unreachable: never FastKeyable
    }
    if (col.has_nulls()) {
      word = out + j;
      uint64_t* nulls = out + keys.size();
      for (size_t k = 0; k < n; ++k, word += width, nulls += width) {
        if (col.IsNull(row_of(k))) {
          *word = 0;
          *nulls |= uint64_t{1} << j;
        }
      }
    }
  }
}

// Packed keys need every column FastKeyable and the null bitmap to fit
// one word.
bool Packable(const std::vector<const ColumnData*>& keys) {
  if (keys.size() > 63) return false;
  for (const ColumnData* col : keys) {
    if (!FastKeyable(*col)) return false;
  }
  return true;
}

}  // namespace

bool BuildPackedKeys(const std::vector<const ColumnData*>& keys,
                     size_t num_rows, std::vector<uint64_t>* out) {
  if (num_rows >= 0xffffffffull || !Packable(keys)) return false;
  out->resize(num_rows * (keys.size() + 1));
  PackKeys(keys, num_rows, nullptr, out->data());
  return true;
}

RowGroups GroupRows(const std::vector<const ColumnData*>& keys,
                    const std::vector<uint32_t>& rows) {
  RowGroups g;
  g.ids.resize(rows.size());
  if (Packable(keys)) {
    // Block by block, so the packed words stay cache-sized however
    // many rows there are.
    constexpr size_t kBlock = 1024;
    const size_t width = keys.size() + 1;
    std::vector<uint64_t> packed(kBlock * width);
    PackedKeyMap map(width, /*expected=*/64);
    for (size_t from = 0; from < rows.size(); from += kBlock) {
      const size_t n = std::min(kBlock, rows.size() - from);
      const uint32_t* block = rows.data() + from;
      PackKeys(keys, n, block, packed.data());
      for (size_t k = 0; k < n; ++k) {
        uint32_t gid = map.FindOrInsert(&packed[k * width]);
        if (gid == g.reps.size()) g.reps.push_back(block[k]);
        g.ids[from + k] = gid;
      }
    }
    return g;
  }
  std::unordered_map<Row, uint32_t, RowHash, RowEq> gid_of;
  for (size_t k = 0; k < rows.size(); ++k) {
    Row key;
    key.reserve(keys.size());
    for (const ColumnData* col : keys) key.push_back(col->Get(rows[k]));
    auto [it, inserted] = gid_of.try_emplace(
        std::move(key), static_cast<uint32_t>(g.reps.size()));
    if (inserted) g.reps.push_back(rows[k]);
    g.ids[k] = it->second;
  }
  return g;
}

std::vector<Row> KeyRows(const std::vector<const ColumnData*>& keys,
                         const std::vector<uint32_t>& reps) {
  std::vector<Row> out(reps.size());
  for (size_t g = 0; g < reps.size(); ++g) {
    out[g].reserve(keys.size());
    for (const ColumnData* col : keys) out[g].push_back(col->Get(reps[g]));
  }
  return out;
}

PackedKeyMap::PackedKeyMap(size_t width, size_t expected) : width_(width) {
  size_t cap = 16;
  while (cap < expected * 2) cap *= 2;
  slots_.assign(cap, kEmptySlot);
  mask_ = cap - 1;
  arena_.reserve(expected * width_);
}

uint64_t PackedKeyMap::HashKey(const uint64_t* key) const {
  uint64_t h = 0x8445d61a4e774912ULL;
  for (size_t j = 0; j < width_; ++j) h = Mix64(h ^ key[j]);
  return h;
}

uint32_t PackedKeyMap::FindOrInsert(const uint64_t* key) {
  if ((count_ + 1) * 10 >= slots_.size() * 7) Grow();
  size_t pos = HashKey(key) & mask_;
  while (true) {
    uint32_t id = slots_[pos];
    if (id == kEmptySlot) {
      uint32_t fresh = static_cast<uint32_t>(count_++);
      slots_[pos] = fresh;
      arena_.insert(arena_.end(), key, key + width_);
      return fresh;
    }
    if (std::equal(key, key + width_, &arena_[id * width_])) return id;
    pos = (pos + 1) & mask_;
  }
}

void PackedKeyMap::Grow() {
  size_t cap = slots_.size() * 2;
  slots_.assign(cap, kEmptySlot);
  mask_ = cap - 1;
  for (uint32_t id = 0; id < count_; ++id) {
    size_t pos = HashKey(&arena_[id * width_]) & mask_;
    while (slots_[pos] != kEmptySlot) pos = (pos + 1) & mask_;
    slots_[pos] = id;
  }
}

}  // namespace periodk
