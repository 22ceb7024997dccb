// Typed columnar storage for Relation (docs/architecture.md §9).
//
// A ColumnData holds one column of a relation in a contiguous typed
// vector plus a validity bitmap: int64/double/bool columns store raw
// values, string columns are dictionary-encoded as uint32_t codes into
// a per-column *sorted* dictionary (rdf3x-style: code order == string
// order), and columns whose non-null values mix types fall back to a
// vector<Value> ("mixed") representation so the dynamically typed
// engine loses nothing.  The interval kernels (interval join,
// coalescing, split-aggregate, hash aggregation, timeslice,
// timeline-index build) read the raw arrays directly instead of
// dispatching through std::variant per cell.
#ifndef PERIODK_ENGINE_COLUMN_H_
#define PERIODK_ENGINE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/value.h"

namespace periodk {

/// Physical representation chosen for a column at encode time.
enum class ColumnTag { kInt, kDouble, kBool, kString, kMixed };

/// Returns "int", "double", "bool", "string" or "mixed".
const char* ColumnTagName(ColumnTag tag);

/// Immutable sorted, duplicate-free string dictionary.  Shared by
/// pointer between a column and anything gathered from it, so join and
/// coalesce outputs reuse the input dictionary for free.
class StringDict {
 public:
  explicit StringDict(std::vector<std::string> sorted_values)
      : values_(std::move(sorted_values)) {}

  const std::string& At(uint32_t code) const { return values_[code]; }
  size_t size() const { return values_.size(); }
  const std::vector<std::string>& values() const { return values_; }

 private:
  std::vector<std::string> values_;
};

/// One column of a columnar relation.  Immutable after construction;
/// new columns are built by Encode / FromInts / Gather.
class ColumnData {
 public:
  /// Encodes column `col` of `rows`, or of just the rows `*which` in
  /// that order.  Picks the narrowest tag that represents every
  /// non-null cell exactly (an all-null or empty column encodes as kInt
  /// with an all-invalid bitmap).  String ids cost one hash probe per
  /// cell; only the distinct strings are sorted into the dictionary.
  static ColumnData Encode(const std::vector<Row>& rows, size_t col,
                           const std::vector<uint32_t>* which = nullptr);

  /// Column `col` of `rows` appended after `head`: equal in every field
  /// (tag, null count, NaN flag, dictionary, codes, payload) to Encode
  /// over head's rows followed by `rows`, but only `rows` is encoded
  /// (Encode on the batch); head's payload is copied once into vectors
  /// of exact capacity.  A batch of another type widens the result to
  /// the tag Encode would pick over all rows.  New strings merge into
  /// the sorted dictionary and head's codes are remapped; a batch with
  /// no new string shares head's dictionary.
  static ColumnData Append(const ColumnData& head, const std::vector<Row>& rows,
                           size_t col);

  /// A column of raw int64s with no NULLs (kernel interval outputs).
  static ColumnData FromInts(std::vector<int64_t> values);

  /// out[k] = src[indices[k]] -- gather emission for the vectorized
  /// join/coalesce paths.  Dictionary columns share src's dictionary.
  static ColumnData Gather(const ColumnData& src,
                           const std::vector<uint32_t>& indices);

  ColumnTag tag() const { return tag_; }
  size_t size() const { return size_; }
  size_t null_count() const { return null_count_; }
  bool has_nulls() const { return null_count_ > 0; }
  bool IsNull(size_t i) const {
    return has_nulls() &&
           (validity_[i >> 6] & (uint64_t{1} << (i & 63))) == 0;
  }

  /// Value at row i (strings are copied out of the dictionary).
  Value Get(size_t i) const;

  // Raw typed payloads; meaningful only for the matching tag().  Cells
  // whose validity bit is clear hold an unspecified placeholder.
  const int64_t* ints() const { return ints_.data(); }
  const double* doubles() const { return doubles_.data(); }
  const uint8_t* bools() const { return bools_.data(); }
  const uint32_t* codes() const { return codes_.data(); }
  const std::shared_ptr<const StringDict>& dict() const { return dict_; }
  const std::vector<Value>& mixed() const { return mixed_; }

  /// kDouble only: true when any stored value is NaN.  Value::Compare
  /// is not a consistent order on NaN, so grouping must use Value keys
  /// for such columns instead of packed key words.
  bool has_nan() const { return has_nan_; }

 private:
  ColumnTag tag_ = ColumnTag::kInt;
  size_t size_ = 0;
  size_t null_count_ = 0;
  bool has_nan_ = false;
  std::vector<uint64_t> validity_;  // bit set = non-null; empty = no nulls
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> bools_;
  std::vector<uint32_t> codes_;
  std::shared_ptr<const StringDict> dict_;
  std::vector<Value> mixed_;

  void InitValidity();               // all-invalid bitmap of size_ bits
  void SetValid(size_t i) { validity_[i >> 6] |= uint64_t{1} << (i & 63); }
};

/// True when a column can serve as a packed uint64 grouping key with
/// equality identical to Value::Compare within the column: ints, bools
/// and dictionary codes always; doubles unless they contain NaN; mixed
/// columns never.
bool FastKeyable(const ColumnData& column);

/// Builds row-major packed keys over the columns `keys`:
/// width = keys.size() + 1 words per row -- one word per key column
/// (int bits / bool / dictionary code / double bits with -0.0
/// normalized to +0.0) plus a trailing null-bitmap word.  Returns false
/// (leaving *out unspecified) if any column is not FastKeyable or
/// num_rows exceeds uint32 range.  Word equality then matches row key
/// equality under Value::Compare, and dictionary codes keep string
/// comparisons out of the grouping loops entirely.
bool BuildPackedKeys(const std::vector<const ColumnData*>& keys,
                     size_t num_rows, std::vector<uint64_t>* out);

/// First-appearance grouping: ids[k] is the group of row rows[k], with
/// groups numbered 0, 1, 2, ... in the order they first appear in
/// `rows`; reps[g] is the row where group g first appears.
struct RowGroups {
  std::vector<uint32_t> ids;
  std::vector<uint32_t> reps;
};

/// Groups the rows `rows` (indices into the key columns, in the order
/// given) by their values in `keys`.  When every key column is
/// FastKeyable the keys are packed (BuildPackedKeys' encoding) block by
/// block over `rows` only, into a PackedKeyMap; otherwise each row's key
/// is a Row of Get(i) values in an unordered_map<Row, RowHash, RowEq> --
/// exactly the equality a row-at-a-time operator groups by, NaN and
/// mixed-type keys included.  No keys puts every row in group 0.
RowGroups GroupRows(const std::vector<const ColumnData*>& keys,
                    const std::vector<uint32_t>& rows);

/// Each group's key as a Row: the `keys` values at each row of `reps`.
std::vector<Row> KeyRows(const std::vector<const ColumnData*>& keys,
                         const std::vector<uint32_t>& reps);

/// Open-addressing hash map from fixed-width uint64 keys to dense ids
/// (0, 1, 2, ... in first-appearance order).  Keys live in one arena
/// vector, so lookups are a hash over `width` contiguous words and a
/// linear probe -- no per-row allocation, unlike unordered_map<Row>.
class PackedKeyMap {
 public:
  explicit PackedKeyMap(size_t width, size_t expected = 0);

  /// Returns the id of `key` (width_ words), inserting it if new.
  uint32_t FindOrInsert(const uint64_t* key);

  size_t size() const { return count_; }
  /// Key words of group `id` (valid until the next FindOrInsert).
  const uint64_t* KeyOf(uint32_t id) const { return &arena_[id * width_]; }

 private:
  void Grow();
  uint64_t HashKey(const uint64_t* key) const;

  size_t width_;
  size_t count_ = 0;
  size_t mask_ = 0;                 // slots_.size() - 1 (power of two)
  std::vector<uint32_t> slots_;     // kEmptySlot or group id
  std::vector<uint64_t> arena_;     // count_ * width_ key words
  static constexpr uint32_t kEmptySlot = 0xffffffffu;
};

}  // namespace periodk

#endif  // PERIODK_ENGINE_COLUMN_H_
