#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <unordered_map>

#include "engine/temporal_ops.h"

namespace perfbench {

using periodk::Relation;
using periodk::Row;
using periodk::Value;
using periodk::ValueType;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return std::nan("");
  double log_sum = 0;
  for (double v : values) {
    if (!(v > 0)) return std::nan("");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].duration_us();
  for (const Span& span : spans) {
    if (span.parent >= 0) self[span.parent] -= span.duration_us();
  }
  return self;
}

Tracer::Tracer() : origin_(NowSeconds()) {}

int Tracer::Begin(const std::string& name, int64_t request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_us = (NowSeconds() - origin_) * 1e6;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  spans_[id].end_us = (NowSeconds() - origin_) * 1e6;
  // Spans close innermost-first; tolerate an out-of-order End by
  // dropping everything opened after `id` as well.
  while (!open_.empty()) {
    int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void Tracer::WriteJson(std::ostream& out) const {
  std::vector<double> self = SelfTimesUs(spans_);
  out << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":" << JsonString(s.name)
        << ",\"start_us\":" << JsonNumber(s.start_us)
        << ",\"end_us\":" << JsonNumber(s.end_us)
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"self_us\":" << JsonNumber(self[i]) << "}";
  }
  out << "\n]";
}

namespace {

volatile size_t calibration_sink = 0;

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

bool NumericClose(const Value& a, const Value& b, double rel_tol) {
  if (a.type() != ValueType::kDouble && b.type() != ValueType::kDouble) {
    return a == b;
  }
  if (!a.is_numeric() || !b.is_numeric()) return false;
  double x = a.NumericAsDouble();
  double y = b.NumericAsDouble();
  double scale = std::max({std::fabs(x), std::fabs(y), 1.0});
  return std::fabs(x - y) <= rel_tol * scale;
}

bool RowClose(const Row& a, const Row& b, double rel_tol) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type() == ValueType::kDouble ||
        b[i].type() == ValueType::kDouble) {
      if (!NumericClose(a[i], b[i], rel_tol)) return false;
    } else if (a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

// Orders rows by their non-double cells only (doubles compare equal),
// so rows that differ only by aggregate rounding land side by side.
bool KeyLess(const Row& a, const Row& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    bool da = a[i].type() == ValueType::kDouble;
    bool db = b[i].type() == ValueType::kDouble;
    if (da && db) continue;
    if (da != db) return da < db;
    int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

std::string RowText(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    out += (i == 0 ? "" : ", ") + row[i].ToString();
  }
  return out + ")";
}

}  // namespace

ResultShape ShapeOf(const Relation& relation) {
  ResultShape shape;
  shape.rows = relation.size();
  for (const Row& row : relation.rows()) {
    uint64_t h = 0x51ed270b27a3d9f1ULL;
    for (const Value& v : row) {
      h = Mix(h, static_cast<uint64_t>(v.type()));
      h = Mix(h, v.Hash());
    }
    shape.fingerprint += h;
  }
  return shape;
}

bool BagsMatch(const Relation& a, const Relation& b, double rel_tol,
               std::string* why) {
  if (a.size() != b.size()) {
    if (why) *why = "row counts differ: " + std::to_string(a.size()) + " vs " +
                    std::to_string(b.size());
    return false;
  }
  std::vector<Row> left = a.rows();
  std::vector<Row> right = b.rows();
  std::sort(left.begin(), left.end(), KeyLess);
  std::sort(right.begin(), right.end(), KeyLess);
  // Walk runs of equal keys; inside a run, match each left row to some
  // unused right row within tolerance (runs are almost always size 1).
  size_t i = 0;
  while (i < left.size()) {
    size_t end = i + 1;
    while (end < left.size() && !KeyLess(left[i], left[end])) ++end;
    std::vector<char> used(end - i, 0);
    for (size_t l = i; l < end; ++l) {
      bool found = false;
      for (size_t r = i; r < end && !found; ++r) {
        if (!used[r - i] && RowClose(left[l], right[r], rel_tol)) {
          used[r - i] = 1;
          found = true;
        }
      }
      if (!found) {
        if (why) *why = "no match for row " + RowText(left[l]);
        return false;
      }
    }
    i = end;
  }
  return true;
}

bool RowsMatch(const Relation& a, const Relation& b, double rel_tol,
               std::string* why) {
  if (a.size() != b.size()) {
    if (why) *why = "row counts differ: " + std::to_string(a.size()) + " vs " +
                    std::to_string(b.size());
    return false;
  }
  const std::vector<Row>& left = a.rows();
  const std::vector<Row>& right = b.rows();
  for (size_t i = 0; i < left.size(); ++i) {
    if (!RowClose(left[i], right[i], rel_tol)) {
      if (why) *why = "row " + std::to_string(i) + ": " + RowText(left[i]) +
                      " vs " + RowText(right[i]);
      return false;
    }
  }
  return true;
}

bool SnapshotsMatch(const Relation& a, const Relation& b, double rel_tol,
                    std::string* why) {
  std::set<int64_t> endpoints;
  for (const Relation* r : {&a, &b}) {
    const size_t n = r->schema().size();
    if (n < 2) {
      if (why) *why = "not an interval-encoded result";
      return false;
    }
    for (const Row& row : r->rows()) {
      endpoints.insert(row[n - 2].AsInt());
      endpoints.insert(row[n - 1].AsInt());
    }
  }
  for (int64_t t : endpoints) {
    std::string diff;
    if (!BagsMatch(periodk::TimesliceEncoded(a, t),
                   periodk::TimesliceEncoded(b, t), rel_tol, &diff)) {
      if (why) *why = "snapshot at " + std::to_string(t) + ": " + diff;
      return false;
    }
  }
  return true;
}

double CalibrationSeconds() {
  constexpr size_t kInts = 1 << 16;
  std::vector<uint64_t> ints(kInts);
  uint64_t x = 88172645463325252ULL;  // xorshift64: the same input every call
  for (uint64_t& v : ints) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = x;
  }
  const double start = NowSeconds();
  std::vector<uint64_t> sorted = ints;
  std::sort(sorted.begin(), sorted.end());
  std::unordered_map<uint64_t, uint32_t> map;
  for (size_t i = 0; i < kInts / 2; ++i) {
    map[ints[i]] = static_cast<uint32_t>(i);
  }
  size_t hits = 0;
  for (uint64_t v : ints) hits += map.count(v);
  std::vector<std::string> strings;
  for (size_t i = 0; i < 8192; ++i) {
    strings.push_back(std::to_string(ints[i]) + "-v");
  }
  std::sort(strings.begin(), strings.end());
  uint64_t sum = 0;
  for (uint64_t round = 0; round < 8; ++round) {
    std::vector<uint64_t> fresh(kInts);
    for (size_t i = 0; i < kInts; ++i) fresh[i] = i * 2654435761u + round;
    std::vector<uint64_t> copy = fresh;
    for (size_t i = 0; i < kInts; i += 8) sum += copy[i];
  }
  const double elapsed = NowSeconds() - start;
  // Keep the work observable so it cannot be optimized away.
  calibration_sink = hits + sorted[kInts / 2] + strings.front().size() + sum;
  return elapsed;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
