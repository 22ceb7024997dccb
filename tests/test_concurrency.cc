// Concurrent serving smoke test: reader threads issue (cached) queries
// while a writer mutates the catalog with Insert and PutPeriodTable.
// Snapshot isolation must make every observed result equal to the
// query's answer over *some* published catalog state — no torn reads,
// no mixed schemas, no crashes.  Run under TSan/ASan in CI; the
// assertions here are linearizability checks that hold on any schedule.
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/str_util.h"
#include "engine/column.h"
#include "engine/temporal_ops.h"
#include "engine/timeline_index.h"
#include "middleware/temporal_db.h"

namespace periodk {
namespace {

TEST(ConcurrencyTest, ReadersObservePrefixConsistentInsertCounts) {
  TemporalDB db(TimeDomain{0, 1000});
  ASSERT_TRUE(
      db.CreatePeriodTable("t", {"v", "ts", "te"}, "ts", "te").ok());

  constexpr int kInserts = 300;
  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 150;

  // started/completed bracket every insert: a query that begins after
  // insert i completed must see at least i+1 rows, and can never see
  // more rows than inserts started.
  std::atomic<int> started{0};
  std::atomic<int> completed{0};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    for (int i = 0; i < kInserts; ++i) {
      started.fetch_add(1);
      Status status = db.Insert(
          "t", {Value::Int(i), Value::Int(0), Value::Int(100)});
      if (!status.ok()) {
        failed.store(true);
        return;
      }
      completed.fetch_add(1);
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // Alternate a plain aggregate with a snapshot (SEQ VT) statement
      // so both the direct and the rewritten serving paths run hot
      // against the plan cache while it is being invalidated.
      const std::string plain = "SELECT count(*) AS c FROM t";
      const std::string seq =
          "SEQ VT AS OF 50 (SELECT count(*) AS c FROM t)";
      for (int q = 0; q < kQueriesPerReader; ++q) {
        int floor = completed.load();
        auto result = db.Query(q % 2 == 0 ? plain : seq, db.options());
        int ceiling = started.load();
        if (!result.ok()) {
          ADD_FAILURE() << "reader " << r << ": " << result.status().ToString();
          failed.store(true);
          return;
        }
        ASSERT_EQ(result->size(), 1u);
        int64_t n = result->rows()[0][0].AsInt();
        // Every row is valid at time 50, so both statements count the
        // whole table of the pinned snapshot.
        EXPECT_GE(n, floor) << "reader " << r << " query " << q;
        EXPECT_LE(n, ceiling) << "reader " << r << " query " << q;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  auto final_count = db.Query("SELECT count(*) AS c FROM t");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count->rows()[0][0].AsInt(), kInserts);
}

TEST(ConcurrencyTest, ReadersNeverObserveTornTableReplacements) {
  TemporalDB db(TimeDomain{0, 1000});
  // Each published version v of "u" holds exactly v rows, every row
  // carrying the value v: any snapshot therefore satisfies
  // count == min == max.  A reader that ever mixes two versions (a torn
  // catalog read) breaks that invariant.
  auto make_version = [](int64_t v) {
    Relation rel(Schema::FromNames({"v", "ts", "te"}));
    for (int64_t i = 0; i < v; ++i) {
      rel.AddRow({Value::Int(v), Value::Int(0), Value::Int(100)});
    }
    return rel;
  };
  ASSERT_TRUE(
      db.PutPeriodTable("u", make_version(1), "ts", "te").ok());

  constexpr int kVersions = 200;
  constexpr int kReaders = 4;
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (int64_t v = 2; v <= kVersions; ++v) {
      ASSERT_TRUE(
          db.PutPeriodTable("u", make_version(v), "ts", "te").ok());
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const std::string sql =
          "SELECT count(*) AS c, min(v) AS mn, max(v) AS mx FROM u";
      int iters = 0;
      while (!done.load() || iters < 50) {
        ++iters;
        auto result = db.Query(sql);
        if (!result.ok()) {
          ADD_FAILURE() << "reader " << r << ": " << result.status().ToString();
          return;
        }
        ASSERT_EQ(result->size(), 1u);
        const Row& row = result->rows()[0];
        int64_t count = row[0].AsInt();
        ASSERT_GE(count, 1) << "reader " << r;
        ASSERT_LE(count, kVersions) << "reader " << r;
        EXPECT_EQ(row[1].AsInt(), count) << "reader " << r << ": torn read";
        EXPECT_EQ(row[2].AsInt(), count) << "reader " << r << ": torn read";
        if (iters > 5000) break;  // bound runtime on slow schedules
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
}

// Readers racing the plan-cache enable/disable toggle and catalog
// mutations: generation-tagged entries mean a plan bound against one
// catalog state is never served against another, whatever the
// interleaving.  The correctness signal is the same count invariant.
TEST(ConcurrencyTest, PlanCacheToggleRacesStayConsistent) {
  TemporalDB db(TimeDomain{0, 1000});
  ASSERT_TRUE(
      db.CreatePeriodTable("t", {"v", "ts", "te"}, "ts", "te").ok());

  std::atomic<int> started{0};
  std::atomic<int> completed{0};
  constexpr int kMutations = 150;

  std::thread writer([&] {
    for (int i = 0; i < kMutations; ++i) {
      started.fetch_add(1);
      ASSERT_TRUE(
          db.Insert("t", {Value::Int(i), Value::Int(0), Value::Int(100)})
              .ok());
      completed.fetch_add(1);
      db.set_plan_cache_enabled(i % 2 == 0);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (int q = 0; q < 200; ++q) {
        int floor = completed.load();
        auto result = db.Query("SELECT count(*) AS c FROM t");
        int ceiling = started.load();
        ASSERT_TRUE(result.ok());
        int64_t n = result->rows()[0][0].AsInt();
        EXPECT_GE(n, floor);
        EXPECT_LE(n, ceiling);
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  db.set_plan_cache_enabled(true);
}

// Differential index maintenance under contention: reader threads issue
// indexed timeslices (both the SQL AS-OF route and the Timeslice entry
// point) while a writer streams inserts, folding the delta inline every
// few appends, so reads race compactions the whole time.  Each insert
// publishes relation + delta or folded index in one exclusive section,
// so the snapshot count invariant (floor from completed inserts,
// ceiling from started ones) must hold on every schedule; afterwards
// the index must agree with the scan path.
TEST(ConcurrencyTest, IndexedReadsRaceStreamingWritesAndCompaction) {
  TemporalDB db(TimeDomain{0, 1000});
  IndexMaintenanceOptions maint;
  // A tiny threshold keeps compactions racing throughout the run.
  maint.min_compaction_events = 16;
  maint.max_compaction_events = 16;
  db.set_index_maintenance(maint);
  ASSERT_TRUE(
      db.CreatePeriodTable("t", {"v", "ts", "te"}, "ts", "te").ok());
  // Warm the index so every append maintains it differentially instead
  // of just dropping the slot.  (The Timeslice entry point, not an
  // aggregate query: a timeslice above SplitAggregate is not indexable.)
  ASSERT_TRUE(db.Timeslice("t", 50).ok());
  ASSERT_NE(db.catalog().GetIndex("t"), nullptr);

  constexpr int kInserts = 200;
  constexpr int kReaders = 3;
  std::atomic<int> started{0};
  std::atomic<int> completed{0};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    for (int i = 0; i < kInserts; ++i) {
      started.fetch_add(1);
      Status status =
          db.Insert("t", {Value::Int(i), Value::Int(0), Value::Int(100)});
      if (!status.ok()) {
        failed.store(true);
        return;
      }
      completed.fetch_add(1);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const std::string seq = "SEQ VT AS OF 50 (SELECT v FROM t)";
      for (int q = 0; q < 120; ++q) {
        int floor = completed.load();
        int64_t n;
        if (q % 2 == 0) {
          auto result = db.Query(seq);
          int ceiling = started.load();
          if (!result.ok()) {
            ADD_FAILURE() << "reader " << r << ": "
                          << result.status().ToString();
            failed.store(true);
            return;
          }
          n = static_cast<int64_t>(result->size());
          EXPECT_LE(n, ceiling) << "reader " << r << " query " << q;
        } else {
          auto slice = db.Timeslice("t", 50);
          int ceiling = started.load();
          if (!slice.ok()) {
            ADD_FAILURE() << "reader " << r << ": "
                          << slice.status().ToString();
            failed.store(true);
            return;
          }
          n = static_cast<int64_t>(slice->size());
          EXPECT_LE(n, ceiling) << "reader " << r << " slice " << q;
        }
        // Every inserted row is valid at time 50, so any snapshot's
        // timeslice counts exactly its inserts — delta layer included.
        EXPECT_GE(n, floor) << "reader " << r << " query " << q;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  auto indexed = db.Timeslice("t", 50);
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ(indexed->size(), static_cast<size_t>(kInserts));
  RewriteOptions scan_opts = db.options();
  scan_opts.use_timeline_index = false;
  scan_opts.push_down_timeslice = false;
  auto scanned =
      db.Query("SEQ VT AS OF 50 (SELECT v FROM t)", scan_opts);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->size(), indexed->size());
  IndexMaintenanceStats stats = db.index_maintenance_stats();
  EXPECT_GT(stats.delta_publishes, 0) << stats.ToString();
  EXPECT_GT(stats.compactions, 0) << stats.ToString();
}

// The bytes of a column's typed payload (the columns below are never
// mixed).
std::pair<const char*, size_t> PayloadBytes(const ColumnData& col) {
  switch (col.tag()) {
    case ColumnTag::kInt:
      return {reinterpret_cast<const char*>(col.ints()),
              col.size() * sizeof(int64_t)};
    case ColumnTag::kDouble:
      return {reinterpret_cast<const char*>(col.doubles()),
              col.size() * sizeof(double)};
    case ColumnTag::kBool:
      return {reinterpret_cast<const char*>(col.bools()), col.size()};
    case ColumnTag::kString:
      return {reinterpret_cast<const char*>(col.codes()),
              col.size() * sizeof(uint32_t)};
    case ColumnTag::kMixed:
      break;
  }
  ADD_FAILURE() << "unexpected mixed column";
  return {nullptr, 0};
}

// Copy-on-write appends never touch a published version: readers that
// pinned one keep seeing its exact columns and AS-OF answers while a
// writer appends to the table, and no appended version shares a payload
// buffer with it (string dictionaries are immutable and may be shared).
TEST(ConcurrencyTest, PinnedVersionIsUnchangedByConcurrentAppends) {
  TemporalDB db(TimeDomain{0, 1000});
  ASSERT_TRUE(
      db.CreatePeriodTable("t", {"k", "s", "ts", "te"}, "ts", "te").ok());
  std::vector<Row> initial;
  for (int64_t i = 0; i < 500; ++i) {
    initial.push_back({Value::Int(i % 37), Value::String(StrCat("s", i % 11)),
                       Value::Int(i % 300), Value::Int(i % 300 + 1 + i % 50)});
  }
  ASSERT_TRUE(db.InsertRows("t", std::move(initial)).ok());
  // Warm the index so every append maintains it differentially.
  ASSERT_TRUE(db.Timeslice("t", 50).ok());

  // Pinned before any other thread runs, so the unsynchronized catalog
  // access is safe.
  const std::shared_ptr<const Relation> pinned = db.catalog().GetShared("t");
  const std::shared_ptr<const TimelineIndex> pinned_index =
      db.catalog().GetIndex("t");
  ASSERT_NE(pinned_index, nullptr);
  const std::vector<ColumnData> before = pinned->columns();
  const std::vector<TimePoint> times = {0, 50, 149, 299, 340, 999};
  std::vector<std::vector<Row>> want;
  for (TimePoint t : times) {
    want.push_back(TimesliceEncodedAt(*pinned, t, 2, 3).rows());
  }

  constexpr int kAppends = 120;
  // Only the writer touches the catalog while it runs; readers use the
  // pinned handles alone.
  std::vector<std::shared_ptr<const Relation>> versions;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int64_t i = 0; i < kAppends; ++i) {
      std::vector<Row> batch;
      for (int64_t j = 0; j < (i % 4 == 0 ? 8 : 1); ++j) {
        // Some rows bring new strings, so the dictionary is re-merged.
        batch.push_back({Value::Int(i), Value::String(StrCat("n", i % 7, j)),
                         Value::Int(i), Value::Int(i + 60)});
      }
      Status status = batch.size() == 1
                          ? db.Insert("t", std::move(batch.front()))
                          : db.InsertRows("t", std::move(batch));
      if (!status.ok()) {
        ADD_FAILURE() << status.ToString();
        break;
      }
      versions.push_back(db.catalog().GetShared("t"));
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      for (int iters = 0; !done.load() || iters < 20; ++iters) {
        for (size_t j = 0; j < times.size(); ++j) {
          ASSERT_EQ(TimesliceEncodedAt(*pinned, times[j], 2, 3).rows(),
                    want[j])
              << "reader " << r << " scan t=" << times[j];
          ASSERT_EQ(pinned_index->Timeslice(times[j]).rows(), want[j])
              << "reader " << r << " index t=" << times[j];
        }
        if (iters > 2000) break;  // bound runtime on slow schedules
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  ASSERT_EQ(versions.size(), static_cast<size_t>(kAppends));
  EXPECT_EQ(versions.back()->size(), 500u + 30u * 8u + 90u);
  ASSERT_EQ(pinned->size(), 500u);
  for (size_t c = 0; c < before.size(); ++c) {
    const ColumnData& col = pinned->col(c);
    ASSERT_EQ(col.tag(), before[c].tag()) << "column " << c;
    EXPECT_EQ(col.null_count(), before[c].null_count()) << "column " << c;
    auto [got, got_len] = PayloadBytes(col);
    auto [was, was_len] = PayloadBytes(before[c]);
    ASSERT_EQ(got_len, was_len) << "column " << c;
    EXPECT_EQ(std::memcmp(got, was, got_len), 0) << "column " << c;
    if (col.tag() == ColumnTag::kString) {
      EXPECT_EQ(col.dict()->values(), before[c].dict()->values());
    }
    for (const std::shared_ptr<const Relation>& version : versions) {
      auto [ptr, len] = PayloadBytes(version->col(c));
      const auto lo = reinterpret_cast<uintptr_t>(ptr);
      const auto pinned_lo = reinterpret_cast<uintptr_t>(got);
      EXPECT_TRUE(lo + len <= pinned_lo || pinned_lo + got_len <= lo)
          << "an appended version aliases column " << c;
    }
  }
  for (size_t j = 0; j < times.size(); ++j) {
    EXPECT_EQ(TimesliceEncodedAt(*pinned, times[j], 2, 3).rows(), want[j]);
    EXPECT_EQ(pinned_index->Timeslice(times[j]).rows(), want[j]);
  }
}

}  // namespace
}  // namespace periodk
