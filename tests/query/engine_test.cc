#include "query/engine.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "geodb/database.h"
#include "geodb/shard_router.h"
#include "storage/changefeed.h"
#include "workload/phone_net.h"

namespace agis::query {
namespace {

using geodb::Value;

/// Queries every equivalence test runs — simple, correlated, boolean,
/// arithmetic, spatial, ordered, paged.
const char* kQueries[] = {
    "select Pole",
    "select Pole where pole_type >= 2",
    "select Pole where pole_type = 1 and status = 'active'",
    "select Pole where pole_type = 1 or pole_type = 3",
    "select Pole where not status = 'repair'",
    "select Pole where install_year + 10 < 1990",
    "select Pole where inside POLYGON ((0 0, 500 0, 500 500, 0 500))",
    "select NetworkElement with subclasses where status = 'active'",
    "select Pole where pole_type < 3 order by install_year desc, "
    "pole_type limit 20",
    "select Pole order by nearest POINT (250 250) limit 10",
    "select Pole where pole_type = 2 limit 7 offset 3",
};

std::unique_ptr<geodb::Database> MakeDb(size_t shards) {
  std::unique_ptr<geodb::Database> db;
  if (shards <= 1) {
    db = std::make_unique<geodb::GeoDatabase>("phone_net");
  } else {
    geodb::RouterOptions options;
    options.shard_count = shards;
    db = std::make_unique<geodb::ShardRouter>("phone_net", options);
  }
  EXPECT_TRUE(workload::BuildPhoneNetwork(db.get()).ok());
  return db;
}

std::vector<std::vector<geodb::ObjectId>> RunAll(QueryEngine* engine) {
  std::vector<std::vector<geodb::ObjectId>> out;
  for (const char* text : kQueries) {
    auto result = engine->ExecuteText(text);
    EXPECT_TRUE(result.ok()) << text << ": " << result.status();
    out.push_back(result.ok() ? result.value().ids
                              : std::vector<geodb::ObjectId>{});
  }
  return out;
}

TEST(QueryEngineEquivalence, CacheOnOffAndShardCountsAgreeByteForByte) {
  // Reference: unsharded, cache off.
  auto reference_db = MakeDb(1);
  QueryEngineOptions no_cache;
  no_cache.cache_bytes = 0;
  QueryEngine reference(reference_db.get(), no_cache);
  const auto expected = RunAll(&reference);

  for (size_t shards : {1u, 2u, 4u}) {
    for (bool cached : {false, true}) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards
                                      << " cached=" << cached);
      auto db = MakeDb(shards);
      QueryEngineOptions options;
      options.cache_bytes = cached ? (4u << 20) : 0u;
      QueryEngine engine(db.get(), options);
      EXPECT_EQ(RunAll(&engine), expected);
      if (cached) {
        // Second pass must serve byte-identical results from cache.
        EXPECT_EQ(RunAll(&engine), expected);
        EXPECT_GT(engine.stats().cache_hits, 0u);
      }
    }
  }
}

TEST(QueryEngineEquivalence, MatchesLegacyGetClassSemantics) {
  auto db = MakeDb(1);
  QueryEngine engine(db.get());

  geodb::GetClassOptions options;
  options.use_buffer_pool = false;
  options.predicates.push_back(geodb::AttrPredicate{
      "pole_type", geodb::CompareOp::kGe, Value::Int(2)});
  auto legacy = db->GetClass("Pole", options);
  ASSERT_TRUE(legacy.ok());

  auto modern = engine.ExecuteText("select Pole where pole_type >= 2");
  ASSERT_TRUE(modern.ok()) << modern.status();
  std::vector<geodb::ObjectId> legacy_ids = legacy.value().ids;
  std::vector<geodb::ObjectId> modern_ids = modern.value().ids;
  std::sort(legacy_ids.begin(), legacy_ids.end());
  std::sort(modern_ids.begin(), modern_ids.end());
  EXPECT_EQ(modern_ids, legacy_ids);
}

TEST(QueryEngine, OrderingAndPagingAreDeterministic) {
  auto db = MakeDb(1);
  QueryEngine engine(db.get());

  auto all = engine.ExecuteText("select Pole order by install_year");
  ASSERT_TRUE(all.ok());
  const geodb::Snapshot snap = db->OpenSnapshot();
  int64_t prev = INT64_MIN;
  for (geodb::ObjectId id : all.value().ids) {
    const geodb::ObjectInstance* obj = db->FindObjectAt(snap, id);
    ASSERT_NE(obj, nullptr);
    const int64_t year = obj->Get("install_year").int_value();
    EXPECT_GE(year, prev);
    prev = year;
  }

  // Paging slices the same deterministic order.
  auto page = engine.ExecuteText(
      "select Pole order by install_year limit 5 offset 10");
  ASSERT_TRUE(page.ok());
  ASSERT_EQ(page.value().ids.size(), 5u);
  EXPECT_EQ(page.value().total_matched, all.value().ids.size());
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(page.value().ids[i], all.value().ids[10 + i]);
  }
}

TEST(QueryEngine, NullsSortLastInBothDirections) {
  auto db = MakeDb(1);
  QueryEngine engine(db.get());
  auto all = engine.ExecuteText("select Pole");
  ASSERT_TRUE(all.ok());
  const std::vector<geodb::ObjectId> poles = all.value().ids;
  ASSERT_GT(poles.size(), 60u);
  // About 3% of the poles lose their install year.
  std::map<geodb::ObjectId, std::optional<int64_t>> year;
  const geodb::Snapshot before = db->OpenSnapshot();
  for (size_t i = 0; i < poles.size(); ++i) {
    if (i % 33 == 7) {
      ASSERT_TRUE(db->Update(poles[i], "install_year", Value()).ok());
      year[poles[i]] = std::nullopt;
    } else {
      year[poles[i]] =
          db->FindObjectAt(before, poles[i])->Get("install_year").int_value();
    }
  }

  for (const bool descending : {false, true}) {
    SCOPED_TRACE(descending ? "desc" : "asc");
    // Brute force: years in the requested direction, nulls last, ties
    // by ascending id.
    std::vector<geodb::ObjectId> expected = poles;
    std::sort(expected.begin(), expected.end(),
              [&](geodb::ObjectId a, geodb::ObjectId b) {
                const auto& ya = year[a];
                const auto& yb = year[b];
                if (ya.has_value() != yb.has_value()) return ya.has_value();
                if (ya.has_value() && *ya != *yb) {
                  return descending ? *ya > *yb : *ya < *yb;
                }
                return a < b;
              });
    const std::string order =
        descending ? " order by install_year desc" : " order by install_year";
    auto full = engine.ExecuteText("select Pole" + order);
    ASSERT_TRUE(full.ok()) << full.status();
    EXPECT_EQ(full.value().ids, expected);
    auto top = engine.ExecuteText("select Pole" + order + " limit 10");
    ASSERT_TRUE(top.ok()) << top.status();
    EXPECT_EQ(top.value().ids,
              std::vector<geodb::ObjectId>(expected.begin(),
                                           expected.begin() + 10));
  }
}

TEST(QueryEngine, UnorderableKeysFallBackToAscendingIds) {
  auto db = MakeDb(1);
  QueryEngine engine(db.get());
  auto all = engine.ExecuteText("select Pole");
  ASSERT_TRUE(all.ok());
  ASSERT_GE(all.value().ids.size(), 5u);
  // Tuples do not order under CompareValues: every pair ties, and the
  // id decides.
  auto ordered =
      engine.ExecuteText("select Pole order by pole_composition limit 5");
  ASSERT_TRUE(ordered.ok()) << ordered.status();
  EXPECT_EQ(ordered.value().ids,
            std::vector<geodb::ObjectId>(all.value().ids.begin(),
                                         all.value().ids.begin() + 5));
}

TEST(QueryEngine, StampValidationKeepsCacheFreshAcrossWrites) {
  auto db = MakeDb(1);
  QueryEngine engine(db.get());  // validate_stamps defaults on.

  auto before = engine.ExecuteText("select Pole where pole_type = 1");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(db->Insert("Pole", {{"pole_type", Value::Int(1)},
                                  {"status", Value::String("active")}})
                  .ok());
  auto after = engine.ExecuteText("select Pole where pole_type = 1");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().from_cache);
  EXPECT_EQ(after.value().ids.size(), before.value().ids.size() + 1);
}

/// The stale-read regression: with stamp validation off, the
/// changefeed subscription is the ONLY thing standing between the
/// cache and stale answers. Without it the second read is provably
/// stale; with it the same sequence stays fresh.
TEST(QueryEngine, ChangefeedInvalidationPreventsStaleReads) {
  const char* kText = "select Pole where pole_type = 1";

  QueryEngineOptions options;
  options.validate_stamps = false;

  {
    // No changefeed: the cache happily serves the pre-write answer.
    auto db = MakeDb(1);
    QueryEngine engine(db.get(), options);
    auto before = engine.ExecuteText(kText);
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(db->Insert("Pole", {{"pole_type", Value::Int(1)}}).ok());
    auto stale = engine.ExecuteText(kText);
    ASSERT_TRUE(stale.ok());
    EXPECT_TRUE(stale.value().from_cache);
    EXPECT_EQ(stale.value().ids.size(), before.value().ids.size());
  }
  {
    // Changefeed attached: the write's delta evicts the entry first.
    auto db = MakeDb(1);
    storage::Changefeed feed(1024);
    db->AddEventSink(&feed);
    QueryEngine engine(db.get(), options);
    engine.AttachChangefeed(&feed);
    auto before = engine.ExecuteText(kText);
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(db->Insert("Pole", {{"pole_type", Value::Int(1)}}).ok());
    auto fresh = engine.ExecuteText(kText);
    ASSERT_TRUE(fresh.ok());
    EXPECT_FALSE(fresh.value().from_cache);
    EXPECT_EQ(fresh.value().ids.size(), before.value().ids.size() + 1);
    engine.DetachChangefeed();
    db->RemoveEventSink(&feed);
  }
}

TEST(QueryEngine, EquivalentQueriesShareOneCacheEntry) {
  auto db = MakeDb(1);
  QueryEngine engine(db.get());

  auto a = engine.ExecuteText(
      "select Pole where pole_type = 1 and status = 'active'");
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(a.value().from_cache);
  // Reordered conjuncts + double negation normalize to the same key.
  auto b = engine.ExecuteText(
      "select Pole where status = 'active' and not not pole_type = 1");
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b.value().from_cache);
  EXPECT_EQ(b.value().ids, a.value().ids);
}

TEST(QueryEngine, ExplainShowsPlanAndErrorsPropagate) {
  auto db = MakeDb(1);
  QueryEngine engine(db.get());
  auto explain = engine.ExplainText("select Pole where pole_type = 1");
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_NE(explain.value().find("Pole"), std::string::npos);

  EXPECT_TRUE(engine.ExecuteText("select Missing").status().IsNotFound());
  EXPECT_TRUE(engine.ExecuteText("nonsense").status().IsParseError());
}

}  // namespace
}  // namespace agis::query
