#include "storage/changefeed.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "geodb/database.h"
#include "geom/geometry.h"

namespace agis::storage {
namespace {

ChangeRecord Record(ChangeKind kind, const std::string& class_name,
                    geodb::ObjectId id) {
  ChangeRecord r;
  r.kind = kind;
  r.class_name = class_name;
  r.object_id = id;
  return r;
}

TEST(Changefeed, PublishAssignsContiguousSequences) {
  Changefeed feed(8);
  EXPECT_EQ(feed.head_seq(), 0u);
  EXPECT_EQ(feed.Publish(Record(ChangeKind::kInsert, "Pole", 1)), 1u);
  EXPECT_EQ(feed.Publish(Record(ChangeKind::kUpdate, "Pole", 1)), 2u);
  EXPECT_EQ(feed.Publish(Record(ChangeKind::kDelete, "Pole", 1)), 3u);
  EXPECT_EQ(feed.head_seq(), 3u);
  EXPECT_EQ(feed.stats().published, 3u);
  EXPECT_EQ(feed.stats().tail_seq, 1u);
}

TEST(Changefeed, SubscribeSeesOnlyLaterRecords) {
  Changefeed feed(8);
  feed.Publish(Record(ChangeKind::kInsert, "Pole", 1));
  const Changefeed::SubscriberId sub = feed.Subscribe();
  EXPECT_EQ(feed.Poll(sub).records.size(), 0u);

  feed.Publish(Record(ChangeKind::kInsert, "Pole", 2));
  feed.Publish(Record(ChangeKind::kUpdate, "Pole", 2));
  ChangefeedPoll poll = feed.Poll(sub);
  ASSERT_EQ(poll.records.size(), 2u);
  EXPECT_FALSE(poll.resync);
  EXPECT_EQ(poll.records[0].seq, 2u);
  EXPECT_EQ(poll.records[0].object_id, 2u);
  EXPECT_EQ(poll.records[1].seq, 3u);
  EXPECT_EQ(poll.next_seq, 3u);
}

TEST(Changefeed, PollIsRepeatableUntilAck) {
  Changefeed feed(8);
  const Changefeed::SubscriberId sub = feed.Subscribe();
  feed.Publish(Record(ChangeKind::kInsert, "Pole", 1));
  feed.Publish(Record(ChangeKind::kInsert, "Pole", 2));

  // At-least-once: the cursor only moves on Ack.
  EXPECT_EQ(feed.Poll(sub).records.size(), 2u);
  EXPECT_EQ(feed.Poll(sub).records.size(), 2u);
  EXPECT_EQ(feed.Lag(sub), 2u);

  ASSERT_TRUE(feed.Ack(sub, 1).ok());
  ChangefeedPoll poll = feed.Poll(sub);
  ASSERT_EQ(poll.records.size(), 1u);
  EXPECT_EQ(poll.records[0].seq, 2u);
  ASSERT_TRUE(feed.Ack(sub, poll.next_seq).ok());
  EXPECT_EQ(feed.Poll(sub).records.size(), 0u);
  EXPECT_EQ(feed.Lag(sub), 0u);
}

TEST(Changefeed, MaxRecordsBoundsTheBatch) {
  Changefeed feed(16);
  const Changefeed::SubscriberId sub = feed.Subscribe();
  for (int i = 0; i < 5; ++i) {
    feed.Publish(Record(ChangeKind::kInsert, "Pole", i + 1));
  }
  ChangefeedPoll poll = feed.Poll(sub, 2);
  ASSERT_EQ(poll.records.size(), 2u);
  EXPECT_EQ(poll.next_seq, 2u);
  ASSERT_TRUE(feed.Ack(sub, poll.next_seq).ok());
  EXPECT_EQ(feed.Poll(sub).records.size(), 3u);
}

TEST(Changefeed, ReplayFromSequence) {
  Changefeed feed(16);
  for (int i = 0; i < 6; ++i) {
    feed.Publish(Record(ChangeKind::kInsert, "Pole", i + 1));
  }
  const Changefeed::SubscriberId sub = feed.SubscribeFrom(3);
  ChangefeedPoll poll = feed.Poll(sub);
  ASSERT_EQ(poll.records.size(), 3u);
  EXPECT_FALSE(poll.resync);
  EXPECT_EQ(poll.records.front().seq, 4u);
  EXPECT_EQ(poll.records.back().seq, 6u);
}

TEST(Changefeed, RingBoundDropsOldestAndForcesResync) {
  Changefeed feed(4);
  const Changefeed::SubscriberId lagging = feed.Subscribe();
  for (int i = 0; i < 10; ++i) {
    feed.Publish(Record(ChangeKind::kInsert, "Pole", i + 1));
  }
  EXPECT_EQ(feed.stats().dropped, 6u);
  EXPECT_EQ(feed.stats().tail_seq, 7u);
  EXPECT_EQ(feed.Lag(lagging), 10u);

  // The subscriber's next records (1..6) are gone: drop to resync.
  ChangefeedPoll poll = feed.Poll(lagging);
  EXPECT_TRUE(poll.resync);
  EXPECT_TRUE(poll.records.empty());
  EXPECT_EQ(poll.next_seq, 10u);
  EXPECT_EQ(feed.stats().resyncs, 1u);
  // The resync jumped the cursor to the head: lag is gone and
  // subsequent polls deliver deltas again.
  EXPECT_EQ(feed.Lag(lagging), 0u);
  feed.Publish(Record(ChangeKind::kInsert, "Pole", 11));
  poll = feed.Poll(lagging);
  EXPECT_FALSE(poll.resync);
  ASSERT_EQ(poll.records.size(), 1u);
  EXPECT_EQ(poll.records[0].seq, 11u);
}

TEST(Changefeed, SubscribeFromBeforeTailResyncs) {
  Changefeed feed(2);
  for (int i = 0; i < 6; ++i) {
    feed.Publish(Record(ChangeKind::kInsert, "Pole", i + 1));
  }
  const Changefeed::SubscriberId sub = feed.SubscribeFrom(1);
  ChangefeedPoll poll = feed.Poll(sub);
  EXPECT_TRUE(poll.resync);
  EXPECT_EQ(poll.next_seq, 6u);
}

TEST(Changefeed, PartiallyLaggedSubscriberStillReplaysRetainedTail) {
  Changefeed feed(4);
  const Changefeed::SubscriberId sub = feed.Subscribe();
  for (int i = 0; i < 4; ++i) {
    feed.Publish(Record(ChangeKind::kInsert, "Pole", i + 1));
  }
  ASSERT_TRUE(feed.Ack(sub, 2).ok());
  // Two more pushes drop records 1 and 2 — both already acked, so the
  // subscriber's next record (3) is still retained. No resync.
  feed.Publish(Record(ChangeKind::kInsert, "Pole", 5));
  feed.Publish(Record(ChangeKind::kInsert, "Pole", 6));
  ChangefeedPoll poll = feed.Poll(sub);
  EXPECT_FALSE(poll.resync);
  ASSERT_EQ(poll.records.size(), 4u);
  EXPECT_EQ(poll.records.front().seq, 3u);
}

TEST(Changefeed, UnsubscribeForgetsTheCursor) {
  Changefeed feed(8);
  const Changefeed::SubscriberId sub = feed.Subscribe();
  EXPECT_EQ(feed.stats().subscribers, 1u);
  EXPECT_TRUE(feed.Unsubscribe(sub));
  EXPECT_FALSE(feed.Unsubscribe(sub));
  EXPECT_EQ(feed.stats().subscribers, 0u);
  EXPECT_TRUE(feed.Poll(sub).records.empty());
  EXPECT_TRUE(feed.Ack(sub, 1).IsNotFound());
  EXPECT_EQ(feed.Lag(sub), 0u);
}

TEST(Changefeed, AckClampsAndNeverRewinds) {
  Changefeed feed(8);
  const Changefeed::SubscriberId sub = feed.Subscribe();
  feed.Publish(Record(ChangeKind::kInsert, "Pole", 1));
  feed.Publish(Record(ChangeKind::kInsert, "Pole", 2));
  ASSERT_TRUE(feed.Ack(sub, 2).ok());
  // Acking backwards is a no-op, not a rewind.
  ASSERT_TRUE(feed.Ack(sub, 1).ok());
  EXPECT_EQ(feed.Lag(sub), 0u);
}

// Regression: Ack used to accept a seq beyond the published head
// silently, letting a (remote) consumer advance its cursor past
// records that don't exist yet. The cursor must clamp to the head and
// the caller must learn its ack was malformed.
TEST(Changefeed, AckBeyondHeadIsAnErrorAndClampsToHead) {
  Changefeed feed(8);
  const Changefeed::SubscriberId sub = feed.Subscribe();
  feed.Publish(Record(ChangeKind::kInsert, "Pole", 1));
  feed.Publish(Record(ChangeKind::kInsert, "Pole", 2));

  const agis::Status status = feed.Ack(sub, 99);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsOutOfRange()) << status.ToString();

  // The cursor clamped to the head: records published afterwards are
  // still delivered (a cursor past the head would have skipped them).
  EXPECT_EQ(feed.Lag(sub), 0u);
  feed.Publish(Record(ChangeKind::kInsert, "Pole", 3));
  ChangefeedPoll poll = feed.Poll(sub);
  ASSERT_EQ(poll.records.size(), 1u);
  EXPECT_EQ(poll.records[0].seq, 3u);

  // In-range acks keep working after the rejected one.
  ASSERT_TRUE(feed.Ack(sub, poll.next_seq).ok());
  EXPECT_EQ(feed.Lag(sub), 0u);
}

TEST(Changefeed, PublishListenersFireOncePerPublishOutsideTheMutex) {
  Changefeed feed(8);
  std::vector<uint64_t> seen;
  std::vector<uint64_t> heads_seen;
  // A listener run under the feed mutex would leave these head reads
  // blocked; they are kept here so a timed-out one is not joined
  // inside the listener.
  std::vector<std::future<uint64_t>> blocked;
  const Changefeed::ListenerId first =
      feed.AddPublishListener([&](uint64_t seq) {
        seen.push_back(seq);
        auto head = std::async(std::launch::async,
                               [&feed] { return feed.head_seq(); });
        if (head.wait_for(std::chrono::seconds(5)) ==
            std::future_status::ready) {
          heads_seen.push_back(head.get());
        } else {
          blocked.push_back(std::move(head));
        }
      });
  int second_calls = 0;
  const Changefeed::ListenerId second =
      feed.AddPublishListener([&](uint64_t) { ++second_calls; });
  EXPECT_NE(first, second);

  EXPECT_EQ(feed.Publish(Record(ChangeKind::kInsert, "Pole", 1)), 1u);
  EXPECT_EQ(feed.Publish(Record(ChangeKind::kUpdate, "Pole", 1)), 2u);
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 2}));
  // The record is visible to other threads by the time listeners run.
  EXPECT_EQ(heads_seen, (std::vector<uint64_t>{1, 2}));
  EXPECT_TRUE(blocked.empty());
  EXPECT_EQ(second_calls, 2);

  EXPECT_TRUE(feed.RemovePublishListener(second));
  EXPECT_FALSE(feed.RemovePublishListener(second));
  feed.Publish(Record(ChangeKind::kDelete, "Pole", 1));
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(second_calls, 2);

  EXPECT_TRUE(feed.RemovePublishListener(first));
  feed.Publish(Record(ChangeKind::kInsert, "Pole", 2));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Changefeed, ToStringNamesTheDelta) {
  ChangeRecord r = Record(ChangeKind::kUpdate, "Pole", 7);
  r.seq = 12;
  r.write_epoch = 34;
  r.changed_attributes = {"pole_type"};
  const std::string s = r.ToString();
  EXPECT_NE(s.find("update"), std::string::npos);
  EXPECT_NE(s.find("Pole"), std::string::npos);
  EXPECT_NE(s.find("7"), std::string::npos);
  EXPECT_NE(s.find("pole_type"), std::string::npos);
}

// ---- DbEventSink integration: fed from a live GeoDatabase ----------------

class ChangefeedDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<geodb::GeoDatabase>("test_schema");
    feed_ = std::make_unique<Changefeed>(64);
    db_->AddEventSink(feed_.get());
    geodb::ClassDef pole("Pole", "");
    ASSERT_TRUE(
        pole.AddAttribute(geodb::AttributeDef::Int("pole_type")).ok());
    ASSERT_TRUE(
        pole.AddAttribute(geodb::AttributeDef::Geometry("pole_location"))
            .ok());
    ASSERT_TRUE(db_->RegisterClass(std::move(pole)).ok());
  }

  void TearDown() override { db_->RemoveEventSink(feed_.get()); }

  std::unique_ptr<geodb::GeoDatabase> db_;
  std::unique_ptr<Changefeed> feed_;
};

TEST_F(ChangefeedDbTest, WritesBecomeRecordsWithEpochAndAttributes) {
  // Subscribe after RegisterClass so the first record is the insert.
  const Changefeed::SubscriberId sub = feed_->Subscribe();
  auto id = db_->Insert(
      "Pole", {{"pole_type", geodb::Value::Int(2)},
               {"pole_location", geodb::Value::MakeGeometry(
                                     geom::Geometry::FromPoint({1, 2}))}});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(
      db_->Update(id.value(), "pole_type", geodb::Value::Int(3)).ok());
  ASSERT_TRUE(db_->Delete(id.value()).ok());

  ChangefeedPoll poll = feed_->Poll(sub);
  ASSERT_EQ(poll.records.size(), 3u);

  const ChangeRecord& insert = poll.records[0];
  EXPECT_EQ(insert.kind, ChangeKind::kInsert);
  EXPECT_EQ(insert.class_name, "Pole");
  EXPECT_EQ(insert.object_id, id.value());
  EXPECT_GT(insert.write_epoch, 0u);
  ASSERT_EQ(insert.changed_attributes.size(), 2u);
  EXPECT_NE(std::find(insert.changed_attributes.begin(),
                      insert.changed_attributes.end(), "pole_type"),
            insert.changed_attributes.end());
  EXPECT_NE(std::find(insert.changed_attributes.begin(),
                      insert.changed_attributes.end(), "pole_location"),
            insert.changed_attributes.end());

  const ChangeRecord& update = poll.records[1];
  EXPECT_EQ(update.kind, ChangeKind::kUpdate);
  EXPECT_EQ(update.changed_attributes,
            std::vector<std::string>{"pole_type"});
  EXPECT_GT(update.write_epoch, insert.write_epoch);

  const ChangeRecord& del = poll.records[2];
  EXPECT_EQ(del.kind, ChangeKind::kDelete);
  EXPECT_EQ(del.object_id, id.value());
  EXPECT_TRUE(del.changed_attributes.empty());

  // Write epochs are the WAL's total order: strictly increasing.
  EXPECT_GT(del.write_epoch, update.write_epoch);
}

TEST_F(ChangefeedDbTest, RegisterClassEmitsSchemaRecord) {
  const Changefeed::SubscriberId sub = feed_->Subscribe();
  geodb::ClassDef duct("Duct", "");
  ASSERT_TRUE(db_->RegisterClass(std::move(duct)).ok());
  ChangefeedPoll poll = feed_->Poll(sub);
  ASSERT_EQ(poll.records.size(), 1u);
  EXPECT_EQ(poll.records[0].kind, ChangeKind::kSchema);
  EXPECT_EQ(poll.records[0].class_name, "Duct");
  EXPECT_EQ(poll.records[0].object_id, 0u);
}

TEST_F(ChangefeedDbTest, ReadsPublishNothing) {
  const Changefeed::SubscriberId sub = feed_->Subscribe();
  auto id = db_->Insert("Pole", {{"pole_type", geodb::Value::Int(1)}});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db_->GetClass("Pole").ok());
  ASSERT_TRUE(db_->ScanExtent("Pole").ok());
  ChangefeedPoll poll = feed_->Poll(sub);
  ASSERT_EQ(poll.records.size(), 1u);  // Just the insert.
  EXPECT_EQ(poll.records[0].kind, ChangeKind::kInsert);
}

}  // namespace
}  // namespace agis::storage
