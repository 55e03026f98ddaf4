#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/changefeed.h"

namespace agis::storage {
namespace {

ChangeRecord Record(geodb::ObjectId id) {
  ChangeRecord r;
  r.kind = ChangeKind::kUpdate;
  r.class_name = "Pole";
  r.object_id = id;
  return r;
}

// Writers publish while consumers poll/ack and churn subscriptions;
// run under TSan via `ctest -L concurrency`.
TEST(ChangefeedConcurrency, ConcurrentPublishPollAckUnsubscribe) {
  constexpr int kWriters = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerWriter = 2000;
  Changefeed feed(256);

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&feed, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        feed.Publish(Record(static_cast<geodb::ObjectId>(w * kPerWriter + i)));
      }
    });
  }
  std::atomic<uint64_t> consumed{0};
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&feed, &stop, &consumed] {
      const Changefeed::SubscriberId sub = feed.Subscribe();
      uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const ChangefeedPoll poll = feed.Poll(sub, 64);
        if (!poll.resync) {
          // Sequences arrive in order with no duplicates between acks.
          for (const ChangeRecord& r : poll.records) {
            EXPECT_GT(r.seq, last);
            last = r.seq;
          }
          consumed.fetch_add(poll.records.size(), std::memory_order_relaxed);
        } else {
          last = poll.next_seq;
        }
        if (poll.next_seq != 0) {
          ASSERT_TRUE(feed.Ack(sub, poll.next_seq).ok());
        }
        std::this_thread::yield();
      }
      feed.Unsubscribe(sub);
    });
  }
  // Subscription churn: subscribe/unsubscribe while publishes run.
  threads.emplace_back([&feed, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const Changefeed::SubscriberId sub = feed.SubscribeFrom(0);
      (void)feed.Poll(sub, 8);
      (void)feed.Lag(sub);
      feed.Unsubscribe(sub);
      std::this_thread::yield();
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(feed.head_seq(), static_cast<uint64_t>(kWriters * kPerWriter));
  EXPECT_EQ(feed.stats().published, static_cast<uint64_t>(kWriters * kPerWriter));
}

// A subscriber that never polls must not slow or block writers: the
// ring drops its tail instead of waiting (bounded memory, bounded
// publish cost). The subscriber then recovers via resync.
TEST(ChangefeedConcurrency, NonPollingSubscriberNeverBlocksWriters) {
  Changefeed feed(64);
  const Changefeed::SubscriberId idle = feed.Subscribe();

  constexpr int kWrites = 20000;
  std::thread writer([&feed] {
    for (int i = 0; i < kWrites; ++i) {
      feed.Publish(Record(static_cast<geodb::ObjectId>(i + 1)));
    }
  });
  writer.join();

  EXPECT_EQ(feed.head_seq(), static_cast<uint64_t>(kWrites));
  EXPECT_EQ(feed.stats().dropped, static_cast<uint64_t>(kWrites - 64));
  EXPECT_EQ(feed.Lag(idle), static_cast<uint64_t>(kWrites));

  const ChangefeedPoll poll = feed.Poll(idle);
  EXPECT_TRUE(poll.resync);
  EXPECT_EQ(poll.next_seq, static_cast<uint64_t>(kWrites));
  EXPECT_EQ(feed.Lag(idle), 0u);
}

// A listener removed while writers publish is never called after
// RemovePublishListener returns, and while registered it sees every
// publish exactly once.
TEST(ChangefeedConcurrency, RemovedListenerIsNeverCalledAgain) {
  constexpr int kWriters = 3;
  constexpr int kPerWriter = 2000;
  Changefeed feed(256);
  std::atomic<bool> removed{false};
  std::atomic<uint64_t> late_calls{0};
  std::atomic<uint64_t> removed_calls{0};
  std::atomic<uint64_t> kept_calls{0};
  const Changefeed::ListenerId doomed = feed.AddPublishListener([&](uint64_t) {
    removed_calls.fetch_add(1, std::memory_order_relaxed);
    if (removed.load(std::memory_order_acquire)) {
      late_calls.fetch_add(1, std::memory_order_relaxed);
    }
  });
  feed.AddPublishListener([&](uint64_t) {
    kept_calls.fetch_add(1, std::memory_order_relaxed);
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&feed, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        feed.Publish(Record(static_cast<geodb::ObjectId>(w * kPerWriter + i)));
      }
    });
  }
  while (removed_calls.load(std::memory_order_relaxed) < kPerWriter) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(feed.RemovePublishListener(doomed));
  removed.store(true, std::memory_order_release);
  for (std::thread& t : writers) t.join();

  EXPECT_EQ(late_calls.load(), 0u);
  EXPECT_EQ(kept_calls.load(), static_cast<uint64_t>(kWriters * kPerWriter));
  EXPECT_EQ(feed.head_seq(), static_cast<uint64_t>(kWriters * kPerWriter));
}

}  // namespace
}  // namespace agis::storage
