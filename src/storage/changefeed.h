#ifndef AGIS_STORAGE_CHANGEFEED_H_
#define AGIS_STORAGE_CHANGEFEED_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "base/status.h"
#include "geodb/events.h"
#include "geodb/value.h"

namespace agis::storage {

/// Kind of one changefeed delta.
enum class ChangeKind { kInsert, kUpdate, kDelete, kSchema };

const char* ChangeKindName(ChangeKind kind);

/// One sequence-numbered delta: "write `write_epoch` changed these
/// attributes of this object". The stream carries the same total order
/// the WAL records (both are fed from the after-write event the
/// database emits once per write), so a subscriber that has consumed
/// up to `seq` has seen every write up to that point. kSchema records
/// mark a RegisterClass; consumers that maintain class-shaped derived
/// state treat them as a rebuild boundary.
struct ChangeRecord {
  uint64_t seq = 0;  // Assigned by the feed; contiguous from 1.
  ChangeKind kind = ChangeKind::kInsert;
  std::string class_name;
  geodb::ObjectId object_id = 0;
  /// The database write epoch that produced this delta (0 for kSchema).
  uint64_t write_epoch = 0;
  /// Attribute names the write supplied (all given attributes for an
  /// insert, the single updated attribute for an update, empty for
  /// delete/schema records).
  std::vector<std::string> changed_attributes;
  /// Shard the write landed on when the feed hangs off a ShardRouter
  /// (copied from DbEvent::shard_id); 0 for a plain GeoDatabase.
  uint32_t shard_id = 0;

  std::string ToString() const;
};

/// Aggregate counters, for tests, benches, and monitoring.
struct ChangefeedStats {
  uint64_t published = 0;
  /// Records that fell off the ring's tail before every subscriber
  /// consumed them (each one forces lagging subscribers to resync).
  uint64_t dropped = 0;
  /// Poll calls answered with resync=true.
  uint64_t resyncs = 0;
  uint64_t polls = 0;
  size_t subscribers = 0;
  /// Sequence number of the newest record published (0 = none yet).
  uint64_t head_seq = 0;
  /// Oldest sequence number still in the ring (0 = empty ring).
  uint64_t tail_seq = 0;
};

/// Result of one Poll: the records after the subscriber's cursor, in
/// sequence order. `resync=true` means the subscriber fell past the
/// ring's tail — the intervening deltas are gone, records is empty,
/// and the cursor has jumped to the head; the subscriber must rebuild
/// its derived state from the database before consuming deltas again
/// (the drop-to-resync contract that keeps slow consumers from ever
/// blocking writers).
struct ChangefeedPoll {
  std::vector<ChangeRecord> records;
  bool resync = false;
  /// Cursor to pass to Ack once the records are applied (== the last
  /// record's seq; on resync, the head the cursor jumped to).
  uint64_t next_seq = 0;
};

/// Bounded, sequence-numbered delta stream over the database's write
/// events — the subscribable face of the WAL's total order.
///
/// Registered as one more DbEventSink alongside the rule-engine bridge
/// and the durable store's WAL appender: every after-write event
/// publishes one record into a bounded ring. Publishing is O(1) and
/// never waits on consumers — when the ring is full the oldest record
/// is dropped and any subscriber still needing it is flagged for
/// resync at its next Poll. Consumers pull: Subscribe / Poll / Ack
/// cursors, with SubscribeFrom for replay of whatever the ring still
/// holds.
///
/// Consumers that must react to a publish at once (the session
/// server's IO pump, which would otherwise only look at the head on a
/// timer) register a publish listener: it is called once per published
/// record, in the publishing thread, after the feed mutex is released.
///
/// Thread safety: all operations are safe to call concurrently (one
/// internal mutex; every operation is O(ring section touched), so the
/// critical sections are short). The feed observes events *after* the
/// database released its locks, mirroring the other sinks.
class Changefeed : public geodb::DbEventSink {
 public:
  using SubscriberId = uint64_t;
  using ListenerId = uint64_t;
  /// Called with the seq just published.
  using PublishListener = std::function<void(uint64_t seq)>;

  /// `capacity` is the ring bound (clamped to at least 1): how far the
  /// slowest subscriber may lag before it is dropped to resync.
  explicit Changefeed(size_t capacity = 4096);

  Changefeed(const Changefeed&) = delete;
  Changefeed& operator=(const Changefeed&) = delete;

  // ---- Producer side -----------------------------------------------------

  /// DbEventSink: maps after-write events (and schema changes) to
  /// records; read events are ignored.
  void OnAfterEvent(const geodb::DbEvent& event) override;

  /// Direct publication (tests; also any producer that is not a
  /// GeoDatabase). `record.seq` is assigned by the feed. Publish
  /// listeners run after the record is visible to Poll / head_seq.
  uint64_t Publish(ChangeRecord record);

  // ---- Publish listeners -------------------------------------------------

  /// Registers `listener`. Listeners run in the publishing (writer's)
  /// thread, so they must be short and must not block; they may call
  /// any feed operation except (Add|Remove)PublishListener.
  ListenerId AddPublishListener(PublishListener listener);

  /// Unregisters; once this returns, the listener is not running and
  /// is never called again. Returns false when unknown.
  bool RemovePublishListener(ListenerId id);

  // ---- Consumer side -----------------------------------------------------

  /// New subscriber cursored at the current head: it sees only records
  /// published after this call.
  SubscriberId Subscribe();

  /// New subscriber cursored at `seq`: its first Poll replays the
  /// retained records with sequence > `seq` (resync if the ring no
  /// longer reaches back that far). Subscribe() == SubscribeFrom(head).
  SubscriberId SubscribeFrom(uint64_t seq);

  /// Forgets the subscriber. Safe to call concurrently with Publish /
  /// other subscribers' polls; returns false when unknown.
  bool Unsubscribe(SubscriberId id);

  /// Records after the subscriber's cursor, oldest first, up to
  /// `max_records` (0 = all retained). Does not advance the cursor —
  /// call Ack with the returned next_seq once the batch is applied, so
  /// an aborted consumer re-polls the same records (at-least-once).
  ChangefeedPoll Poll(SubscriberId id, size_t max_records = 0);

  /// Advances the subscriber's cursor to `seq` (no-op when behind the
  /// current cursor; NotFound for unknown subscribers). `seq` must not
  /// exceed the published head: acking records that do not exist yet
  /// returns OutOfRange, with the cursor clamped to the head so it can
  /// never sit past unpublished records (remote consumers echo cursors
  /// back over the wire; a malformed one must not corrupt the stream).
  agis::Status Ack(SubscriberId id, uint64_t seq);

  /// How many published records the subscriber has not acked yet.
  uint64_t Lag(SubscriberId id) const;

  uint64_t head_seq() const;
  ChangefeedStats stats() const;

 private:
  struct Subscriber {
    /// Highest sequence number acked; Poll returns (acked, head].
    uint64_t acked = 0;
  };

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<ChangeRecord> ring_;  // Ascending seq; back() is newest.
  uint64_t next_seq_ = 1;
  SubscriberId next_subscriber_ = 1;
  std::map<SubscriberId, Subscriber> subscribers_;
  ChangefeedStats stats_;

  /// Separate from `mutex_` so listeners run outside the feed's
  /// critical section; Publish holds it while calling them, which is
  /// what makes RemovePublishListener's "never again" hold.
  std::mutex listeners_mutex_;
  ListenerId next_listener_ = 1;
  std::map<ListenerId, PublishListener> listeners_;
};

}  // namespace agis::storage

#endif  // AGIS_STORAGE_CHANGEFEED_H_
