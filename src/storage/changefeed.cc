#include "storage/changefeed.h"

#include <algorithm>

#include "base/strutil.h"

namespace agis::storage {

const char* ChangeKindName(ChangeKind kind) {
  switch (kind) {
    case ChangeKind::kInsert:
      return "insert";
    case ChangeKind::kUpdate:
      return "update";
    case ChangeKind::kDelete:
      return "delete";
    case ChangeKind::kSchema:
      return "schema";
  }
  return "unknown";
}

std::string ChangeRecord::ToString() const {
  std::string out = agis::StrCat("#", seq, " ", ChangeKindName(kind), " ",
                                 class_name, "/", object_id, " @epoch ",
                                 write_epoch);
  if (shard_id != 0) out += agis::StrCat(" shard=", shard_id);
  if (!changed_attributes.empty()) {
    out += " [";
    for (size_t i = 0; i < changed_attributes.size(); ++i) {
      if (i > 0) out += ",";
      out += changed_attributes[i];
    }
    out += "]";
  }
  return out;
}

Changefeed::Changefeed(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {}

void Changefeed::OnAfterEvent(const geodb::DbEvent& event) {
  ChangeRecord record;
  switch (event.kind) {
    case geodb::DbEventKind::kAfterInsert:
      record.kind = ChangeKind::kInsert;
      break;
    case geodb::DbEventKind::kAfterUpdate:
      record.kind = ChangeKind::kUpdate;
      break;
    case geodb::DbEventKind::kAfterDelete:
      record.kind = ChangeKind::kDelete;
      break;
    case geodb::DbEventKind::kSchemaChange:
      record.kind = ChangeKind::kSchema;
      break;
    default:
      return;  // Read events carry no delta.
  }
  record.class_name = event.class_name;
  record.object_id = event.object_id;
  record.write_epoch = event.write_epoch;
  record.changed_attributes = event.changed_attributes;
  record.shard_id = event.shard_id;
  Publish(std::move(record));
}

uint64_t Changefeed::Publish(ChangeRecord record) {
  uint64_t seq = 0;
  {
    std::lock_guard lock(mutex_);
    record.seq = next_seq_++;
    seq = record.seq;
    ring_.push_back(std::move(record));
    // Bounded ring: the writer never waits. A subscriber still cursored
    // before the popped record finds out at its next Poll (resync).
    if (ring_.size() > capacity_) {
      ring_.pop_front();
      ++stats_.dropped;
    }
    ++stats_.published;
  }
  std::lock_guard lock(listeners_mutex_);
  for (const auto& [id, listener] : listeners_) listener(seq);
  return seq;
}

Changefeed::ListenerId Changefeed::AddPublishListener(
    PublishListener listener) {
  std::lock_guard lock(listeners_mutex_);
  const ListenerId id = next_listener_++;
  listeners_.emplace(id, std::move(listener));
  return id;
}

bool Changefeed::RemovePublishListener(ListenerId id) {
  std::lock_guard lock(listeners_mutex_);
  return listeners_.erase(id) != 0;
}

Changefeed::SubscriberId Changefeed::Subscribe() {
  std::lock_guard lock(mutex_);
  const SubscriberId id = next_subscriber_++;
  subscribers_[id].acked = next_seq_ - 1;
  return id;
}

Changefeed::SubscriberId Changefeed::SubscribeFrom(uint64_t seq) {
  std::lock_guard lock(mutex_);
  const SubscriberId id = next_subscriber_++;
  subscribers_[id].acked = std::min(seq, next_seq_ - 1);
  return id;
}

bool Changefeed::Unsubscribe(SubscriberId id) {
  std::lock_guard lock(mutex_);
  return subscribers_.erase(id) != 0;
}

ChangefeedPoll Changefeed::Poll(SubscriberId id, size_t max_records) {
  ChangefeedPoll out;
  std::lock_guard lock(mutex_);
  ++stats_.polls;
  const auto it = subscribers_.find(id);
  if (it == subscribers_.end()) return out;  // Unknown: empty poll.
  Subscriber& sub = it->second;
  const uint64_t head = next_seq_ - 1;
  out.next_seq = sub.acked;
  if (sub.acked >= head) return out;  // Caught up.
  const uint64_t oldest = ring_.empty() ? next_seq_ : ring_.front().seq;
  if (sub.acked + 1 < oldest) {
    // The records this subscriber still needed fell off the tail:
    // drop to resync. The cursor jumps to the head so the rebuild the
    // consumer now performs is not immediately re-polled as deltas.
    sub.acked = head;
    out.resync = true;
    out.next_seq = head;
    ++stats_.resyncs;
    return out;
  }
  // Ring seqs are contiguous: the subscriber's next record sits at a
  // computable offset.
  const size_t begin = static_cast<size_t>(sub.acked + 1 - oldest);
  size_t count = ring_.size() - begin;
  if (max_records != 0) count = std::min(count, max_records);
  out.records.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.records.push_back(ring_[begin + i]);
  }
  if (!out.records.empty()) out.next_seq = out.records.back().seq;
  return out;
}

agis::Status Changefeed::Ack(SubscriberId id, uint64_t seq) {
  std::lock_guard lock(mutex_);
  const auto it = subscribers_.find(id);
  if (it == subscribers_.end()) {
    return agis::Status::NotFound(agis::StrCat("subscriber ", id));
  }
  const uint64_t head = next_seq_ - 1;
  if (seq > head) {
    // A future seq acknowledges records that were never published —
    // with remote consumers (SSE clients echoing cursors back) this is
    // a protocol violation, not a race we can paper over. Clamp so the
    // cursor can never sit past records still to come, and tell the
    // caller: a conforming consumer acks only seqs it polled.
    it->second.acked = std::max(it->second.acked, head);
    return agis::Status::OutOfRange(
        agis::StrCat("ack seq ", seq, " is beyond the published head ", head));
  }
  it->second.acked = std::max(it->second.acked, seq);
  return agis::Status::OK();
}

uint64_t Changefeed::Lag(SubscriberId id) const {
  std::lock_guard lock(mutex_);
  const auto it = subscribers_.find(id);
  if (it == subscribers_.end()) return 0;
  const uint64_t head = next_seq_ - 1;
  return head > it->second.acked ? head - it->second.acked : 0;
}

uint64_t Changefeed::head_seq() const {
  std::lock_guard lock(mutex_);
  return next_seq_ - 1;
}

ChangefeedStats Changefeed::stats() const {
  std::lock_guard lock(mutex_);
  ChangefeedStats out = stats_;
  out.subscribers = subscribers_.size();
  out.head_seq = next_seq_ - 1;
  out.tail_seq = ring_.empty() ? 0 : ring_.front().seq;
  return out;
}

}  // namespace agis::storage
