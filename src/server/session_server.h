#ifndef AGIS_SERVER_SESSION_SERVER_H_
#define AGIS_SERVER_SESSION_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "active/engine.h"
#include "base/status.h"
#include "base/task_scheduler.h"
#include "builder/interface_builder.h"
#include "carto/style.h"
#include "geodb/database.h"
#include "query/engine.h"
#include "server/http.h"
#include "server/rate_limiter.h"
#include "storage/changefeed.h"
#include "ui/dispatcher.h"
#include "ui/protocol.h"
#include "ui/view_refresher.h"

namespace agis::server {

/// Borrowed system components the server fronts. Everything is shared
/// across sessions and must outlive the server; per-session state
/// (window hierarchy, user context, feed cursor) lives in the session.
/// `changefeed` may be null — sessions then serve requests but never
/// push refreshes. Built by core::ActiveInterfaceSystem; assembled by
/// hand in tests that want a smaller substrate.
struct ServerBackend {
  geodb::Database* database = nullptr;
  active::RuleEngine* engine = nullptr;
  builder::GenericInterfaceBuilder* builder = nullptr;
  storage::Changefeed* changefeed = nullptr;
  const carto::StyleRegistry* styles = nullptr;
  agis::TaskScheduler* scheduler = nullptr;
  /// Optional declarative query front end (POST /query). Null answers
  /// that endpoint 503; everything else is unaffected.
  query::QueryEngine* query_engine = nullptr;
};

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back
  /// with port()).
  int port = 0;
  /// Admission control: connections above this are answered 503 and
  /// closed before any session state is allocated.
  size_t max_sessions = 1024;
  /// Per-connection outbound buffer cap. An SSE consumer that cannot
  /// keep up has its queued frames dropped once the buffer is full;
  /// when it drains, a single `resync` frame tells it to re-fetch
  /// window state (the same drop-to-resync contract the changefeed
  /// applies to slow subscribers).
  size_t max_outbuf_bytes = 256 * 1024;
  /// Largest request (header block + body) a connection may send. A
  /// well-formed request declaring a larger body is answered 413 and
  /// the connection closed; an unframeable header block is closed
  /// cold.
  size_t max_request_bytes = 64 * 1024;
  /// Keep-alive pipelining cap: the most requests a connection may
  /// have queued (unanswered) at once. A client that floods past it
  /// is answered 503 and closed — one stuck session's backlog must
  /// not monopolize strand time or queue memory.
  size_t max_pipelined_requests = 32;
  /// Idle housekeeping bound: the longest one pump pass blocks in
  /// poll(2) when nothing happens. Pushes do not wait for it — a
  /// changefeed publish, a strand leaving unsent bytes and Stop() all
  /// wake the pump at once — so it only paces what no event announces:
  /// reaping a closed session whose strand was still busy at the last
  /// pass.
  int poll_interval_ms = 2;
  int accept_backlog = 128;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default.
  /// Small values let tests and benches exercise the slow-consumer
  /// drop-to-resync path deterministically (the kernel otherwise
  /// absorbs hundreds of kilobytes before the server's own buffer
  /// sees any backpressure).
  int so_sndbuf = 0;
  /// Per user/application token buckets for request admission.
  RateLimiterOptions rate_limit;
};

struct ServerStats {
  uint64_t connections_accepted = 0;
  /// Connections turned away by admission control (503).
  uint64_t connections_rejected = 0;
  uint64_t connections_closed = 0;
  uint64_t requests_served = 0;
  /// Requests answered 429 by the rate limiter.
  uint64_t requests_rate_limited = 0;
  /// Well-formed requests answered 413 for declaring an oversized body.
  uint64_t requests_oversized = 0;
  /// Connections closed (503) for exceeding the pipelining cap.
  uint64_t pipeline_overflows = 0;
  /// POST /query requests handled (any status).
  uint64_t queries_served = 0;
  uint64_t bytes_received = 0;
  /// SSE refresh frames pushed.
  uint64_t events_pushed = 0;
  /// `resync` frames pushed after dropping frames on a slow consumer.
  uint64_t resyncs_sent = 0;
  /// Frames dropped because a consumer's outbound buffer was full.
  uint64_t frames_dropped = 0;
  uint64_t bytes_sent = 0;
  uint64_t pump_iterations = 0;
  /// Pump passes started by a changefeed publish (the feed listener's
  /// wake), as opposed to socket readiness, a strand or the timeout.
  uint64_t pump_feed_wakeups = 0;
  size_t sessions_open = 0;
  RateLimiterStats rate_limiter;
};

/// TCP/HTTP front end hosting many concurrent dispatcher sessions.
///
/// One connection == one interactive session (the paper's "GIS user
/// interface" instance): it owns a ui::Dispatcher (window hierarchy +
/// user context), a ui::DbProtocol (the weak-integration message
/// boundary — exactly what the in-process dispatcher speaks), and a
/// ui::ViewRefresher subscribed to the shared storage::Changefeed.
/// View refreshes are *pushed*: a committed write flows WAL-order
/// through the changefeed, whose publish listener wakes the pump; the
/// pump sees the head moved, each affected session patches its windows
/// incrementally (IVM) and emits a Server-Sent-Events frame. Clients
/// never poll.
///
/// Threading: everything runs on the shared TaskScheduler. A single
/// self-re-arming pump task owns all socket IO (accept, read, write,
/// reap) — one iteration per submission, bounded by the next event or
/// poll_interval_ms, so a TaskGroup::Wait helper that picks it up is
/// never trapped for long. The pump's poll set holds every socket plus
/// one wake eventfd that the changefeed listener, strands and Stop()
/// signal. Request handling and refresh work run as per-session tasks
/// in the session's TaskGroup, serialized per session by a strand flag
/// (a session's dispatcher is single-user state; two sessions' tasks
/// run concurrently).
///
/// Lifecycle per connection:
///   POST /context?user=U&application=A   — set the user context
///   POST /open?class=C                   — open a Class-set window
///   GET  /schema | /class/C | /value/ID  — protocol reads
///   GET  /events                         — switch to SSE push mode
/// After /events the connection is push-only; the windows opened
/// before it are the ones maintained. Closing the socket ends the
/// session and releases every window.
class SessionServer {
 public:
  SessionServer(ServerBackend backend, ServerOptions options);
  ~SessionServer();

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  /// Binds, listens, and submits the pump. Fails on bind/listen
  /// errors (port in use, no permission).
  agis::Status Start();

  /// Stops accepting, closes every session, waits for in-flight
  /// session tasks, and parks the pump. Idempotent; also run by the
  /// destructor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Bound port (valid after Start; useful with options.port == 0).
  int port() const { return port_; }
  size_t session_count() const;
  ServerStats stats() const;

 private:
  struct Session;

  // ---- Pump (all socket IO; one bounded iteration per submission) -------
  void SubmitPump();
  void PumpOnce();
  void AcceptPending();
  void ReadFromSession(Session* session);
  /// Queues `response`, pushes it toward the wire best-effort, and
  /// marks the session closed (413 / pipelining 503 — protocol-level
  /// rejections that end the connection).
  void RejectAndClose(Session* session, const HttpResponse& response);
  /// Sends what the session's outbound buffer holds (plus a pending
  /// resync frame). Returns true when bytes are left for POLLOUT.
  bool FlushSession(Session* session);
  void ReapClosedSessions();

  // ---- Wake descriptor ---------------------------------------------------
  /// Makes the pump's current or next poll return at once.
  void WakePump();
  /// Changefeed publish listener: one descriptor write per pump pass
  /// however many records are published meanwhile, and none while no
  /// session streams (a write then has no one to push to).
  void OnFeedPublish();

  // ---- Session work (runs inside the session's TaskGroup) ---------------
  /// Strand entry: drains queued requests and any pending refresh for
  /// one session; re-runs itself while more work arrived meanwhile.
  void RunSessionWork(std::shared_ptr<Session> session);
  void ScheduleSessionWork(const std::shared_ptr<Session>& session);
  HttpResponse HandleRequest(Session* session, const HttpRequest& request);
  /// Applies pending feed deltas to the session's windows and queues
  /// one SSE frame per refreshed window.
  void RefreshSession(Session* session);
  /// Appends an SSE frame to the session's outbound buffer, honoring
  /// the slow-consumer cap (drop + resync-when-drained).
  void QueueFrame(Session* session, const std::string& frame);

  ServerBackend backend_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  /// Pump task bookkeeping: the pump group has exactly one pending
  /// task while the server runs; Stop waits on it.
  std::unique_ptr<agis::TaskGroup> pump_group_;

  mutable std::mutex sessions_mutex_;
  std::map<int, std::shared_ptr<Session>> sessions_;  // Keyed by fd.
  uint64_t next_session_id_ = 1;

  /// Changefeed head at the last pump pass; refresh work is scheduled
  /// only when it moves.
  uint64_t last_seen_head_ = 0;

  /// The pump's wake eventfd. Created by the first Start, closed by
  /// the destructor (strands may still signal it while Stop drains
  /// them).
  int wake_fd_ = -1;
  /// Set by the feed listener before it writes the descriptor; the
  /// pump clears it after draining the descriptor and before reading
  /// the head, so a publish is either seen by this pass or wakes the
  /// next one.
  std::atomic<bool> feed_wake_pending_{false};
  storage::Changefeed::ListenerId feed_listener_ = 0;
  /// Sessions switched to SSE and not yet reaped. Without the gate a
  /// bulk load into a server with no subscriber paid a pump pass per
  /// write.
  std::atomic<size_t> sse_sessions_{0};

  RateLimiter rate_limiter_;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;
};

}  // namespace agis::server

#endif  // AGIS_SERVER_SESSION_SERVER_H_
