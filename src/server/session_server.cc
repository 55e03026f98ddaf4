#include "server/session_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "base/logging.h"
#include "base/strutil.h"
#include "uilib/widget_props.h"

namespace agis::server {

namespace {

constexpr size_t kReadChunk = 4096;
constexpr size_t kWriteChunk = 64 * 1024;

std::string ClassWindowName(const std::string& class_name) {
  return agis::StrCat("Class set: ", class_name);
}

}  // namespace

/// One connection: the session's interface stack plus its IO state.
/// Field ownership by thread:
///   * `inbuf`, fd lifecycle — pump only;
///   * `pending`, `refresh_requested`, `work_scheduled` — queue_mutex;
///   * `outbuf`, `dropped_frames` — out_mutex (pump flushes, strand
///     appends and opportunistically flushes);
///   * dispatcher / protocol / refresher / rate_key — strand tasks
///     only (serialized by the work_scheduled flag);
///   * `closed`, `sse` — atomics (pump decides scheduling on them).
struct SessionServer::Session {
  Session(const ServerBackend& backend, uint64_t session_id, int socket_fd)
      : id(session_id),
        fd(socket_fd),
        dispatcher(backend.database, backend.engine, backend.builder),
        protocol(backend.database),
        refresher(&dispatcher, backend.engine,
                  ui::ViewRefresher::Mode::kMarkStale),
        group(backend.scheduler) {
    dispatcher.set_scheduler(backend.scheduler);
    dispatcher.set_query_engine(backend.query_engine);
    if (backend.changefeed != nullptr) {
      // Note: no refresher.Install() — staleness comes from
      // MarkDirtyFromFeed peeks on this session's own feed cursor,
      // not from global write rules (which would fire in the writer's
      // thread, against every session's windows).
      refresher.AttachChangefeed(backend.changefeed, backend.styles);
    }
  }

  ~Session() {
    if (fd >= 0) ::close(fd);
  }

  const uint64_t id;
  int fd;

  std::string inbuf;

  std::mutex out_mutex;
  std::string outbuf;
  bool dropped_frames = false;

  std::mutex queue_mutex;
  std::deque<HttpRequest> pending;
  bool refresh_requested = false;
  bool work_scheduled = false;

  ui::Dispatcher dispatcher;
  ui::DbProtocol protocol;
  ui::ViewRefresher refresher;
  std::string rate_key;

  /// Per-session accounting (pump writes, strand reads for /stats).
  std::atomic<uint64_t> bytes_received{0};
  std::atomic<uint64_t> requests_received{0};

  std::atomic<bool> sse{false};
  std::atomic<bool> closed{false};

  agis::TaskGroup group;
};

SessionServer::SessionServer(ServerBackend backend, ServerOptions options)
    : backend_(backend),
      options_(options),
      rate_limiter_(options.rate_limit) {
  AGIS_CHECK(backend_.database != nullptr);
  AGIS_CHECK(backend_.engine != nullptr);
  AGIS_CHECK(backend_.builder != nullptr);
  AGIS_CHECK(backend_.scheduler != nullptr);
}

SessionServer::~SessionServer() {
  Stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

agis::Status SessionServer::Start() {
  if (running_.load(std::memory_order_acquire)) return agis::Status::OK();
  if (wake_fd_ < 0) {
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) {
      return agis::Status::Internal(
          agis::StrCat("eventfd: ", std::strerror(errno)));
    }
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return agis::Status::Internal(
        agis::StrCat("socket: ", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return agis::Status::Internal(
        agis::StrCat("bind 127.0.0.1:", options_.port, ": ",
                     std::strerror(err)));
  }
  if (::listen(listen_fd_, options_.accept_backlog) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return agis::Status::Internal(
        agis::StrCat("listen: ", std::strerror(err)));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  if (backend_.changefeed != nullptr) {
    // Listener first: a publish racing this read either is counted in
    // the head read below or wakes the first pump pass.
    feed_listener_ = backend_.changefeed->AddPublishListener(
        [this](uint64_t) { OnFeedPublish(); });
    last_seen_head_ = backend_.changefeed->head_seq();
  }
  pump_group_ = std::make_unique<agis::TaskGroup>(backend_.scheduler);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  SubmitPump();
  return agis::Status::OK();
}

void SessionServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  if (feed_listener_ != 0) {
    backend_.changefeed->RemovePublishListener(feed_listener_);
    feed_listener_ = 0;
  }
  // Cut the pump's poll short; it parks itself at the end of that
  // pass. Wait may execute that final iteration on this thread.
  WakePump();
  pump_group_->Wait();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // No pump → no new requests and no new refresh marks. Let every
  // session's in-flight strand work finish, then drop the sessions.
  std::map<int, std::shared_ptr<Session>> doomed;
  {
    std::lock_guard lock(sessions_mutex_);
    doomed.swap(sessions_);
  }
  for (auto& [fd, session] : doomed) {
    session->closed.store(true, std::memory_order_release);
    session->group.Wait();
  }
  // Backstop: sessions must not outlive Stop — a ~Session running
  // later on a worker thread would unsubscribe its refresher from a
  // changefeed the owner may already have torn down. The strand task
  // releases its own reference before publishing completion (see
  // ScheduleSessionWork), so by now we normally hold the last one;
  // this spin only matters if a future code path leaks a reference.
  for (auto& [fd, session] : doomed) {
    while (session.use_count() > 1) std::this_thread::yield();
  }
  {
    std::lock_guard lock(stats_mutex_);
    stats_.connections_closed += doomed.size();
  }
  doomed.clear();
  sse_sessions_.store(0, std::memory_order_release);
}

size_t SessionServer::session_count() const {
  std::lock_guard lock(sessions_mutex_);
  return sessions_.size();
}

ServerStats SessionServer::stats() const {
  ServerStats out;
  {
    std::lock_guard lock(stats_mutex_);
    out = stats_;
  }
  out.sessions_open = session_count();
  out.rate_limiter = rate_limiter_.stats();
  return out;
}

// ---- Pump ------------------------------------------------------------------

void SessionServer::SubmitPump() {
  pump_group_->Run([this] {
    if (stopping_.load(std::memory_order_acquire)) return;
    PumpOnce();
    if (!stopping_.load(std::memory_order_acquire)) SubmitPump();
  });
}

void SessionServer::PumpOnce() {
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.pump_iterations;
  }
  // Snapshot the session set; the map only changes on this thread
  // (accept/reap), so the snapshot cannot go stale mid-pass.
  std::vector<std::shared_ptr<Session>> polled;
  std::vector<pollfd> fds;
  {
    std::lock_guard lock(sessions_mutex_);
    polled.reserve(sessions_.size());
    fds.reserve(sessions_.size() + 2);
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    fds.push_back(pollfd{wake_fd_, POLLIN, 0});
    for (auto& [fd, session] : sessions_) {
      short events = POLLIN;
      {
        std::lock_guard out_lock(session->out_mutex);
        if (!session->outbuf.empty() || session->dropped_frames) {
          events |= POLLOUT;
        }
      }
      fds.push_back(pollfd{fd, events, 0});
      polled.push_back(session);
    }
  }
  ::poll(fds.data(), fds.size(), options_.poll_interval_ms);

  // Drain, then clear, then (below) read the head. A publish after the
  // clear sets the flag again and writes the descriptor, so the next
  // poll returns at once; one before it is visible to the head read
  // (the clear synchronizes with the listener's set). Clearing before
  // draining could swallow that write and leave the flag set with
  // nothing to wake the pump.
  if ((fds[1].revents & POLLIN) != 0) {
    uint64_t count = 0;  // Reading an eventfd resets its counter to 0.
    [[maybe_unused]] const ssize_t n = ::read(wake_fd_, &count, sizeof(count));
  }
  if (feed_wake_pending_.exchange(false, std::memory_order_acq_rel)) {
    std::lock_guard lock(stats_mutex_);
    ++stats_.pump_feed_wakeups;
  }

  if ((fds[0].revents & POLLIN) != 0) AcceptPending();
  for (size_t i = 0; i < polled.size(); ++i) {
    Session* session = polled[i].get();
    const short revents = fds[i + 2].revents;
    if (session->closed.load(std::memory_order_acquire)) continue;
    if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      ReadFromSession(session);
    }
    if ((revents & POLLOUT) != 0 &&
        !session->closed.load(std::memory_order_acquire)) {
      FlushSession(session);
    }
  }

  // Push path: the write committed, its delta is in the feed — wake
  // every streaming session to patch its windows and emit frames.
  if (backend_.changefeed != nullptr) {
    const uint64_t head = backend_.changefeed->head_seq();
    if (head != last_seen_head_) {
      last_seen_head_ = head;
      for (const std::shared_ptr<Session>& session : polled) {
        if (!session->sse.load(std::memory_order_acquire) ||
            session->closed.load(std::memory_order_acquire)) {
          continue;
        }
        {
          std::lock_guard lock(session->queue_mutex);
          session->refresh_requested = true;
        }
        ScheduleSessionWork(session);
      }
    }
  }

  ReapClosedSessions();
}

void SessionServer::AcceptPending() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (or transient error): done for now.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.so_sndbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
                   sizeof(options_.so_sndbuf));
    }

    size_t open_sessions;
    {
      std::lock_guard lock(sessions_mutex_);
      open_sessions = sessions_.size();
    }
    if (open_sessions >= options_.max_sessions ||
        stopping_.load(std::memory_order_acquire)) {
      // Admission control: refuse before allocating any session
      // state. Counted before the send: a client that has read the
      // 503 must find the rejection in stats(). The socket buffer of a
      // fresh connection comfortably holds this response, so the
      // non-blocking send is best-effort but reliable in practice.
      {
        std::lock_guard lock(stats_mutex_);
        ++stats_.connections_rejected;
      }
      HttpResponse response;
      response.status = 503;
      response.body = "session limit reached\n";
      const std::string bytes = response.Serialize();
      ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }

    auto session = std::make_shared<Session>(backend_, next_session_id_++, fd);
    {
      std::lock_guard lock(sessions_mutex_);
      sessions_[fd] = std::move(session);
    }
    std::lock_guard lock(stats_mutex_);
    ++stats_.connections_accepted;
  }
}

void SessionServer::ReadFromSession(Session* session) {
  char buffer[kReadChunk];
  for (;;) {
    const ssize_t n = ::recv(session->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      session->inbuf.append(buffer, static_cast<size_t>(n));
      session->bytes_received.fetch_add(static_cast<uint64_t>(n),
                                        std::memory_order_relaxed);
      {
        std::lock_guard lock(stats_mutex_);
        stats_.bytes_received += static_cast<uint64_t>(n);
      }
      if (session->inbuf.size() > options_.max_request_bytes * 2) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    session->closed.store(true, std::memory_order_release);  // EOF / error.
    return;
  }
  bool bad = false;
  bool oversized = false;
  std::vector<HttpRequest> requests = ConsumeHttpRequests(
      &session->inbuf, &bad, options_.max_request_bytes, &oversized);
  if (bad) {
    session->closed.store(true, std::memory_order_release);
    return;
  }
  if (oversized) {
    // Framing is intact, so tell the client why before closing (the
    // same best-effort send the admission 503 uses). Requests parsed
    // ahead of the oversized one are dropped with it: the client
    // already broke the contract and the connection is going away.
    HttpResponse response;
    response.status = 413;
    response.body = agis::StrCat("request body exceeds ",
                                 options_.max_request_bytes, " bytes\n");
    RejectAndClose(session, response);
    std::lock_guard lock(stats_mutex_);
    ++stats_.requests_oversized;
    return;
  }
  if (requests.empty()) return;
  session->requests_received.fetch_add(requests.size(),
                                       std::memory_order_relaxed);
  bool overflow = false;
  {
    std::lock_guard lock(session->queue_mutex);
    if (session->pending.size() + requests.size() >
        options_.max_pipelined_requests) {
      overflow = true;
    } else {
      for (HttpRequest& request : requests) {
        session->pending.push_back(std::move(request));
      }
    }
  }
  if (overflow) {
    HttpResponse response;
    response.status = 503;
    response.body = agis::StrCat("pipelining limit (",
                                 options_.max_pipelined_requests,
                                 " requests) exceeded\n");
    RejectAndClose(session, response);
    std::lock_guard lock(stats_mutex_);
    ++stats_.pipeline_overflows;
    return;
  }
  // The map entry keyed by fd still holds the shared_ptr; fetch it to
  // hand the strand a lifetime-safe reference.
  std::shared_ptr<Session> ref;
  {
    std::lock_guard lock(sessions_mutex_);
    const auto it = sessions_.find(session->fd);
    if (it != sessions_.end()) ref = it->second;
  }
  if (ref != nullptr) ScheduleSessionWork(ref);
}

void SessionServer::RejectAndClose(Session* session,
                                   const HttpResponse& response) {
  {
    std::lock_guard lock(session->out_mutex);
    session->outbuf += response.Serialize();
  }
  // Best-effort: a fresh socket's send buffer comfortably holds a
  // short error reply; anything EAGAIN leaves behind dies with the
  // connection, exactly like the admission-control 503.
  FlushSession(session);
  session->closed.store(true, std::memory_order_release);
}

bool SessionServer::FlushSession(Session* session) {
  std::lock_guard lock(session->out_mutex);
  for (;;) {
    while (!session->outbuf.empty()) {
      const size_t chunk = std::min(session->outbuf.size(), kWriteChunk);
      const ssize_t n =
          ::send(session->fd, session->outbuf.data(), chunk, MSG_NOSIGNAL);
      if (n > 0) {
        session->outbuf.erase(0, static_cast<size_t>(n));
        std::lock_guard stats_lock(stats_mutex_);
        stats_.bytes_sent += static_cast<uint64_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      session->closed.store(true, std::memory_order_release);
      return false;
    }
    if (!session->dropped_frames) return false;
    // The consumer drained its backlog after we dropped frames on the
    // floor: tell it once to re-fetch window state (drop-to-resync —
    // the server-side windows are current, only notifications were
    // lost).
    session->outbuf += SseFrame(
        "resync",
        agis::StrCat("seq=", session->refresher.last_acked_seq()));
    session->dropped_frames = false;
    std::lock_guard stats_lock(stats_mutex_);
    ++stats_.resyncs_sent;
  }
}

void SessionServer::WakePump() {
  // The only failure, EAGAIN on a saturated counter, leaves a wake
  // pending, which is all a signal has to guarantee.
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void SessionServer::OnFeedPublish() {
  if (sse_sessions_.load(std::memory_order_acquire) == 0) return;
  if (!feed_wake_pending_.exchange(true, std::memory_order_acq_rel)) {
    WakePump();
  }
}

void SessionServer::ReapClosedSessions() {
  std::vector<std::shared_ptr<Session>> reaped;
  {
    std::lock_guard lock(sessions_mutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      Session* session = it->second.get();
      bool strand_idle;
      {
        std::lock_guard queue_lock(session->queue_mutex);
        strand_idle = !session->work_scheduled;
      }
      if (session->closed.load(std::memory_order_acquire) && strand_idle &&
          session->group.pending() == 0) {
        if (session->sse.load(std::memory_order_acquire)) {
          sse_sessions_.fetch_sub(1, std::memory_order_acq_rel);
        }
        reaped.push_back(std::move(it->second));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (reaped.empty()) return;
  std::lock_guard lock(stats_mutex_);
  stats_.connections_closed += reaped.size();
  // `reaped` destroys the Sessions here: no strand task is pending,
  // so each TaskGroup destructor returns immediately and the
  // destructor closes the socket.
}

// ---- Session work (strand) --------------------------------------------------

void SessionServer::ScheduleSessionWork(
    const std::shared_ptr<Session>& session) {
  {
    std::lock_guard lock(session->queue_mutex);
    if (session->work_scheduled) return;
    if (session->pending.empty() && !session->refresh_requested) return;
    session->work_scheduled = true;
  }
  // Init-capture: copying the const& parameter directly would make
  // the member const and the reset() below ill-formed.
  session->group.Run([this, session = session]() mutable {
    RunSessionWork(session);
    // Drop the capture inside the task body, not in the functor's
    // destructor: TaskGroup publishes completion (pending -> 0) when
    // the body returns, but the worker destroys the functor a beat
    // later. If that destruction released the last reference, the
    // Session could be destroyed on the worker after Stop()/reap
    // believed it gone — unsubscribing its refresher from a
    // changefeed the owner may already have torn down.
    session.reset();
  });
}

void SessionServer::RunSessionWork(std::shared_ptr<Session> session) {
  for (;;) {
    HttpRequest request;
    bool have_request = false;
    bool do_refresh = false;
    {
      std::lock_guard lock(session->queue_mutex);
      if (!session->pending.empty()) {
        request = std::move(session->pending.front());
        session->pending.pop_front();
        have_request = true;
      } else if (session->refresh_requested) {
        session->refresh_requested = false;
        do_refresh = true;
      } else {
        session->work_scheduled = false;
        return;
      }
    }
    if (session->closed.load(std::memory_order_acquire)) continue;  // Drain.
    if (have_request) {
      const HttpResponse response = HandleRequest(session.get(), request);
      std::lock_guard lock(session->out_mutex);
      session->outbuf += response.Serialize();
    } else if (do_refresh) {
      RefreshSession(session.get());
    }
    // Opportunistic flush so a push reaches the wire now. Bytes the
    // socket would not take wait for POLLOUT, which the pump's current
    // poll may not be watching for: wake it to re-poll.
    if (!session->closed.load(std::memory_order_acquire) &&
        FlushSession(session.get())) {
      WakePump();
    }
  }
}

HttpResponse SessionServer::HandleRequest(Session* session,
                                          const HttpRequest& request) {
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.requests_served;
  }
  HttpResponse response;
  if (request.path == "/healthz") {  // Liveness probes are never limited.
    response.body = "ok\n";
    return response;
  }

  const std::string rate_key =
      session->rate_key.empty() ? std::string("anonymous")
                                : session->rate_key;
  if (!rate_limiter_.Admit(rate_key, std::chrono::steady_clock::now())) {
    std::lock_guard lock(stats_mutex_);
    ++stats_.requests_rate_limited;
    response.status = 429;
    response.body = agis::StrCat("rate limit exceeded for ", rate_key, "\n");
    return response;
  }

  if (request.path == "/stats") {
    const ServerStats s = stats();
    response.body = agis::StrCat(
        "sessions_open ", s.sessions_open, "\naccepted ",
        s.connections_accepted, "\nrejected ", s.connections_rejected,
        "\nclosed ", s.connections_closed, "\nrequests ", s.requests_served,
        "\nrate_limited ", s.requests_rate_limited, "\noversized ",
        s.requests_oversized, "\npipeline_overflows ", s.pipeline_overflows,
        "\nqueries ", s.queries_served, "\nevents_pushed ",
        s.events_pushed, "\nresyncs_sent ", s.resyncs_sent,
        "\nframes_dropped ", s.frames_dropped, "\nbytes_sent ", s.bytes_sent,
        "\nbytes_received ", s.bytes_received, "\npump_feed_wakeups ",
        s.pump_feed_wakeups, "\nsession_bytes_received ",
        session->bytes_received.load(std::memory_order_relaxed),
        "\nsession_requests_received ",
        session->requests_received.load(std::memory_order_relaxed), "\n");
    if (backend_.query_engine != nullptr) {
      // Adaptive-execution counters from the shared engine: cache
      // effectiveness (full + per-conjunct partial), mid-execution
      // replans, cardinality-feedback store health, and how often the
      // ordered-index-scan pushdown was honored vs declined.
      const query::QueryEngineStats q = backend_.query_engine->stats();
      response.body += agis::StrCat(
          "engine_queries ", q.queries, "\nengine_cache_hits ", q.cache_hits,
          "\nengine_partial_hits ", q.cache.partial_hits,
          "\nengine_partial_entries ", q.cache.partial_entries,
          "\nengine_partial_bytes ", q.cache.partial_bytes,
          "\nengine_replans ", q.replans, "\nengine_feedback_entries ",
          q.feedback.entries, "\nengine_feedback_hits ", q.feedback.hits,
          "\nengine_ordered_scans ", q.ordered_scans,
          "\nengine_ordered_declines ", q.ordered_declines, "\n");
    }
    return response;
  }

  if (request.path == "/query") {
    if (request.method != "POST") {
      response.status = 405;
      response.body = "POST /query (query text in body or q parameter)\n";
      return response;
    }
    {
      std::lock_guard lock(stats_mutex_);
      ++stats_.queries_served;
    }
    if (backend_.query_engine == nullptr) {
      response.status = 503;
      response.body = "query engine not configured\n";
      return response;
    }
    std::string text = request.Param("q");
    if (text.empty()) text = request.body;
    if (text.empty()) {
      response.status = 400;
      response.body = "missing query text (body or q parameter)\n";
      return response;
    }
    // Parse/semantic errors are the client's fault (400) except an
    // unknown class or attribute, which mirrors /class/<name> (404).
    const auto status_of = [](const agis::Status& status) {
      return status.IsNotFound() ? 404 : 400;
    };
    if (request.Param("explain") == "1") {
      auto explain = backend_.query_engine->ExplainText(text);
      if (!explain.ok()) {
        response.status = status_of(explain.status());
        response.body = explain.status().ToString() + "\n";
        return response;
      }
      response.body = std::move(explain).value();
      return response;
    }
    auto result = backend_.query_engine->ExecuteText(text);
    if (!result.ok()) {
      response.status = status_of(result.status());
      response.body = result.status().ToString() + "\n";
      return response;
    }
    const query::QueryResult& qr = result.value();
    response.body = agis::StrCat("class ", qr.class_name, "\ncount ",
                                 qr.ids.size(), "\ntotal ", qr.total_matched,
                                 "\ncache ", qr.from_cache ? "hit" : "miss",
                                 "\nids ");
    for (size_t i = 0; i < qr.ids.size(); ++i) {
      if (i > 0) response.body += ',';
      response.body += agis::StrCat(qr.ids[i]);
    }
    response.body += "\n";
    return response;
  }

  if (request.path == "/context") {
    if (request.method != "POST") {
      response.status = 405;
      response.body = "POST /context\n";
      return response;
    }
    UserContext ctx;
    ctx.user = request.Param("user");
    ctx.category = request.Param("category");
    ctx.application = request.Param("application");
    session->dispatcher.set_context(ctx);
    session->rate_key = agis::StrCat(
        ctx.user.empty() ? "anonymous" : ctx.user, "/",
        ctx.application.empty() ? "*" : ctx.application);
    response.body = agis::StrCat("context ", ctx.ToString(), "\n");
    return response;
  }

  if (request.path == "/open") {
    if (request.method != "POST") {
      response.status = 405;
      response.body = "POST /open?class=Name\n";
      return response;
    }
    const std::string class_name = request.Param("class");
    if (class_name.empty()) {
      response.status = 400;
      response.body = "missing class parameter\n";
      return response;
    }
    auto window = session->dispatcher.OpenClassWindow(class_name);
    if (!window.ok()) {
      response.status = 404;
      response.body = window.status().ToString() + "\n";
      return response;
    }
    const uilib::InterfaceObject* area =
        window.value()->FindDescendant("presentation");
    response.body = agis::StrCat(
        "window ", window.value()->name(), "\nfeatures ",
        area != nullptr ? area->GetProperty(uilib::kPropFeatureCount) : "0",
        "\n");
    return response;
  }

  if (request.path == "/close") {
    if (request.method != "POST") {
      response.status = 405;
      response.body = "POST /close?class=Name\n";
      return response;
    }
    const agis::Status status =
        session->dispatcher.CloseWindow(ClassWindowName(request.Param("class")));
    if (!status.ok()) {
      response.status = 404;
      response.body = status.ToString() + "\n";
      return response;
    }
    response.body = "closed\n";
    return response;
  }

  if (request.path == "/schema") {
    ui::DbRequest db_request;
    db_request.kind = ui::DbRequest::Kind::kGetSchema;
    db_request.context = session->dispatcher.context();
    auto result = session->protocol.Execute(db_request);
    if (!result.ok()) {
      response.status = 500;
      response.body = result.status().ToString() + "\n";
      return response;
    }
    response.body = agis::StrCat("schema ", result.value().schema_name, "\n");
    for (const std::string& name : result.value().class_names) {
      response.body += name + "\n";
    }
    return response;
  }

  if (request.path.rfind("/class/", 0) == 0) {
    ui::DbRequest db_request;
    db_request.kind = ui::DbRequest::Kind::kGetClass;
    db_request.context = session->dispatcher.context();
    db_request.class_name = request.path.substr(7);
    db_request.class_options.limit = static_cast<size_t>(
        std::strtoull(request.Param("limit", "0").c_str(), nullptr, 10));
    auto result = session->protocol.Execute(db_request);
    if (!result.ok()) {
      response.status = 404;
      response.body = result.status().ToString() + "\n";
      return response;
    }
    const geodb::ClassResult& cr = result.value().class_result;
    response.body =
        agis::StrCat("class ", cr.class_name, "\ncount ", cr.ids.size(),
                     "\nids ");
    for (size_t i = 0; i < cr.ids.size(); ++i) {
      if (i > 0) response.body += ',';
      response.body += agis::StrCat(cr.ids[i]);
    }
    response.body += "\n";
    return response;
  }

  if (request.path.rfind("/value/", 0) == 0) {
    ui::DbRequest db_request;
    db_request.kind = ui::DbRequest::Kind::kGetValue;
    db_request.context = session->dispatcher.context();
    db_request.object_id = static_cast<geodb::ObjectId>(
        std::strtoull(request.path.substr(7).c_str(), nullptr, 10));
    auto result = session->protocol.Execute(db_request);
    if (!result.ok()) {
      response.status = 404;
      response.body = result.status().ToString() + "\n";
      return response;
    }
    response.body = agis::StrCat("instance ", result.value().instance_class,
                                 " ", result.value().instance_id, "\n");
    for (const auto& [attribute, value] : result.value().attribute_values) {
      response.body += agis::StrCat(attribute, "=", value, "\n");
    }
    return response;
  }

  if (request.path == "/windows") {
    for (const uilib::InterfaceObject* window :
         session->dispatcher.windows()) {
      const uilib::InterfaceObject* area =
          window->FindDescendant("presentation");
      response.body += agis::StrCat(
          window->name(), " | type=",
          window->GetProperty(uilib::kPropWindowType), " | stale=",
          window->GetProperty("stale") == "true" ? "true" : "false",
          " | features=",
          area != nullptr ? area->GetProperty(uilib::kPropFeatureCount) : "0",
          "\n");
    }
    if (response.body.empty()) response.body = "(no windows)\n";
    return response;
  }

  if (request.path == "/events") {
    response.stream = true;
    response.body = SseFrame(
        "hello",
        agis::StrCat("session=", session->id, " head=",
                     backend_.changefeed != nullptr
                         ? backend_.changefeed->head_seq()
                         : 0));
    if (!session->sse.exchange(true, std::memory_order_acq_rel)) {
      sse_sessions_.fetch_add(1, std::memory_order_acq_rel);
    }
    return response;
  }

  response.status = 404;
  response.body = agis::StrCat("no such endpoint: ", request.path, "\n");
  return response;
}

void SessionServer::RefreshSession(Session* session) {
  if (backend_.changefeed == nullptr ||
      !session->sse.load(std::memory_order_acquire)) {
    return;
  }
  session->refresher.MarkDirtyFromFeed();
  // Names flagged stale now — after RefreshStale succeeds these are
  // exactly the windows whose state moved, i.e. the frames to push.
  std::vector<std::string> stale_names;
  for (const uilib::InterfaceObject* window : session->dispatcher.windows()) {
    if (window->GetProperty("stale") == "true" &&
        window->GetProperty(uilib::kPropWindowType) ==
            uilib::kWindowClassSet &&
        window->GetProperty("query").empty()) {
      stale_names.push_back(window->name());
    }
  }
  // Runs even with nothing stale: the pass acks the feed so this
  // session's subscriber lag stays bounded.
  const agis::Result<size_t> refreshed = session->refresher.RefreshStale();
  if (!refreshed.ok() || refreshed.value() == 0) return;

  for (const std::string& name : stale_names) {
    const uilib::InterfaceObject* window =
        session->dispatcher.FindWindow(name);
    if (window == nullptr || window->GetProperty("stale") == "true") continue;
    const uilib::InterfaceObject* area = window->FindDescendant("presentation");
    QueueFrame(session,
               SseFrame("refresh",
                        agis::StrCat(
                            "window=", name, " seq=",
                            session->refresher.last_acked_seq(), " features=",
                            area != nullptr
                                ? area->GetProperty(uilib::kPropFeatureCount)
                                : "0")));
  }
}

void SessionServer::QueueFrame(Session* session, const std::string& frame) {
  std::lock_guard lock(session->out_mutex);
  if (session->outbuf.size() + frame.size() > options_.max_outbuf_bytes) {
    // Slow consumer: never let one stalled socket grow unbounded
    // buffers or block the strand. Drop the frame; FlushSession sends
    // one resync once the backlog drains.
    session->dropped_frames = true;
    std::lock_guard stats_lock(stats_mutex_);
    ++stats_.frames_dropped;
    return;
  }
  session->outbuf += frame;
  std::lock_guard stats_lock(stats_mutex_);
  ++stats_.events_pushed;
}

}  // namespace agis::server
