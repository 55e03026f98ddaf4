#include "server/session_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <thread>

#include "core/active_interface_system.h"
#include "server/client.h"
#include "workload/phone_net.h"

namespace agis::server {
namespace {

geodb::Value PointValue(double x, double y) {
  return geodb::Value::MakeGeometry(geom::Geometry::FromPoint({x, y}));
}

/// Polls `condition` until it holds or `deadline_ms` passes.
bool WaitFor(const std::function<bool()>& condition, int deadline_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return condition();
}

class SessionServerTest : public ::testing::Test {
 protected:
  void StartSystem(ServerOptions server_options = {}) {
    core::SystemOptions opts;
    opts.server_port = 0;  // Ephemeral loopback port.
    opts.server_options = server_options;
    sys_ = std::make_unique<core::ActiveInterfaceSystem>("phone_net", opts);
    ASSERT_NE(sys_->server(), nullptr);
    ASSERT_TRUE(workload::BuildPhoneNetwork(&sys_->db()).ok());
    port_ = sys_->server()->port();
    ASSERT_GT(port_, 0);
  }

  agis::Status InsertPole() {
    return sys_->db()
        .Insert("Pole", {{"pole_location", PointValue(9, 9)}})
        .status();
  }

  std::unique_ptr<core::ActiveInterfaceSystem> sys_;
  int port_ = 0;
};

/// Pump timeout far above every latency bound the wake-path tests
/// assert: anything that still waited for the timer would fail them.
constexpr int kIdlePollMs = 10000;
constexpr int64_t kWakeBoundMs = 500;

int64_t MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Feed seq a `refresh` frame reports ("window=... seq=N features=M"),
/// 0 for any other frame.
uint64_t RefreshSeq(const Client::SseEvent& event) {
  if (event.event != "refresh") return 0;
  const size_t at = event.data.find(" seq=");
  if (at == std::string::npos) return 0;
  return std::strtoull(event.data.c_str() + at + 5, nullptr, 10);
}

TEST_F(SessionServerTest, ServesHealthAndRejectsUnknownPaths) {
  StartSystem();
  Client client;
  ASSERT_TRUE(client.Connect(port_).ok());

  auto health = client.Request("GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status, 200);
  EXPECT_EQ(health.value().body, "ok\n");

  auto missing = client.Request("GET", "/no-such-endpoint");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);

  const ServerStats stats = sys_->server_stats();
  EXPECT_GE(stats.connections_accepted, 1u);
  EXPECT_GE(stats.requests_served, 2u);
}

TEST_F(SessionServerTest, ProtocolReadsOverTheWire) {
  StartSystem();
  Client client;
  ASSERT_TRUE(client.Connect(port_).ok());

  auto schema = client.Request("GET", "/schema");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema.value().status, 200);
  EXPECT_NE(schema.value().body.find("Pole"), std::string::npos);

  auto poles = client.Request("GET", "/class/Pole?limit=3");
  ASSERT_TRUE(poles.ok());
  EXPECT_EQ(poles.value().status, 200);
  EXPECT_NE(poles.value().body.find("class Pole"), std::string::npos);

  // Pull the first id off the "ids a,b,c" line and fetch its value.
  const std::string& body = poles.value().body;
  const size_t ids_at = body.find("ids ");
  ASSERT_NE(ids_at, std::string::npos);
  const std::string first_id =
      body.substr(ids_at + 4, body.find_first_of(",\n", ids_at + 4) -
                                  (ids_at + 4));
  auto value = client.Request("GET", "/value/" + first_id);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value().status, 200);
  EXPECT_NE(value.value().body.find("instance Pole"), std::string::npos);

  auto unknown = client.Request("GET", "/class/NoSuchClass");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown.value().status, 404);
}

TEST_F(SessionServerTest, SessionLifecycleContextOpenWindowsClose) {
  StartSystem();
  Client client;
  ASSERT_TRUE(client.Connect(port_).ok());

  auto context = client.Request(
      "POST", "/context?user=juliano&application=pole_manager");
  ASSERT_TRUE(context.ok());
  EXPECT_EQ(context.value().status, 200);

  auto open = client.Request("POST", "/open?class=Pole");
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open.value().status, 200);
  EXPECT_NE(open.value().body.find("window Class set: Pole"),
            std::string::npos);

  auto windows = client.Request("GET", "/windows");
  ASSERT_TRUE(windows.ok());
  EXPECT_NE(windows.value().body.find("Class set: Pole"), std::string::npos);

  auto bad_open = client.Request("POST", "/open?class=NoSuchClass");
  ASSERT_TRUE(bad_open.ok());
  EXPECT_EQ(bad_open.value().status, 404);

  auto close = client.Request("POST", "/close?class=Pole");
  ASSERT_TRUE(close.ok());
  EXPECT_EQ(close.value().status, 200);
  auto after = client.Request("GET", "/windows");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().body, "(no windows)\n");
}

TEST_F(SessionServerTest, CommittedWritePushesSseRefreshFrame) {
  StartSystem();
  Client client;
  ASSERT_TRUE(client.Connect(port_).ok());
  ASSERT_TRUE(client.Request("POST", "/context?user=viewer").ok());
  auto open = client.Request("POST", "/open?class=Pole");
  ASSERT_TRUE(open.ok());
  ASSERT_EQ(open.value().status, 200);
  ASSERT_TRUE(client.StartEvents().ok());

  // No polling from here on: the write commits, flows through the
  // changefeed, and the server pushes the refresh.
  ASSERT_TRUE(InsertPole().ok());

  auto event = client.NextEvent(/*timeout_ms=*/10000);
  ASSERT_TRUE(event.ok()) << event.status().ToString();
  EXPECT_EQ(event.value().event, "refresh");
  EXPECT_NE(event.value().data.find("window=Class set: Pole"),
            std::string::npos);
  EXPECT_NE(event.value().data.find("features="), std::string::npos);

  const ServerStats stats = sys_->server_stats();
  EXPECT_GE(stats.events_pushed, 1u);
  EXPECT_EQ(stats.frames_dropped, 0u);
}

TEST_F(SessionServerTest, CommitWakesThePumpWithoutWaitingForThePollTimer) {
  ServerOptions options;
  options.poll_interval_ms = kIdlePollMs;
  StartSystem(options);
  // Loading the network published hundreds of records with no session
  // streaming: nothing to push, so no wake.
  EXPECT_EQ(sys_->server_stats().pump_feed_wakeups, 0u);
  Client client;
  ASSERT_TRUE(client.Connect(port_).ok());
  ASSERT_TRUE(client.Request("POST", "/open?class=Pole").ok());
  ASSERT_TRUE(client.StartEvents().ok());
  // Let the pump settle into an idle poll.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const uint64_t wakeups_before = sys_->server_stats().pump_feed_wakeups;

  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(InsertPole().ok());
  const uint64_t seq = sys_->changefeed()->head_seq();
  auto event = client.NextEvent(/*timeout_ms=*/5000);
  ASSERT_TRUE(event.ok()) << event.status().ToString();
  EXPECT_LT(MillisSince(start), kWakeBoundMs);
  EXPECT_GE(RefreshSeq(event.value()), seq);
  EXPECT_GT(sys_->server_stats().pump_feed_wakeups, wakeups_before);

  Client stats;
  ASSERT_TRUE(stats.Connect(port_).ok());
  auto body = stats.Request("GET", "/stats");
  ASSERT_TRUE(body.ok());
  EXPECT_NE(body.value().body.find("pump_feed_wakeups "), std::string::npos);
}

TEST_F(SessionServerTest, StrandLeftoverBytesAreFlushedWithoutThePollTimer) {
  ServerOptions options;
  options.poll_interval_ms = kIdlePollMs;
  options.so_sndbuf = 4096;  // Kernel buffers fill within a few hundred frames.
  StartSystem(options);
  Client client;
  ASSERT_TRUE(client.Connect(port_, /*timeout_ms=*/5000, /*rcvbuf=*/4096).ok());
  ASSERT_TRUE(client.Request("POST", "/open?class=Pole").ok());
  ASSERT_TRUE(client.StartEvents().ok());

  // The client stops reading. One frame per write, until a pushed frame
  // no longer reaches the socket: a strand's flush hit EAGAIN and left
  // the bytes in the session's outbound buffer.
  const auto pushed = [&] { return sys_->server_stats().events_pushed; };
  const auto sent = [&] { return sys_->server_stats().bytes_sent; };
  bool backed_up = false;
  int writes = 0;
  for (; writes < 5000 && !backed_up; ++writes) {
    const uint64_t pushed_before = pushed();
    const uint64_t sent_before = sent();
    ASSERT_TRUE(InsertPole().ok());
    ASSERT_TRUE(WaitFor([&] { return pushed() > pushed_before; }));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (sent() == sent_before) {
      // Confirm no byte of the frame goes out while the client is idle.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      backed_up = sent() == sent_before;
    }
  }
  ASSERT_TRUE(backed_up) << "socket never backed up after " << writes
                         << " writes";
  ASSERT_GT(writes, 1);
  EXPECT_EQ(sys_->server_stats().frames_dropped, 0u);
  const uint64_t last_seq = sys_->changefeed()->head_seq();

  // Reading frees the socket; the pump, told by the strand to watch
  // for POLLOUT, sends the rest at once.
  const auto start = std::chrono::steady_clock::now();
  uint64_t seen = 0;
  while (seen < last_seq && MillisSince(start) < 5000) {
    auto event = client.NextEvent(/*timeout_ms=*/1000);
    ASSERT_TRUE(event.ok()) << event.status().ToString();
    ASSERT_NE(event.value().event, "resync");
    seen = std::max(seen, RefreshSeq(event.value()));
  }
  EXPECT_GE(seen, last_seq);
  EXPECT_LT(MillisSince(start), kWakeBoundMs);
}

TEST_F(SessionServerTest, StopDoesNotWaitOutThePollTimer) {
  ServerOptions options;
  options.poll_interval_ms = kIdlePollMs;
  StartSystem(options);
  Client client;
  ASSERT_TRUE(client.Connect(port_).ok());
  ASSERT_TRUE(client.Request("GET", "/healthz").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // Idle poll.

  const auto start = std::chrono::steady_clock::now();
  sys_->StopServer();
  EXPECT_LT(MillisSince(start), kWakeBoundMs);
  EXPECT_FALSE(sys_->server()->running());
}

TEST_F(SessionServerTest, SessionsAreIsolated) {
  StartSystem();
  Client first;
  Client second;
  ASSERT_TRUE(first.Connect(port_).ok());
  ASSERT_TRUE(second.Connect(port_).ok());

  ASSERT_TRUE(first.Request("POST", "/open?class=Pole").ok());
  auto windows = second.Request("GET", "/windows");
  ASSERT_TRUE(windows.ok());
  // The first session's window hierarchy is invisible to the second.
  EXPECT_EQ(windows.value().body, "(no windows)\n");
}

TEST_F(SessionServerTest, AdmissionControlRejectsAboveMaxSessions) {
  ServerOptions options;
  options.max_sessions = 2;
  StartSystem(options);

  Client first;
  Client second;
  ASSERT_TRUE(first.Connect(port_).ok());
  ASSERT_TRUE(second.Connect(port_).ok());
  // A request each guarantees both sessions are registered.
  ASSERT_TRUE(first.Request("GET", "/healthz").ok());
  ASSERT_TRUE(second.Request("GET", "/healthz").ok());

  Client third;
  ASSERT_TRUE(third.Connect(port_).ok());
  // The 503 arrives unprompted; sending a request first could RST
  // away the buffered response.
  auto rejected = third.ReadResponse();
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected.value().status, 503);
  EXPECT_GE(sys_->server_stats().connections_rejected, 1u);

  // Freeing a slot re-admits new connections.
  first.Close();
  ASSERT_TRUE(WaitFor([&] { return sys_->server()->session_count() < 2; }));
  Client fourth;
  ASSERT_TRUE(fourth.Connect(port_).ok());
  auto admitted = fourth.Request("GET", "/healthz");
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(admitted.value().status, 200);
}

TEST_F(SessionServerTest, RateLimiterAnswers429PerUserBucket) {
  ServerOptions options;
  options.rate_limit.requests_per_second = 1;
  options.rate_limit.burst = 2;
  StartSystem(options);

  Client client;
  ASSERT_TRUE(client.Connect(port_).ok());
  // Draws one token from the "anonymous" bucket, then switches the
  // session to the viewer/inspection bucket.
  auto context = client.Request(
      "POST", "/context?user=viewer&application=inspection");
  ASSERT_TRUE(context.ok());
  ASSERT_EQ(context.value().status, 200);

  int ok = 0;
  int limited = 0;
  for (int i = 0; i < 4; ++i) {
    auto response = client.Request("GET", "/windows");
    ASSERT_TRUE(response.ok());
    if (response.value().status == 200) ++ok;
    if (response.value().status == 429) ++limited;
  }
  EXPECT_GE(ok, 2);       // The burst.
  EXPECT_GE(limited, 1);  // Beyond it.

  // Liveness probes are never limited.
  auto health = client.Request("GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status, 200);
  EXPECT_GE(sys_->server_stats().requests_rate_limited, 1u);
}

TEST_F(SessionServerTest, AbruptDisconnectReapsTheSession) {
  StartSystem();
  Client client;
  ASSERT_TRUE(client.Connect(port_).ok());
  ASSERT_TRUE(client.Request("POST", "/open?class=Pole").ok());
  ASSERT_TRUE(client.StartEvents().ok());
  ASSERT_EQ(sys_->server()->session_count(), 1u);

  client.Close();  // No goodbye: the pump reaps on EOF.
  EXPECT_TRUE(WaitFor([&] { return sys_->server()->session_count() == 0; }));
  EXPECT_GE(sys_->server_stats().connections_closed, 1u);

  Client next;
  ASSERT_TRUE(next.Connect(port_).ok());
  auto health = next.Request("GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status, 200);
}

TEST_F(SessionServerTest, StatsEndpointAndStopAreWellBehaved) {
  StartSystem();
  {
    Client client;
    ASSERT_TRUE(client.Connect(port_).ok());
    auto stats = client.Request("GET", "/stats");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().status, 200);
    EXPECT_NE(stats.value().body.find("sessions_open 1"), std::string::npos);
    EXPECT_NE(stats.value().body.find("accepted "), std::string::npos);
  }

  sys_->StopServer();
  sys_->StopServer();  // Idempotent.
  EXPECT_FALSE(sys_->server()->running());
  Client late;
  EXPECT_FALSE(late.Connect(port_, /*timeout_ms=*/500).ok());
}

}  // namespace
}  // namespace agis::server
