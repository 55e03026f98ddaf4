// Concurrency exercises for the session server, built to run under
// ThreadSanitizer (registered via agis_add_concurrency_test): session
// churn against a live writer, slow-consumer drop-to-resync
// backpressure, concurrent writers waking the pump, and the rate
// limiter under parallel fire.
//
// gtest assertions are not thread-safe, so worker threads record
// failures into their own strings and the main thread asserts after
// joining.

#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/active_interface_system.h"
#include "server/client.h"
#include "server/session_server.h"
#include "workload/phone_net.h"

namespace agis::server {
namespace {

geodb::Value PointValue(double x, double y) {
  return geodb::Value::MakeGeometry(geom::Geometry::FromPoint({x, y}));
}

bool WaitFor(const std::function<bool()>& condition, int deadline_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return condition();
}

std::unique_ptr<core::ActiveInterfaceSystem> StartSystem(
    ServerOptions server_options = {}) {
  core::SystemOptions opts;
  opts.server_port = 0;
  opts.server_options = server_options;
  auto sys =
      std::make_unique<core::ActiveInterfaceSystem>("phone_net", opts);
  EXPECT_TRUE(workload::BuildPhoneNetwork(&sys->db()).ok());
  return sys;
}

/// Commits throttled Pole inserts until asked to stop, so every other
/// thread races against live changefeed traffic. Throttled (~1k/s)
/// and bounded: an unthrottled writer on a small CI box grows the
/// class faster than refreshers can rebuild, which tests writer
/// starvation rather than the server.
class BackgroundWriter {
 public:
  explicit BackgroundWriter(core::ActiveInterfaceSystem* sys,
                            uint64_t max_writes = 20000)
      : thread_([this, sys, max_writes] {
          double x = 100.0;
          while (!stop_.load(std::memory_order_acquire) &&
                 writes_.load() < max_writes) {
            if (!sys->db()
                     .Insert("Pole", {{"pole_location", PointValue(x, x)}})
                     .ok()) {
              ++failures_;
              return;
            }
            x += 1.0;
            ++writes_;
            std::this_thread::sleep_for(std::chrono::microseconds(500));
          }
        }) {}

  ~BackgroundWriter() { Stop(); }

  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  uint64_t writes() const { return writes_.load(); }
  uint64_t failures() const { return failures_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> failures_{0};
  std::thread thread_;
};

TEST(ServerConcurrency, SessionChurnAgainstLiveWriter) {
  auto sys = StartSystem();
  const int port = sys->server()->port();
  BackgroundWriter writer(sys.get());

  constexpr int kThreads = 3;
  constexpr int kIterations = 8;
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> churners;
  churners.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    churners.emplace_back([port, t, &errors] {
      std::string& error = errors[static_cast<size_t>(t)];
      const auto fail = [&error](const std::string& what,
                                 const agis::Status& status) {
        error += what + ": " + status.ToString() + "\n";
      };
      for (int i = 0; i < kIterations && error.empty(); ++i) {
        Client client;
        if (agis::Status s = client.Connect(port, 20000); !s.ok()) {
          fail("connect", s);
          break;
        }
        auto context = client.Request(
            "POST", "/context?user=churn" + std::to_string(t), 20000);
        if (!context.ok()) {
          fail("context", context.status());
          break;
        }
        auto open = client.Request("POST", "/open?class=Pole", 20000);
        if (!open.ok() || open.value().status != 200) {
          fail("open", open.status());
          break;
        }
        if (i % 2 == 0) {
          // Half the sessions go push-mode and catch a frame or two
          // before vanishing; a NextEvent timeout is fine (the writer
          // may pause between inserts), a broken stream is not.
          if (agis::Status s = client.StartEvents(20000); !s.ok()) {
            fail("events", s);
            break;
          }
          (void)client.NextEvent(/*timeout_ms=*/100);
        } else {
          auto windows = client.Request("GET", "/windows", 20000);
          if (!windows.ok()) {
            fail("windows", windows.status());
            break;
          }
        }
        client.Close();  // Abrupt; the pump reaps on EOF.
      }
    });
  }
  for (std::thread& churner : churners) churner.join();
  writer.Stop();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[static_cast<size_t>(t)], "") << "churner " << t;
  }
  EXPECT_GT(writer.writes(), 0u);
  EXPECT_EQ(writer.failures(), 0u);

  EXPECT_TRUE(
      WaitFor([&] { return sys->server()->session_count() == 0; }, 15000));
  const ServerStats stats = sys->server_stats();
  EXPECT_GE(stats.connections_accepted,
            static_cast<uint64_t>(kThreads * kIterations));
  EXPECT_EQ(stats.connections_closed, stats.connections_accepted);

  Client probe;
  ASSERT_TRUE(probe.Connect(port).ok());
  auto health = probe.Request("GET", "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().status, 200);
}

TEST(ServerConcurrency, SlowSseConsumerDropsToResync) {
  ServerOptions options;
  // Shrink every buffer between the refresher and the client so a
  // stalled reader backs the server up within a few hundred frames:
  // the server-side outbound cap, the server socket's send buffer,
  // and (below) the client socket's receive buffer.
  options.max_outbuf_bytes = 2048;
  options.so_sndbuf = 4096;
  auto sys = StartSystem(options);

  Client client;
  ASSERT_TRUE(client.Connect(sys->server()->port(), /*timeout_ms=*/5000,
                             /*rcvbuf=*/4096)
                  .ok());
  ASSERT_TRUE(client.Request("POST", "/context?user=slow").ok());
  auto open = client.Request("POST", "/open?class=Pole");
  ASSERT_TRUE(open.ok());
  ASSERT_EQ(open.value().status, 200);
  ASSERT_TRUE(client.StartEvents().ok());

  // The client now stops reading entirely while the writer floods the
  // feed. The session must not buffer without bound: once its outbuf
  // cap is hit, refresh frames are dropped on the floor.
  {
    BackgroundWriter writer(sys.get(), /*max_writes=*/200000);
    ASSERT_TRUE(WaitFor(
        [&] { return sys->server_stats().frames_dropped > 0; }, 60000))
        << "outbuf never filled; frames_dropped stayed 0 after "
        << writer.writes() << " writes (failures " << writer.failures()
        << ")";
  }

  // Drain the backlog. The contract: after a drop, the next drained
  // moment carries exactly one `resync` frame telling the client to
  // re-fetch window state.
  bool saw_resync = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    auto event = client.NextEvent(/*timeout_ms=*/2000);
    if (!event.ok()) break;  // Stream quiet: backlog fully drained.
    if (event.value().event == "resync") {
      saw_resync = true;
      break;
    }
    EXPECT_EQ(event.value().event, "refresh");
  }
  EXPECT_TRUE(saw_resync);
  const ServerStats stats = sys->server_stats();
  EXPECT_GE(stats.resyncs_sent, 1u);
  EXPECT_GE(stats.frames_dropped, 1u);

  // The session survived the pressure: it still serves state.
  EXPECT_EQ(sys->server()->session_count(), 1u);
}

TEST(ServerConcurrency, ConcurrentCommitsNeverLoseAPumpWakeup) {
  // The pump's timeout is far above the deadline below: every frame
  // has to come from a wake, so a lost one fails the test.
  ServerOptions options;
  options.poll_interval_ms = 10000;
  auto sys = StartSystem(options);
  const int port = sys->server()->port();

  constexpr int kSubscribers = 3;
  std::vector<Client> subscribers(kSubscribers);
  for (Client& client : subscribers) {
    ASSERT_TRUE(client.Connect(port).ok());
    auto open = client.Request("POST", "/open?class=Pole");
    ASSERT_TRUE(open.ok());
    ASSERT_EQ(open.value().status, 200);
    ASSERT_TRUE(client.StartEvents().ok());
  }

  constexpr int kWriters = 4;
  constexpr int kCommitsPerWriter = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&sys, &failures, w] {
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        const double at = 100.0 + w * 1000.0 + i;
        if (!sys->db()
                 .Insert("Pole", {{"pole_location", PointValue(at, at)}})
                 .ok()) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  ASSERT_EQ(failures.load(), 0);
  const uint64_t final_seq = sys->changefeed()->head_seq();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (int s = 0; s < kSubscribers; ++s) {
    uint64_t seen = 0;
    while (seen < final_seq && std::chrono::steady_clock::now() < deadline) {
      auto event = subscribers[static_cast<size_t>(s)].NextEvent(500);
      if (!event.ok()) continue;
      ASSERT_NE(event.value().event, "resync") << "subscriber " << s;
      if (event.value().event != "refresh") continue;
      const std::string& data = event.value().data;
      const size_t at = data.find(" seq=");
      ASSERT_NE(at, std::string::npos) << data;
      seen = std::max<uint64_t>(
          seen, std::strtoull(data.c_str() + at + 5, nullptr, 10));
    }
    EXPECT_GE(seen, final_seq) << "subscriber " << s;
  }
  EXPECT_GT(sys->server_stats().pump_feed_wakeups, 0u);
}

TEST(ServerConcurrency, RateLimiterHoldsUnderParallelFire) {
  ServerOptions options;
  options.rate_limit.requests_per_second = 1;  // Refill is negligible…
  options.rate_limit.burst = 5;                // …so only the burst admits.
  auto sys = StartSystem(options);
  const int port = sys->server()->port();

  constexpr int kThreads = 3;
  constexpr int kRequestsPerThread = 40;
  std::atomic<int> ok_count{0};
  std::atomic<int> limited_count{0};
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> shooters;
  shooters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    shooters.emplace_back([&, port, t] {
      std::string& error = errors[static_cast<size_t>(t)];
      Client client;
      if (agis::Status s = client.Connect(port, 20000); !s.ok()) {
        error = "connect: " + s.ToString();
        return;
      }
      for (int i = 0; i < kRequestsPerThread; ++i) {
        // All sessions share the "anonymous" bucket (no /context).
        auto response = client.Request("GET", "/windows", 20000);
        if (!response.ok()) {
          error = "request: " + response.status().ToString();
          return;
        }
        if (response.value().status == 200) {
          ++ok_count;
        } else if (response.value().status == 429) {
          ++limited_count;
        } else {
          error = "unexpected status " +
                  std::to_string(response.value().status);
          return;
        }
      }
    });
  }
  for (std::thread& shooter : shooters) shooter.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[static_cast<size_t>(t)], "") << "shooter " << t;
  }

  EXPECT_EQ(ok_count.load() + limited_count.load(),
            kThreads * kRequestsPerThread);
  EXPECT_GE(ok_count.load(), 5);       // At least the burst got through.
  EXPECT_GE(limited_count.load(), 1);  // And the flood hit the wall.
  const ServerStats stats = sys->server_stats();
  EXPECT_EQ(stats.requests_rate_limited,
            static_cast<uint64_t>(limited_count.load()));
  EXPECT_EQ(stats.rate_limiter.rejected,
            static_cast<uint64_t>(limited_count.load()));
}

}  // namespace
}  // namespace agis::server
