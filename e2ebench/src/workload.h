// The three workloads behind one interface. A run builds the system
// (Setup), warms it, measures one or two timed phases, and finishes
// with the checks that need the whole run (Finish).
#ifndef E2EBENCH_WORKLOAD_H_
#define E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "base/status.h"
#include "core/active_interface_system.h"
#include "harness.h"

namespace e2e {

/// Fixed thread and connection counts (never derived from the host).
inline constexpr size_t kSchedulerWorkers = 4;
inline constexpr size_t kAnalysisShards = 4;
inline constexpr size_t kAnalysisClients = 4;
inline constexpr size_t kSubscribers = 3;

/// What one timed phase measured.
struct PhaseStats {
  /// Records one op: its latency and when it ended (phase seconds,
  /// paused checks excluded).
  void AddOp(double us) {
    op_us.Add(us);
    timeline.emplace_back(SecondsSince(start) - paused, us);
  }

  Clock::time_point start = Clock::now();
  double paused = 0;  // Seconds spent in untimed checks.
  std::vector<std::pair<double, double>> timeline;  // (end s, latency us).
  Samples op_us;
  uint64_t ops = 0;
  uint64_t failed = 0;
  double seconds = 0;  // Wall time the ops ran in.
  /// Per-op sum of the layer stages the workload times (traced only).
  Samples stage_us;
  /// Layer timings and sizes by metric name (traced only).
  std::map<std::string, Samples> layers;
  /// Counter-derived per-layer metrics (name -> value).
  std::map<std::string, double> counters;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Shard count and anything else the environment line records.
  virtual size_t shards() const { return 1; }
  /// Builds the system, loads data, creates indexes, installs
  /// directives and connects clients.
  virtual agis::Status Setup() = 0;
  /// Closed loop for `seconds` of whole rounds. `traced` also times
  /// each layer from outside through its public functions.
  virtual PhaseStats Phase(double seconds, bool traced) = 0;
  /// Checks that need the whole run; returns the per-layer metrics
  /// only the end of a run can measure.
  virtual std::map<std::string, double> Finish() = 0;
  /// Per-layer metric names this workload is the home of.
  virtual std::vector<std::string> HomeLayers() const = 0;

 protected:
  explicit Workload(uint64_t seed) : seed_(seed) {}
  uint64_t seed_;
};

std::unique_ptr<Workload> MakeBrowse(uint64_t seed, RunResult* r);
std::unique_ptr<Workload> MakeAnalysis(uint64_t seed, RunResult* r);
std::unique_ptr<Workload> MakeEditPush(uint64_t seed, RunResult* r,
                                       const std::string& scratch_dir);

/// System options shared by every workload: explicit scheduler size,
/// attribute indexes only where the benchmark creates them, and a
/// server (when started) that never refuses a request.
agis::core::SystemOptions BaseOptions(size_t shards, bool server);

/// Creates the deployment's attribute indexes on Pole.
agis::Status CreatePoleIndexes(agis::geodb::Database* db);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOAD_H_
