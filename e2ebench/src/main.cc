// End-to-end benchmark program: one workload per run.
//
//   agis_e2ebench --workload browse|analysis|edit_push --seed N
//                 --seconds S --trace 0|1 [--commit C] [--build-type T]
//                 [--scratch DIR]
//
// Prints an environment line, then (last line) one JSON object with
// `correct`, `attempted`, `failed` and `metrics`: the end-to-end
// metrics when untraced, the per-layer metrics when traced.
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>

#include "reference.h"
#include "workload.h"

namespace e2e {

constexpr double kWarmupSeconds = 1.0;
/// A traced run also measures the layers whose home is another
/// workload, on a short pass of that workload.
constexpr double kCompanionSeconds = 2.0;
/// End-to-end figures are medians over the timed phase's whole slices
/// of this length: a few seconds of a slowed host move a median of
/// slice figures far less than the same figure pooled over the run.
constexpr double kSliceSeconds = 1.0;

agis::core::SystemOptions BaseOptions(size_t shards, bool server) {
  agis::core::SystemOptions o;
  o.db_shards = shards;
  o.db.world = agis::geom::BoundingBox(0, 0, kWorldSize, kWorldSize);
  o.db.auto_attribute_indexes = false;
  o.ui_threads = kSchedulerWorkers;
  if (server) {
    o.server_port = 0;
    o.server_options.max_sessions = 64;
    o.server_options.rate_limit.requests_per_second = 1e9;
    o.server_options.rate_limit.burst = 1e9;
  }
  return o;
}

agis::Status CreatePoleIndexes(agis::geodb::Database* db) {
  for (const char* attr : {"install_year", "pole_type", "status"}) {
    AGIS_RETURN_IF_ERROR(db->CreateAttributeIndex("Pole", attr));
  }
  return agis::Status::OK();
}

namespace {

std::unique_ptr<Workload> Make(const std::string& name, uint64_t seed,
                               RunResult* r, const std::string& scratch) {
  if (name == "browse") return MakeBrowse(seed, r);
  if (name == "analysis") return MakeAnalysis(seed, r);
  if (name == "edit_push") {
    return MakeEditPush(seed, r, scratch + "/store-" + std::to_string(getpid()));
  }
  return nullptr;
}

/// Mean for size metrics, median for times.
double Summarize(const std::string& name, const Samples& s) {
  const bool size = name.find("_per_") != std::string::npos;
  return size ? s.Mean() : s.Median();
}

struct SliceMedians {
  double p50 = 0, p95 = 0, ops_per_s = 0;
};

/// Medians, over the phase's whole kSliceSeconds slices, of each
/// slice's p50, p95 and ops per second. A slice's rate is its ops over
/// the time from the previous slice's last completion to its own last
/// one. Ops ending after the last whole slice are left out.
SliceMedians SliceMediansOf(const PhaseStats& ps) {
  const size_t n = std::max<size_t>(1, static_cast<size_t>(ps.seconds / kSliceSeconds));
  std::vector<Samples> slices(n);
  std::vector<double> last_end(n, 0);
  for (const auto& [t, us] : ps.timeline) {
    const size_t i = static_cast<size_t>(t / kSliceSeconds);
    if (i >= n) continue;
    slices[i].Add(us);
    last_end[i] = std::max(last_end[i], t);
  }
  Samples p50, p95, rate;
  double previous_end = 0;
  for (size_t i = 0; i < n; ++i) {
    if (slices[i].empty()) continue;
    p50.Add(slices[i].Quantile(0.50));
    p95.Add(slices[i].Quantile(0.95));
    rate.Add(static_cast<double>(slices[i].size()) / (last_end[i] - previous_end));
    previous_end = last_end[i];
  }
  return {p50.Median(), p95.Median(), rate.Median()};
}

std::string UnitOf(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_us")) return "us";
  if (ends("_ms")) return "ms";
  if (ends("_s")) return "s";
  if (ends("_ratio") || ends("_share")) return "ratio";
  if (ends("_bytes_per_write")) return "bytes";
  return "count";
}

/// Fills `w`'s home per-layer metrics from a run's untraced phase
/// `plain`, traced phase `traced` and end-of-run values `end`.
void ReportLayers(const Workload& w, const PhaseStats& plain,
                  const PhaseStats& traced,
                  const std::map<std::string, double>& end, RunResult* r) {
  for (const std::string& name : w.HomeLayers()) {
    double value = 0;
    if (auto it = traced.layers.find(name); it != traced.layers.end()) {
      value = Summarize(name, it->second);
    } else if (auto p = plain.counters.find(name); p != plain.counters.end()) {
      value = p->second;
    } else if (auto t = traced.counters.find(name); t != traced.counters.end()) {
      value = t->second;
    } else if (auto e = end.find(name); e != end.end()) {
      value = e->second;
    } else {
      r->Check(false, "no measurement for " + name);
    }
    r->Set(name, UnitOf(name), value);
  }
}

int Run(const RunConfig& cfg, const std::string& scratch) {
  const std::vector<std::string> self_test = SelfTest();
  for (const std::string& f : self_test) std::cerr << "SELF-TEST FAILED: " << f << "\n";
  if (!self_test.empty()) return 2;

  RunResult r;
  std::unique_ptr<Workload> w = Make(cfg.workload, cfg.seed, &r, scratch);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << cfg.workload << "'\n";
    return 2;
  }
  std::cout << "env workload=" << cfg.workload << " build=" << cfg.build_type
            << " nproc=" << std::thread::hardware_concurrency()
            << " commit=" << cfg.commit << " shards=" << w->shards()
            << " workers=" << kSchedulerWorkers << " seed=" << cfg.seed
            << " seconds=" << cfg.seconds << " trace=" << cfg.trace << std::endl;
  // The process's first (cold) set-up, timed on its own.
  const Clock::time_point setup_start = Clock::now();
  if (const agis::Status st = w->Setup(); !st.ok()) {
    std::cerr << cfg.workload << " setup failed: " << st.ToString() << "\n";
    return 1;
  }
  const double setup_s = SecondsSince(setup_start);
  w->Phase(kWarmupSeconds, false);

  const PhaseStats plain = w->Phase(cfg.seconds, false);
  const double peak_rss = PeakRssMb();
  r.attempted = plain.ops;
  r.failed = plain.failed;
  std::cerr << cfg.workload << " op latency deciles (us):";
  for (int d = 1; d <= 9; ++d) std::cerr << " " << static_cast<int>(plain.op_us.Quantile(d / 10.0));
  std::cerr << " p95 " << static_cast<int>(plain.op_us.Quantile(0.95)) << "\n";
  if (!cfg.trace) {
    const std::map<std::string, double> end = w->Finish();
    const SliceMedians steady = SliceMediansOf(plain);
    r.Set("op_p50_us", "us", steady.p50);
    r.Set("op_p95_us", "us", steady.p95);
    r.Set("ops_per_s", "1/s", steady.ops_per_s);
    r.Set("setup_s", "s", setup_s);
    r.Set("peak_rss_mb", "MiB", peak_rss);
  } else {
    const PhaseStats traced = w->Phase(cfg.seconds, true);
    r.attempted += traced.ops;
    r.failed += traced.failed;
    const std::map<std::string, double> end = w->Finish();
    ReportLayers(*w, plain, traced, end, &r);
    const double p50 = plain.op_us.Median();
    r.Set("trace.untraced_p50_us", "us", p50);
    r.Set("trace.traced_p50_us", "us", traced.op_us.Median());
    r.Set("trace.coverage_share", "ratio", traced.stage_us.Median() / p50);
    r.Set("trace.cost_share", "ratio", traced.op_us.Median() / p50 - 1.0);
    w.reset();
    for (const char* other : {"browse", "analysis", "edit_push"}) {
      if (cfg.workload == other) continue;
      std::unique_ptr<Workload> c = Make(other, cfg.seed, &r, scratch);
      if (const agis::Status st = c->Setup(); !st.ok()) {
        std::cerr << other << " setup failed: " << st.ToString() << "\n";
        return 1;
      }
      c->Phase(kWarmupSeconds / 2, false);
      const PhaseStats cp = c->Phase(kCompanionSeconds, false);
      const PhaseStats ct = c->Phase(kCompanionSeconds, true);
      r.attempted += cp.ops + ct.ops;
      r.failed += cp.failed + ct.failed;
      ReportLayers(*c, cp, ct, c->Finish(), &r);
    }
  }
  std::cout << "summary workload=" << cfg.workload << " attempted=" << r.attempted
            << " failed=" << r.failed << " correct=" << (r.correct() ? 1 : 0)
            << std::endl;
  std::cout << ResultJson(r) << std::endl;
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::RunConfig cfg;
  std::string scratch = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = value;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      cfg.trace = value == "1";
    } else if (key == "--commit") {
      cfg.commit = value;
    } else if (key == "--build-type") {
      cfg.build_type = value;
    } else if (key == "--scratch") {
      scratch = value;
    } else {
      std::cerr << "unknown argument " << key << "\n";
      return 2;
    }
  }
  return e2e::Run(cfg, scratch);
}
