// Shared plumbing of the end-to-end benchmark: clocks, sample sets,
// the run configuration, the result record and its JSON rendering.
// Nothing here touches the system under test.
#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// The benchmark's own splitmix64, so its inputs do not move when the
/// library's generators change.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x2545f4914f6cdd1dULL + 7) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }
  int64_t Int(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Real(double lo, double hi) { return lo + Unit() * (hi - lo); }
  bool Chance(double p) { return Unit() < p; }

 private:
  uint64_t state_;
};

/// Zipf-like skewed pick over [0, n): rank r is drawn with weight
/// 1 / (r + 1)^s. The cumulative table is built once.
class SkewedPick {
 public:
  SkewedPick(size_t n, double s);
  size_t Draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Latency (or any per-op) samples; quantiles by nearest rank.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;

 private:
  mutable std::vector<double> v_;
  mutable bool sorted_ = false;
};

/// Peak resident set of this process so far, MiB.
double PeakRssMb();

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string build_type = "unknown";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// What one run reports. `correct` drops on the first failed check;
/// the check messages go to stderr.
class RunResult {
 public:
  void Check(bool ok, const std::string& what);
  void Set(const std::string& name, const std::string& unit, double value);
  bool correct() const { return correct_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  bool correct_ = true;
  size_t reported_ = 0;
  std::vector<Metric> metrics_;
};

/// The result: one JSON line, printed last.
std::string ResultJson(const RunResult& r);

/// Fixed-precision decimal rendering (no exponent), all digits kept.
std::string Num(double v);

/// 64-bit FNV-1a over a sequence of ids (answer fingerprints).
inline uint64_t HashIds(const std::vector<uint64_t>& ids) {
  uint64_t h = 1469598103934665603ULL;
  for (uint64_t id : ids) {
    for (int b = 0; b < 8; ++b) {
      h ^= (id >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h ^ ids.size();
}

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_H_
