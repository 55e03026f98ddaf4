#include "harness.h"

#include <sys/resource.h>

#include <cmath>
#include <iostream>
#include <sstream>

namespace e2e {

SkewedPick::SkewedPick(size_t n, double s) {
  double total = 0;
  cdf_.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t SkewedPick::Draw(Rng& rng) const {
  const double u = rng.Unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(q * static_cast<double>(v_.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v_[std::min(idx, v_.size() - 1)];
}

double Samples::Mean() const {
  if (v_.empty()) return 0;
  double sum = 0;
  for (double x : v_) sum += x;
  return sum / static_cast<double>(v_.size());
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void RunResult::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  if (reported_++ < 20) std::cerr << "CHECK FAILED: " << what << "\n";
}

void RunResult::Set(const std::string& name, const std::string& unit,
                    double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.unit = unit;
      m.value = value;
      return;
    }
  }
  metrics_.push_back(Metric{name, unit, value});
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string ResultJson(const RunResult& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct() ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics()) {
    out << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << Num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace e2e
