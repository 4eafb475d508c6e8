#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace fdb {

namespace {

constexpr double kNanosPerSecond = 1e9;

// %g keeps the exposition compact and deterministic ("1e-06", "0.00025").
std::string FmtBound(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string FmtSeconds(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

const std::array<double, Histogram::kNumBounds>& Histogram::Bounds() {
  static const std::array<double, kNumBounds> kBounds = {
      1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3,
      5e-3, 1e-2,   5e-2, 1e-1, 2.5e-1, 5e-1, 1.0,  2.5,    5.0,  7.5,  10.0};
  return kBounds;
}

void Histogram::Record(double seconds) {
  if (!(seconds > 0.0)) seconds = 0.0;  // clamp negatives and NaN
  const auto& bounds = Bounds();
  size_t b = 0;
  while (b < kNumBounds && seconds > bounds[b]) ++b;
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Sum kept in integer nanoseconds: std::atomic<double> has no lock-free
  // fetch_add pre-C++26, and 2^64 ns is ~584 years of accumulated latency.
  const double nanos_fp = seconds * kNanosPerSecond;
  const uint64_t nanos =
      nanos_fp >= 9e18 ? uint64_t{9000000000000000000u}
                       : static_cast<uint64_t>(nanos_fp);
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  uint64_t cur = max_nanos_.load(std::memory_order_relaxed);
  while (nanos > cur && !max_nanos_.compare_exchange_weak(
                            cur, nanos, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum_seconds =
      static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) /
      kNanosPerSecond;
  s.max_seconds =
      static_cast<double>(max_nanos_.load(std::memory_order_relaxed)) /
      kNanosPerSecond;
  for (size_t i = 0; i <= kNumBounds; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

double Histogram::Snapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  const double rank = p * static_cast<double>(count);
  const auto& bounds = Bounds();
  uint64_t cum = 0;
  for (size_t i = 0; i < kNumBounds; ++i) {
    const uint64_t prev = cum;
    cum += buckets[i];
    if (static_cast<double>(cum) >= rank) {
      // Linear interpolation inside the bucket [lower, bounds[i]], clamped
      // to the observed max: no sample exceeded it, so no quantile may
      // either (the bucket's upper bound can lie far above it).
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double upper = bounds[i];
      const double in_bucket = static_cast<double>(buckets[i]);
      if (in_bucket <= 0.0) return std::min(upper, max_seconds);
      const double frac = (rank - static_cast<double>(prev)) / in_bucket;
      return std::min(lower + (upper - lower) * frac, max_seconds);
    }
  }
  return max_seconds;  // rank lands in the overflow bucket
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::string out;
  MutexLock lock(mu_);
  for (const auto& [name, c] : counters_) {
    out += "# TYPE " + name + " counter\n";
    out += name + ' ' + std::to_string(c->Value()) + '\n';
  }
  for (const auto& [name, g] : gauges_) {
    out += "# TYPE " + name + " gauge\n";
    out += name + ' ' + std::to_string(g->Value()) + '\n';
  }
  const auto& bounds = Histogram::Bounds();
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    out += "# TYPE " + name + " histogram\n";
    uint64_t cum = 0;
    for (size_t i = 0; i < Histogram::kNumBounds; ++i) {
      cum += s.buckets[i];
      out += name + "_bucket{le=\"" + FmtBound(bounds[i]) + "\"} " +
             std::to_string(cum) + '\n';
    }
    cum += s.buckets[Histogram::kNumBounds];
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(cum) + '\n';
    out += name + "_sum " + FmtSeconds(s.sum_seconds) + '\n';
    out += name + "_count " + std::to_string(s.count) + '\n';
    // Derived read-side quantiles; rendered as separate gauge families so
    // the exposition stays within the plain-text grammar.
    out += name + "_p50 " + FmtSeconds(s.Percentile(0.50)) + '\n';
    out += name + "_p95 " + FmtSeconds(s.Percentile(0.95)) + '\n';
    out += name + "_p99 " + FmtSeconds(s.Percentile(0.99)) + '\n';
    out += name + "_max " + FmtSeconds(s.max_seconds) + '\n';
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const kGlobal = new MetricsRegistry();
  return *kGlobal;
}

}  // namespace fdb
