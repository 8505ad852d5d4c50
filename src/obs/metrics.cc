#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "src/obs/export.h"
#include "src/util/logging.h"

namespace unimatch::obs {

namespace {

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled = [] {
    const char* env = std::getenv("UNIMATCH_METRICS");
    if (env != nullptr &&
        (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
         std::strcmp(env, "false") == 0)) {
      return false;
    }
    return true;
  }();
  return enabled;
}

// Relaxed atomic add for doubles via CAS (atomic<double>::fetch_add is
// C++20 but not universally implemented).
void AtomicAdd(std::atomic<double>* target, double delta) {
  double cur = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(cur, cur + delta,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

bool MetricsEnabled() { return EnabledFlag().load(std::memory_order_relaxed); }

void EnableMetrics(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  UM_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must be ascending";
}

void Histogram::Observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const size_t idx = static_cast<size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, v);
}

double Histogram::mean() const {
  const int64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::Quantile(double q) const {
  const std::vector<int64_t> counts = BucketCounts();
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts[i]);
    if (next >= target || i + 1 == counts.size()) {
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = i < bounds_.size() ? bounds_[i] : bounds_.back();
      if (counts[i] == 0) return hi;
      const double frac =
          std::min(1.0, std::max(0.0, (target - cumulative) /
                                          static_cast<double>(counts[i])));
      return lo + frac * (hi - lo);
    }
    cumulative = next;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

const std::vector<double>& LatencyBucketsMs() {
  static const std::vector<double> kBounds = {
      0.01, 0.025, 0.05, 0.1,  0.25, 0.5,  1.0,    2.5,     5.0,
      10.0, 25.0,  50.0, 100., 250., 500., 1000.0, 2500.0,  5000.0,
      10000.0, 30000.0, 60000.0};
  return kBounds;
}

MetricRegistry* MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();  // NOLINT(naked-new)
  return registry;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const std::string& unit,
                                    const std::string& help) {
  MutexLock lock(&mu_);
  auto& entry = counters_[name];
  if (!entry.metric) {
    entry.metric = std::make_unique<Counter>();
    entry.unit = unit;
    entry.help = help;
  }
  return entry.metric.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const std::string& unit,
                                const std::string& help) {
  MutexLock lock(&mu_);
  auto& entry = gauges_[name];
  if (!entry.metric) {
    entry.metric = std::make_unique<Gauge>();
    entry.unit = unit;
    entry.help = help;
  }
  return entry.metric.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const std::string& unit,
                                        const std::string& help,
                                        const std::vector<double>& bounds) {
  MutexLock lock(&mu_);
  auto& entry = histograms_[name];
  if (!entry.metric) {
    entry.metric = std::make_unique<Histogram>(
        bounds.empty() ? LatencyBucketsMs() : bounds);
    entry.unit = unit;
    entry.help = help;
  }
  return entry.metric.get();
}

const Counter* MetricRegistry::FindCounter(const std::string& name) const {
  MutexLock lock(&mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.metric.get();
}

const Gauge* MetricRegistry::FindGauge(const std::string& name) const {
  MutexLock lock(&mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.metric.get();
}

const Histogram* MetricRegistry::FindHistogram(const std::string& name) const {
  MutexLock lock(&mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.metric.get();
}

std::vector<std::string> MetricRegistry::CounterNames() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [name, entry] : counters_) names.push_back(name);
  return names;
}

std::vector<std::string> MetricRegistry::GaugeNames() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(gauges_.size());
  for (const auto& [name, entry] : gauges_) names.push_back(name);
  return names;
}

std::vector<std::string> MetricRegistry::HistogramNames() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(histograms_.size());
  for (const auto& [name, entry] : histograms_) names.push_back(name);
  return names;
}

std::string MetricRegistry::UnitOf(const std::string& name) const {
  MutexLock lock(&mu_);
  if (const auto it = counters_.find(name); it != counters_.end()) {
    return it->second.unit;
  }
  if (const auto it = gauges_.find(name); it != gauges_.end()) {
    return it->second.unit;
  }
  if (const auto it = histograms_.find(name); it != histograms_.end()) {
    return it->second.unit;
  }
  return "";
}

void MetricRegistry::ResetAll() {
  MutexLock lock(&mu_);
  for (auto& [name, entry] : counters_) entry.metric->Reset();
  for (auto& [name, entry] : gauges_) entry.metric->Reset();
  for (auto& [name, entry] : histograms_) entry.metric->Reset();
}

void MetricRegistry::DumpJson(std::ostream& os) const {
  WriteSnapshotJson(TakeSnapshot(*this), os);
}

}  // namespace unimatch::obs
