// Lock-cheap process-wide metrics: counters, gauges, and fixed-bucket
// histograms behind a named registry.
//
// Design constraints (see docs/OBSERVABILITY.md):
//  * Hot-path updates are a single relaxed atomic op — registration takes a
//    mutex once, after which callers hold stable Metric pointers for the
//    process lifetime (metrics are never unregistered; Reset() zeroes values
//    but keeps identities, so cached pointers in the UM_* macros stay valid).
//  * Collection can be toggled at runtime (EnableMetrics / UNIMATCH_METRICS
//    env var) and compiled out entirely with -DUNIMATCH_METRICS_DISABLED
//    (the UNIMATCH_METRICS=OFF CMake option); the classes below always exist
//    so tests and tools can use them directly in either mode.

#ifndef UNIMATCH_OBS_METRICS_H_
#define UNIMATCH_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/util/mutex.h"

namespace unimatch::obs {

/// Returns false when collection is disabled at runtime. Initialized once
/// from the UNIMATCH_METRICS environment variable ("0", "off", or "false"
/// disable it); defaults to enabled.
bool MetricsEnabled();

/// Flips runtime collection on/off process-wide.
void EnableMetrics(bool enabled);

/// Monotonically increasing integer (calls, records, FLOPs, ...).
class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-written floating-point value (loss, sizes, configuration knobs).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-boundary histogram with atomic bucket counts. Bucket i counts
/// observations v <= bounds[i]; one extra overflow bucket counts the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  /// Linear-interpolated quantile estimate from the bucket counts
  /// (q in [0, 1]); returns 0 when empty.
  double Quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Snapshot of all bucket counts (size = bounds().size() + 1; the last
  /// entry is the overflow bucket).
  std::vector<int64_t> BucketCounts() const;

  void Reset();

 private:
  std::vector<double> bounds_;                       // ascending
  std::vector<std::atomic<int64_t>> buckets_;        // bounds_.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default bucket boundaries for latency histograms, in milliseconds:
/// roughly exponential from 10 microseconds to 1 minute.
const std::vector<double>& LatencyBucketsMs();

/// Named registry of all metrics in the process. Lookups take an annotated
/// um::Mutex (lockrank::kObsMetrics — the highest rank in the tree, so any
/// module may register metrics while holding its own lock); returned
/// pointers are valid for the process lifetime, so hot paths should resolve
/// once and cache (the UM_* macros in obs.h do this with a function-local
/// static).
class MetricRegistry {
 public:
  /// Process-wide shared registry (lazily constructed, never destroyed).
  static MetricRegistry* Global();

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Gets or creates. `unit` and `help` are recorded on first registration
  /// and ignored afterwards. Histograms default to LatencyBucketsMs().
  Counter* GetCounter(const std::string& name, const std::string& unit = "",
                      const std::string& help = "") UM_EXCLUDES(mu_);
  Gauge* GetGauge(const std::string& name, const std::string& unit = "",
                  const std::string& help = "") UM_EXCLUDES(mu_);
  Histogram* GetHistogram(const std::string& name,
                          const std::string& unit = "ms",
                          const std::string& help = "",
                          const std::vector<double>& bounds = {})
      UM_EXCLUDES(mu_);

  /// nullptr when the name is not registered (or registered as another type).
  const Counter* FindCounter(const std::string& name) const
      UM_EXCLUDES(mu_);
  const Gauge* FindGauge(const std::string& name) const UM_EXCLUDES(mu_);
  const Histogram* FindHistogram(const std::string& name) const
      UM_EXCLUDES(mu_);

  std::vector<std::string> CounterNames() const UM_EXCLUDES(mu_);
  std::vector<std::string> GaugeNames() const UM_EXCLUDES(mu_);
  std::vector<std::string> HistogramNames() const UM_EXCLUDES(mu_);

  /// Unit recorded at registration ("" when unknown name).
  std::string UnitOf(const std::string& name) const UM_EXCLUDES(mu_);

  /// Zeroes every metric's value. Identities (and cached pointers) survive.
  void ResetAll() UM_EXCLUDES(mu_);

  /// Serializes every metric. See docs/OBSERVABILITY.md for the schema.
  void DumpJson(std::ostream& os) const;

 private:
  template <typename M>
  struct Entry {
    std::unique_ptr<M> metric;
    std::string unit;
    std::string help;
  };

  mutable Mutex mu_{lockrank::kObsMetrics, "obs.metrics"};
  std::map<std::string, Entry<Counter>> counters_ UM_GUARDED_BY(mu_);
  std::map<std::string, Entry<Gauge>> gauges_ UM_GUARDED_BY(mu_);
  std::map<std::string, Entry<Histogram>> histograms_ UM_GUARDED_BY(mu_);
};

}  // namespace unimatch::obs

#endif  // UNIMATCH_OBS_METRICS_H_
