// Snapshot + serialization for the metrics registry: a point-in-time value
// capture and a JSON writer (the bench metrics files, read by tooling and
// people).

#ifndef UNIMATCH_OBS_EXPORT_H_
#define UNIMATCH_OBS_EXPORT_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace unimatch::obs {

class MetricRegistry;

struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::vector<double> bounds;
  std::vector<int64_t> bucket_counts;  // bounds.size() + 1 (overflow last)

  bool operator==(const HistogramSnapshot&) const = default;
};

/// Point-in-time capture of every registered metric.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  /// name -> unit, for every metric registered with a non-empty unit.
  std::map<std::string, std::string> units;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Captures the current values of `registry`.
MetricsSnapshot TakeSnapshot(const MetricRegistry& registry);

/// Writes the snapshot as JSON (schema "unimatch.metrics.v1", see
/// docs/OBSERVABILITY.md). Doubles are printed with max_digits10 precision,
/// so a reader recovers them exactly.
void WriteSnapshotJson(const MetricsSnapshot& snapshot, std::ostream& os);

/// Dumps the global registry as JSON, replacing `path` atomically
/// (WriteFileAtomic). Returns IOError on failure.
Status WriteMetricsJsonFile(const std::string& path);

}  // namespace unimatch::obs

#endif  // UNIMATCH_OBS_EXPORT_H_
