#include "src/obs/export.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "src/obs/metrics.h"
#include "src/util/file_util.h"

namespace unimatch::obs {

namespace {

void WriteEscaped(const std::string& s, std::ostream& os) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void WriteDouble(double v, std::ostream& os) {
  // max_digits10 lets a reader recover the exact double; JSON has no
  // inf/nan, so clamp.
  if (std::isnan(v)) v = 0.0;
  if (std::isinf(v)) v = v > 0 ? 1e308 : -1e308;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g",
                std::numeric_limits<double>::max_digits10, v);
  os << buf;
}

template <typename Seq, typename Fn>
void WriteJoined(const Seq& seq, std::ostream& os, Fn&& write_one) {
  bool first = true;
  for (const auto& item : seq) {
    if (!first) os << ",";
    first = false;
    write_one(item);
  }
}

}  // namespace

MetricsSnapshot TakeSnapshot(const MetricRegistry& registry) {
  MetricsSnapshot snap;
  for (const std::string& name : registry.CounterNames()) {
    const Counter* c = registry.FindCounter(name);
    if (c == nullptr) continue;
    snap.counters[name] = c->value();
    if (std::string unit = registry.UnitOf(name); !unit.empty()) {
      snap.units[name] = std::move(unit);
    }
  }
  for (const std::string& name : registry.GaugeNames()) {
    const Gauge* g = registry.FindGauge(name);
    if (g == nullptr) continue;
    snap.gauges[name] = g->value();
    if (std::string unit = registry.UnitOf(name); !unit.empty()) {
      snap.units[name] = std::move(unit);
    }
  }
  for (const std::string& name : registry.HistogramNames()) {
    const Histogram* h = registry.FindHistogram(name);
    if (h == nullptr) continue;
    HistogramSnapshot hs;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.p50 = h->Quantile(0.50);
    hs.p90 = h->Quantile(0.90);
    hs.p99 = h->Quantile(0.99);
    hs.bounds = h->bounds();
    hs.bucket_counts = h->BucketCounts();
    snap.histograms[name] = std::move(hs);
    if (std::string unit = registry.UnitOf(name); !unit.empty()) {
      snap.units[name] = std::move(unit);
    }
  }
  return snap;
}

void WriteSnapshotJson(const MetricsSnapshot& snapshot, std::ostream& os) {
  os << "{\n  \"schema\": \"unimatch.metrics.v1\",\n  \"counters\": {";
  WriteJoined(snapshot.counters, os, [&](const auto& kv) {
    os << "\n    ";
    WriteEscaped(kv.first, os);
    os << ": " << kv.second;
  });
  os << (snapshot.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  WriteJoined(snapshot.gauges, os, [&](const auto& kv) {
    os << "\n    ";
    WriteEscaped(kv.first, os);
    os << ": ";
    WriteDouble(kv.second, os);
  });
  os << (snapshot.gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  WriteJoined(snapshot.histograms, os, [&](const auto& kv) {
    const HistogramSnapshot& h = kv.second;
    os << "\n    ";
    WriteEscaped(kv.first, os);
    os << ": {\"count\": " << h.count << ", \"sum\": ";
    WriteDouble(h.sum, os);
    os << ", \"p50\": ";
    WriteDouble(h.p50, os);
    os << ", \"p90\": ";
    WriteDouble(h.p90, os);
    os << ", \"p99\": ";
    WriteDouble(h.p99, os);
    os << ",\n      \"bounds\": [";
    WriteJoined(h.bounds, os, [&](double b) { WriteDouble(b, os); });
    os << "], \"bucket_counts\": [";
    WriteJoined(h.bucket_counts, os, [&](int64_t c) { os << c; });
    os << "]}";
  });
  os << (snapshot.histograms.empty() ? "" : "\n  ") << "},\n  \"units\": {";
  WriteJoined(snapshot.units, os, [&](const auto& kv) {
    os << "\n    ";
    WriteEscaped(kv.first, os);
    os << ": ";
    WriteEscaped(kv.second, os);
  });
  os << (snapshot.units.empty() ? "" : "\n  ") << "}\n}\n";
}

Status WriteMetricsJsonFile(const std::string& path) {
  std::ostringstream json;
  MetricRegistry::Global()->DumpJson(json);
  return WriteFileAtomic(path, json.str());
}

}  // namespace unimatch::obs
