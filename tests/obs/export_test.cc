#include "src/obs/export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/obs/metrics.h"

namespace unimatch::obs {
namespace {

MetricRegistry& PopulatedRegistry() {
  static MetricRegistry* reg = [] {
    auto* r = new MetricRegistry();
    r->GetCounter("tensor.gemm.calls", "calls", "GEMM invocations")->Add(42);
    r->GetCounter("train.steps")->Add(7);
    r->GetGauge("train.epoch.loss", "nats")->Set(0.693147180559945);
    Histogram* h = r->GetHistogram("eval.evaluate.ms", "ms");
    h->Observe(0.2);
    h->Observe(3.7);
    h->Observe(120.0);
    return r;
  }();
  return *reg;
}

TEST(ExportTest, SnapshotCapturesValues) {
  const MetricsSnapshot snap = TakeSnapshot(PopulatedRegistry());
  EXPECT_EQ(snap.counters.at("tensor.gemm.calls"), 42);
  EXPECT_EQ(snap.counters.at("train.steps"), 7);
  EXPECT_DOUBLE_EQ(snap.gauges.at("train.epoch.loss"), 0.693147180559945);
  const HistogramSnapshot& h = snap.histograms.at("eval.evaluate.ms");
  EXPECT_EQ(h.count, 3);
  EXPECT_DOUBLE_EQ(h.sum, 0.2 + 3.7 + 120.0);
  EXPECT_EQ(h.bucket_counts.size(), h.bounds.size() + 1);
  EXPECT_EQ(snap.units.at("tensor.gemm.calls"), "calls");
  EXPECT_EQ(snap.units.at("eval.evaluate.ms"), "ms");
  EXPECT_EQ(snap.units.count("train.steps"), 0u);  // no unit registered
}

std::string Json(const MetricsSnapshot& snap) {
  std::ostringstream os;
  WriteSnapshotJson(snap, os);
  return os.str();
}

TEST(ExportTest, DoublesArePrintedWithMaxDigits10) {
  MetricsSnapshot snap;
  snap.counters["tensor.gemm.calls"] = 42;
  snap.counters["train.steps"] = 7;
  snap.gauges["train.epoch.loss"] = 0.1;
  snap.gauges["train.lr"] = 2.5e-7;
  snap.gauges["z.inf"] = std::numeric_limits<double>::infinity();
  snap.gauges["z.nan"] = std::numeric_limits<double>::quiet_NaN();
  HistogramSnapshot& h = snap.histograms["eval.evaluate.ms"];
  h.count = 3;
  h.sum = 123.9;
  h.p50 = 3.7;
  h.p90 = 120.0;
  h.p99 = 120.0;
  h.bounds = {1.0, 10.0};
  h.bucket_counts = {1, 1, 1};
  snap.units["eval.evaluate.ms"] = "ms";
  EXPECT_EQ(Json(snap),
            "{\n"
            "  \"schema\": \"unimatch.metrics.v1\",\n"
            "  \"counters\": {\n"
            "    \"tensor.gemm.calls\": 42,\n"
            "    \"train.steps\": 7\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"train.epoch.loss\": 0.10000000000000001,\n"
            "    \"train.lr\": 2.4999999999999999e-07,\n"
            "    \"z.inf\": 1e+308,\n"
            "    \"z.nan\": 0\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"eval.evaluate.ms\": {\"count\": 3, \"sum\": "
            "123.90000000000001, \"p50\": 3.7000000000000002, \"p90\": 120, "
            "\"p99\": 120,\n"
            "      \"bounds\": [1,10], \"bucket_counts\": [1,1,1]}\n"
            "  },\n"
            "  \"units\": {\n"
            "    \"eval.evaluate.ms\": \"ms\"\n"
            "  }\n"
            "}\n");
}

TEST(ExportTest, EmptySnapshotJson) {
  EXPECT_EQ(Json(MetricsSnapshot{}),
            "{\n"
            "  \"schema\": \"unimatch.metrics.v1\",\n"
            "  \"counters\": {},\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {},\n"
            "  \"units\": {}\n"
            "}\n");
}

TEST(ExportTest, NamesAreEscaped) {
  MetricsSnapshot snap;
  snap.counters["weird\"name\\with\nescapes\x01"] = 9;
  snap.units["weird\"name\\with\nescapes\x01"] = "\tcalls";
  EXPECT_EQ(Json(snap),
            "{\n"
            "  \"schema\": \"unimatch.metrics.v1\",\n"
            "  \"counters\": {\n"
            "    \"weird\\\"name\\\\with\\nescapes\\u0001\": 9\n"
            "  },\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {},\n"
            "  \"units\": {\n"
            "    \"weird\\\"name\\\\with\\nescapes\\u0001\": \"\\tcalls\"\n"
            "  }\n"
            "}\n");
}

TEST(ExportTest, WriteMetricsJsonFileWritesTheRegistryDump) {
  const std::string path = ::testing::TempDir() + "obs_export_test.json";
  // Ensure the global registry has at least one metric.
  MetricRegistry::Global()->GetCounter("exporttest.calls")->Add(1);
  ASSERT_TRUE(WriteMetricsJsonFile(path).ok());
  std::ostringstream expected;
  MetricRegistry::Global()->DumpJson(expected);
  std::ifstream in(path);
  std::stringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), expected.str());
  EXPECT_NE(written.str().find("\n    \"exporttest.calls\": "),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(ExportTest, WriteMetricsJsonFileFailsOnBadPath) {
  EXPECT_FALSE(WriteMetricsJsonFile("/nonexistent-dir/x/y.json").ok());
}

}  // namespace
}  // namespace unimatch::obs
