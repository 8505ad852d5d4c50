#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/obs/obs.h"
#include "src/util/threadpool.h"

namespace unimatch::obs {
namespace {

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Add(5);
  c.Increment();
  EXPECT_EQ(c.value(), 6);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(GaugeTest, SetOverwrites) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.Set(3.5);
  g.Set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(HistogramTest, BucketAssignment) {
  Histogram h({1.0, 2.0, 4.0});
  h.Observe(0.5);   // bucket 0 (<= 1)
  h.Observe(1.0);   // bucket 0 (boundary is inclusive)
  h.Observe(1.5);   // bucket 1
  h.Observe(4.0);   // bucket 2
  h.Observe(100.0); // overflow
  const auto counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), h.sum() / 5.0);
}

TEST(HistogramTest, QuantilesAreMonotonicAndBounded) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 100; ++i) h.Observe(1.5);  // all in (1, 2]
  const double p10 = h.Quantile(0.10);
  const double p50 = h.Quantile(0.50);
  const double p99 = h.Quantile(0.99);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p99);
  EXPECT_GE(p10, 1.0);
  EXPECT_LE(p99, 2.0);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram h({1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, ResetZeroesEverything) {
  Histogram h({1.0});
  h.Observe(0.5);
  h.Observe(5.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  for (int64_t c : h.BucketCounts()) EXPECT_EQ(c, 0);
}

TEST(RegistryTest, GetReturnsStablePointer) {
  MetricRegistry reg;
  Counter* a = reg.GetCounter("x.calls", "calls");
  Counter* b = reg.GetCounter("x.calls");
  EXPECT_EQ(a, b);
  a->Add(7);
  EXPECT_EQ(reg.FindCounter("x.calls")->value(), 7);
  EXPECT_EQ(reg.UnitOf("x.calls"), "calls");  // unit from first registration
}

TEST(RegistryTest, FindUnknownReturnsNull) {
  MetricRegistry reg;
  EXPECT_EQ(reg.FindCounter("nope"), nullptr);
  EXPECT_EQ(reg.FindGauge("nope"), nullptr);
  EXPECT_EQ(reg.FindHistogram("nope"), nullptr);
  EXPECT_EQ(reg.UnitOf("nope"), "");
}

TEST(RegistryTest, ResetAllKeepsIdentities) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("r.calls");
  Histogram* h = reg.GetHistogram("r.ms");
  c->Add(3);
  h->Observe(1.0);
  reg.ResetAll();
  EXPECT_EQ(c->value(), 0);
  EXPECT_EQ(h->count(), 0);
  EXPECT_EQ(reg.GetCounter("r.calls"), c);  // same object after reset
}

TEST(RegistryTest, ConcurrentCounterIncrementsFromThreadPool) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("concurrent.calls");
  Histogram* h = reg.GetHistogram("concurrent.ms");
  ThreadPool pool(8);
  constexpr int kTasks = 64;
  constexpr int kPerTask = 1000;
  for (int t = 0; t < kTasks; ++t) {
    pool.Schedule([&] {
      for (int i = 0; i < kPerTask; ++i) {
        c->Add(1);
        h->Observe(static_cast<double>(i % 7));
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(c->value(), int64_t{kTasks} * kPerTask);
  EXPECT_EQ(h->count(), int64_t{kTasks} * kPerTask);
  int64_t bucket_total = 0;
  for (int64_t b : h->BucketCounts()) bucket_total += b;
  EXPECT_EQ(bucket_total, h->count());
}

TEST(RegistryTest, ConcurrentRegistrationIsSafe) {
  MetricRegistry reg;
  ThreadPool pool(8);
  std::atomic<Counter*> seen{nullptr};
  std::atomic<bool> mismatch{false};
  for (int t = 0; t < 32; ++t) {
    pool.Schedule([&] {
      Counter* c = reg.GetCounter("race.calls");
      Counter* expected = nullptr;
      if (!seen.compare_exchange_strong(expected, c) && expected != c) {
        mismatch.store(true);
      }
      c->Add(1);
    });
  }
  pool.Wait();
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(reg.FindCounter("race.calls")->value(), 32);
}

#if !defined(UNIMATCH_METRICS_DISABLED)

TEST(MacroTest, RuntimeDisableStopsCollection) {
  // The macros target the global registry; use unique names and deltas so
  // this test is robust to other tests in the same process.
  MetricRegistry* reg = MetricRegistry::Global();
  UM_COUNTER_ADD("macrotest.toggle.calls", 1);  // registers the metric
  const int64_t before = reg->FindCounter("macrotest.toggle.calls")->value();
  EnableMetrics(false);
  UM_COUNTER_ADD("macrotest.toggle.calls", 100);
  EnableMetrics(true);
  UM_COUNTER_ADD("macrotest.toggle.calls", 1);
  EXPECT_EQ(reg->FindCounter("macrotest.toggle.calls")->value(), before + 1);
}

TEST(MacroTest, ScopedTimerFeedsHistogram) {
  MetricRegistry* reg = MetricRegistry::Global();
  {
    UM_SCOPED_TIMER("macrotest.timer.ms");
  }
  const Histogram* h = reg->FindHistogram("macrotest.timer.ms");
  ASSERT_NE(h, nullptr);
  EXPECT_GE(h->count(), 1);
  EXPECT_EQ(reg->UnitOf("macrotest.timer.ms"), "ms");
}

#endif  // !UNIMATCH_METRICS_DISABLED

}  // namespace
}  // namespace unimatch::obs
