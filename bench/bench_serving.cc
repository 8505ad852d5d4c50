// Serving-frontend load benchmark: an open-loop generator sweeping offered
// QPS against a frontend serving a really fitted engine's snapshot, plus a
// zero-downtime snapshot swap performed under load.
//
// Open-loop means arrivals follow a fixed schedule regardless of how fast
// responses come back — the honest way to find a saturation point, since a
// closed loop self-throttles and hides queueing collapse. Requests are a
// production-ish mix: 60% IR (user -> items), 30% UT (item -> users), 10%
// audience builds (item -> 100 users).
//
// Writes BENCH_serving.json (working directory, or UNIMATCH_METRICS_DIR):
//
// {
//   "bench": "serving", "smoke": false,
//   "num_users": ..., "num_items": ..., "embedding_dim": ...,
//   "frontend": {"max_batch": 64, "batch_window_us": 200, ...},
//   "sweep": [
//     {"offered_qps": 2000, "achieved_qps": 1998.2, "requests": 4000,
//      "shed": 0, "errors": 0, "p50_ms": 0.21, "p99_ms": 0.73,
//      "p999_ms": 1.9, "mean_batch": 3.1, "saturated": false,
//      "by_kind": {"ir": {"requests": 2400, "p50_ms": ..., "p99_ms": ...},
//                  "ut": {...}, "audience": {...}}},
//     ...
//   ],
//   "saturation_qps": 48211.0,      // highest achieved across the sweep
//   "swap": {"performed": true, "during_offered_qps": ...,
//            "failed_requests": 0, "build_ms": ...}
// }
//
// Latency is recorded per request as scheduled-arrival -> response, so
// generator lag counts against the server, as it would for a real client.
// Exits non-zero only on correctness failures (a non-shed error response,
// or any failed request during the swap); latency/QPS are recorded for the
// warn-only CI check. Set UNIMATCH_BENCH_SMOKE=1 for the CI-sized run.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/core/unimatch.h"
#include "src/serving/frontend.h"
#include "src/serving/snapshot.h"
#include "src/util/logging.h"

namespace unimatch {
namespace {

using Clock = std::chrono::steady_clock;

bool SmokeMode() {
  const char* env = std::getenv("UNIMATCH_BENCH_SMOKE");
  return env != nullptr && std::strcmp(env, "0") != 0 && env[0] != '\0';
}

struct KindStats {
  int64_t requests = 0;  // answered (non-shed, non-error) requests
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

struct SweepPoint {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  int64_t requests = 0;
  int64_t shed = 0;
  int64_t errors = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double mean_batch = 0.0;
  bool saturated = false;
  /// Latency split by request kind (IR / UT / audience): the three kinds
  /// hit different indexes and top_k sizes, so one aggregate percentile
  /// hides which traffic class saturates first.
  KindStats by_kind[3];
};

/// MixedRequest's kind for sequence number `i` as an index into
/// SweepPoint::by_kind (0 = IR, 1 = UT, 2 = audience).
int KindSlot(int64_t i) {
  const int64_t slot = i % 10;
  return slot < 6 ? 0 : (slot < 9 ? 1 : 2);
}

struct SwapReport {
  bool performed = false;
  double during_offered_qps = 0.0;
  int64_t failed_requests = 0;
  double build_ms = 0.0;
};

serving::Request MixedRequest(int64_t i, int64_t num_users,
                              int64_t num_items) {
  // 60% IR / 30% UT / 10% audience, deterministic round-robin over ids.
  const int64_t slot = i % 10;
  if (slot < 6) {
    return {serving::RequestKind::kRecommendItems, i % num_users, 10};
  }
  if (slot < 9) {
    return {serving::RequestKind::kTargetUsers, i % num_items, 10};
  }
  return {serving::RequestKind::kBuildAudience, i % num_items, 100};
}

/// Drives one offered-QPS level for `duration_s`, optionally publishing a
/// fresh snapshot mid-run. Returns the measured point.
SweepPoint RunLevel(serving::ServingFrontend* frontend,
                    serving::SnapshotPublisher* publisher,
                    const core::UniMatchEngine* engine, double offered_qps,
                    double duration_s, int64_t num_users, int64_t num_items,
                    SwapReport* swap) {
  const int64_t total =
      std::max<int64_t>(1, static_cast<int64_t>(offered_qps * duration_s));
  const auto interarrival =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / offered_qps));
  std::vector<std::future<serving::Response>> futures;
  std::vector<double> submit_lag_ms(total, 0.0);
  futures.reserve(total);

  const auto start = Clock::now();
  for (int64_t i = 0; i < total; ++i) {
    const auto scheduled = start + interarrival * i;
    auto now = Clock::now();
    // Hybrid wait: sleep until close to the arrival, spin the last stretch
    // so the schedule holds at high rates.
    while (now < scheduled) {
      const auto remaining = scheduled - now;
      if (remaining > std::chrono::microseconds(200)) {
        std::this_thread::sleep_for(remaining -
                                    std::chrono::microseconds(100));
      }
      now = Clock::now();
    }
    submit_lag_ms[i] =
        std::chrono::duration<double, std::milli>(now - scheduled).count();
    futures.push_back(frontend->Submit(MixedRequest(i, num_users, num_items)));
    if (swap != nullptr && !swap->performed && i == total / 2) {
      // Promote a fresh generation while this level's traffic is in
      // flight: the zero-downtime claim under measurement.
      WallTimer build_timer;
      auto next = serving::EngineSnapshot::FromEngine(
          *engine, publisher->Current()->version() + 1);
      UM_CHECK(next.ok()) << next.status().ToString();
      publisher->Publish(*next);
      swap->performed = true;
      swap->during_offered_qps = offered_qps;
      swap->build_ms = build_timer.ElapsedMillis();
    }
  }
  frontend->Drain();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  SweepPoint point;
  point.offered_qps = offered_qps;
  point.requests = total;
  std::vector<double> latencies;
  std::vector<double> kind_latencies[3];
  latencies.reserve(total);
  for (int64_t i = 0; i < total; ++i) {
    serving::Response response = futures[i].get();
    if (response.status.IsOverloaded()) {
      ++point.shed;
      continue;
    }
    if (!response.status.ok()) {
      ++point.errors;
      if (swap != nullptr && swap->performed) ++swap->failed_requests;
      continue;
    }
    const double latency_ms = submit_lag_ms[i] + response.latency_ms;
    latencies.push_back(latency_ms);
    kind_latencies[KindSlot(i)].push_back(latency_ms);
  }
  std::sort(latencies.begin(), latencies.end());
  for (int kind = 0; kind < 3; ++kind) {
    std::vector<double>& kl = kind_latencies[kind];
    std::sort(kl.begin(), kl.end());
    point.by_kind[kind].requests = static_cast<int64_t>(kl.size());
    point.by_kind[kind].p50_ms = bench::Percentile(kl, 0.50);
    point.by_kind[kind].p99_ms = bench::Percentile(kl, 0.99);
  }
  point.achieved_qps =
      elapsed_s > 0.0
          ? static_cast<double>(latencies.size()) / elapsed_s
          : 0.0;
  point.p50_ms = bench::Percentile(latencies, 0.50);
  point.p99_ms = bench::Percentile(latencies, 0.99);
  point.p999_ms = bench::Percentile(latencies, 0.999);
  // mean_batch is filled by the caller from the occupancy histogram.
  point.saturated = point.achieved_qps < 0.9 * offered_qps ||
                    point.shed > total / 100;
  return point;
}

int Main(int argc, char** argv) {
  const bool smoke = SmokeMode();
  double scale = bench::ParseScale(argc, argv);
  if (smoke) scale = std::min(scale, 0.1);

  // A really fitted engine, snapshotted for serving — the paper's
  // train-offline / promote-online split.
  auto env = bench::MakeEnv("books", scale);
  core::EngineConfig ec;
  ec.model = bench::DefaultModelConfig(*env, true);
  ec.train.epochs_per_month = 1;
  core::UniMatchEngine engine(ec);
  {
    WallTimer fit_timer;
    const Status st = engine.Fit(env->log);
    UM_CHECK(st.ok()) << st.ToString();
    UM_LOG(INFO) << "engine fitted in " << fit_timer.ElapsedMillis() << " ms";
  }
  const int64_t num_users = engine.user_embeddings().dim(0);
  const int64_t num_items = engine.item_embeddings().dim(0);

  serving::SnapshotPublisher publisher;
  auto snapshot = serving::EngineSnapshot::FromEngine(engine, 1);
  UM_CHECK(snapshot.ok()) << snapshot.status().ToString();
  publisher.Publish(*snapshot);

  serving::FrontendConfig fc;
  fc.num_threads = 0;  // hardware concurrency
  fc.max_queue_depth = 4096;
  fc.max_batch = 64;
  fc.batch_window_us = 200;
  fc.max_inflight_batches = 8;
  serving::ServingFrontend frontend(fc, &publisher);

  const double duration_s = smoke ? 0.25 : 1.0;
  const std::vector<double> offered =
      smoke ? std::vector<double>{1000, 5000, 20000}
            : std::vector<double>{2000, 5000, 10000, 20000, 50000, 100000};

  // Warm-up: fault in code paths and metric registrations off the record.
  for (int i = 0; i < 64; ++i) {
    frontend.Submit(MixedRequest(i, num_users, num_items));
  }
  frontend.Drain();

  SwapReport swap;
  std::vector<SweepPoint> sweep;
  double saturation_qps = 0.0;
  for (size_t level = 0; level < offered.size(); ++level) {
    // The swap runs during the middle level, under real load.
    SwapReport* swap_slot = level == offered.size() / 2 ? &swap : nullptr;
    SweepPoint point =
        RunLevel(&frontend, &publisher, &engine, offered[level], duration_s,
                 num_users, num_items, swap_slot);
    saturation_qps = std::max(saturation_qps, point.achieved_qps);
    UM_LOG(INFO) << "offered=" << point.offered_qps
                 << " achieved=" << point.achieved_qps
                 << " p50=" << point.p50_ms << "ms p99=" << point.p99_ms
                 << "ms p999=" << point.p999_ms
                 << "ms p99[ir/ut/aud]=" << point.by_kind[0].p99_ms << "/"
                 << point.by_kind[1].p99_ms << "/" << point.by_kind[2].p99_ms
                 << "ms shed=" << point.shed << " errors=" << point.errors
                 << (point.saturated ? " [saturated]" : "");
    sweep.push_back(point);
  }

  // Mean batch occupancy over the whole run, from the obs registry.
  double mean_batch = 0.0;
  if (const obs::Histogram* h = obs::MetricRegistry::Global()->FindHistogram(
          "serving.frontend.batch.occupancy")) {
    mean_batch = h->mean();
  }
  for (SweepPoint& point : sweep) point.mean_batch = mean_batch;

  std::string dir = ".";
  if (const char* d = std::getenv("UNIMATCH_METRICS_DIR")) {
    if (d[0] != '\0') dir = d;
  }
  const std::string path = dir + "/BENCH_serving.json";
  std::ostringstream out;
  out << "{\n"
      << "  \"bench\": \"serving\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"num_users\": " << num_users << ",\n"
      << "  \"num_items\": " << num_items << ",\n"
      << "  \"embedding_dim\": " << engine.item_embeddings().dim(1) << ",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"frontend\": {\"num_threads\": " << fc.num_threads
      << ", \"max_queue_depth\": " << fc.max_queue_depth
      << ", \"max_batch\": " << fc.max_batch
      << ", \"batch_window_us\": " << fc.batch_window_us
      << ", \"max_inflight_batches\": " << fc.max_inflight_batches << "},\n"
      << "  \"sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    out << "    {\"offered_qps\": " << p.offered_qps
        << ", \"achieved_qps\": " << p.achieved_qps
        << ", \"requests\": " << p.requests << ", \"shed\": " << p.shed
        << ", \"errors\": " << p.errors << ", \"p50_ms\": " << p.p50_ms
        << ", \"p99_ms\": " << p.p99_ms << ", \"p999_ms\": " << p.p999_ms
        << ", \"mean_batch\": " << p.mean_batch
        << ", \"saturated\": " << (p.saturated ? "true" : "false")
        << ",\n     \"by_kind\": {";
    static const char* kKindNames[3] = {"ir", "ut", "audience"};
    for (int kind = 0; kind < 3; ++kind) {
      const KindStats& ks = p.by_kind[kind];
      out << "\"" << kKindNames[kind]
          << "\": {\"requests\": " << ks.requests
          << ", \"p50_ms\": " << ks.p50_ms << ", \"p99_ms\": " << ks.p99_ms
          << "}" << (kind + 1 < 3 ? ", " : "");
    }
    out << "}}" << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"saturation_qps\": " << saturation_qps << ",\n"
      << "  \"swap\": {\"performed\": " << (swap.performed ? "true" : "false")
      << ", \"during_offered_qps\": " << swap.during_offered_qps
      << ", \"failed_requests\": " << swap.failed_requests
      << ", \"build_ms\": " << swap.build_ms << "}\n"
      << "}\n";
  if (const Status wst = bench::WriteFileAtomic(path, out.str()); !wst.ok()) {
    UM_LOG(WARNING) << "cannot write " << path << ": " << wst.ToString();
    return 1;
  }

  int64_t total_errors = 0;
  for (const SweepPoint& p : sweep) total_errors += p.errors;
  if (total_errors > 0 || swap.failed_requests > 0) {
    UM_LOG(ERROR) << "BENCH_serving: " << total_errors
                  << " error responses (swap failures: "
                  << swap.failed_requests << ")";
    return 1;
  }
  UM_CHECK(swap.performed) << "swap level never ran";
  UM_LOG(INFO) << "BENCH_serving: saturation ~" << saturation_qps
               << " qps, snapshot swap under load with 0 failed requests; "
               << "wrote " << path;
  return 0;
}

}  // namespace
}  // namespace unimatch

int main(int argc, char** argv) {
  unimatch::bench::MetricsDumper metrics_dumper("serving");
  return unimatch::Main(argc, argv);
}
