// Batched query execution benchmark: MultiSearch throughput versus batch
// size across every ANN backend, plus the two hard contracts the batched
// path ships with — bitwise Search/MultiSearch parity and zero steady-state
// allocations per query (grow-once workspaces, audited via BufferPool
// counters).
//
// Writes BENCH_batch_exec.json (working directory, or UNIMATCH_METRICS_DIR):
//
// {
//   "bench": "batch_exec", "smoke": false, "backend": "avx2",
//   "num_rows": ..., "dim": ..., "num_queries": ..., "k": 10,
//   "backends": [
//     {"name": "flat", "parity": true, "allocs_per_query": 0.0,
//      "points": [
//        {"batch": 1, "qps": ..., "p99_batch_us": ...},
//        {"batch": 8, ...}, {"batch": 32, ...}, {"batch": 128, ...}
//      ],
//      "speedup_b32": 3.4},
//     {"name": "qflat", ...}, {"name": "ivf", ...}, {"name": "ivfpq", ...},
//     {"name": "hnsw", ...}, {"name": "hnsw_q", ...}
//   (qflat: the exact scan over int8 rows; hnsw_q: HNSW over int8 rows),
//   ],
//   "gates": {"parity": true, "max_allocs_per_query": 0.0,
//             "flat_speedup_b32": ..., "qflat_speedup_b32": ...,
//             "min_speedup": 2.0, "pass": true}
// }
//
// The gates are HARD: the bench exits non-zero unless (a) every backend's
// MultiSearch reproduces per-query Search exactly (ids AND scores), (b) the
// warmed steady state performs zero BufferPool acquires per query, and
// (c) the blocked scans (flat, qflat) reach >= 2x single-query QPS at batch
// 32 — the query-major sweep's cache-reuse dividend. Graph and inverted-file
// backends batch per query (their wins are workspace reuse, not blocking),
// so their speedups are reported but warn-only. Set UNIMATCH_BENCH_SMOKE=1
// for the CI-sized run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/ann/hnsw.h"
#include "src/ann/index.h"
#include "src/ann/pq.h"
#include "src/tensor/kernels.h"
#include "src/tensor/storage.h"
#include "src/util/file_util.h"
#include "src/util/logging.h"

namespace unimatch {
namespace {

constexpr int kTopK = 10;
constexpr double kMinSpeedup = 2.0;
const int64_t kBatchSizes[] = {1, 8, 32, 128};

Tensor RandomUnitVectors(int64_t n, int64_t d, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::Randn({n, d}, 1.0f, &rng);
  for (int64_t i = 0; i < n; ++i) {
    float* row = t.data() + i * d;
    double norm = 0.0;
    for (int64_t j = 0; j < d; ++j) norm += row[j] * row[j];
    const float inv = static_cast<float>(1.0 / std::sqrt(norm));
    for (int64_t j = 0; j < d; ++j) row[j] *= inv;
  }
  return t;
}

struct Point {
  int64_t batch = 0;
  double qps = 0.0;
  double p99_batch_us = 0.0;
};

struct BackendReport {
  std::string name;
  bool parity = true;
  double allocs_per_query = 0.0;
  std::vector<Point> points;
  double speedup_b32 = 0.0;
};

// Bitwise MultiSearch-vs-Search comparison over several batch shapes.
bool CheckParity(const std::string& name, const ann::Index& index,
                 const Tensor& queries, ann::SearchWorkspace& ws) {
  const int64_t d = queries.dim(1);
  for (const int64_t nq : {int64_t{1}, int64_t{7}, int64_t{32}}) {
    std::vector<ann::SearchResult> batched(nq * kTopK);
    index.MultiSearch(queries.data(), nq, kTopK, ws, batched.data());
    for (int64_t q = 0; q < nq; ++q) {
      const auto single = index.Search(queries.data() + q * d, kTopK);
      for (size_t r = 0; r < static_cast<size_t>(kTopK); ++r) {
        const ann::SearchResult& got = batched[q * kTopK + r];
        const int64_t want_id =
            r < single.size() ? single[r].id : int64_t{-1};
        const float want_score = r < single.size() ? single[r].score : 0.0f;
        if (got.id != want_id || got.score != want_score) {
          UM_LOG(ERROR) << "[batch_exec] " << name << ": PARITY BREAK at nq="
                        << nq << " q=" << q << " rank=" << r << " (got id "
                        << got.id << " score " << got.score << ", want id "
                        << want_id << " score " << want_score << ")";
          return false;
        }
      }
    }
  }
  return true;
}

BackendReport MeasureBackend(const std::string& name, const ann::Index& index,
                             const Tensor& queries, int64_t target_queries) {
  BackendReport report;
  report.name = name;
  const int64_t pool = queries.dim(0), d = queries.dim(1);
  ann::SearchWorkspace ws;

  report.parity = CheckParity(name, index, queries, ws);

  // Warm pass over every batch shape so each workspace buffer reaches its
  // high-water capacity before the pool counters are read.
  std::vector<ann::SearchResult> out(kBatchSizes[3] * kTopK);
  for (const int64_t batch : kBatchSizes) {
    for (int64_t q0 = 0; q0 + batch <= pool; q0 += batch) {
      index.MultiSearch(queries.data() + q0 * d, batch, kTopK, ws,
                        out.data());
    }
  }

  const BufferPool::Stats before = BufferPool::Global()->stats();
  int64_t measured_queries = 0;
  using Clock = std::chrono::steady_clock;
  for (const int64_t batch : kBatchSizes) {
    std::vector<double> micros;
    int64_t done = 0, q0 = 0;
    const auto t_begin = Clock::now();
    while (done < target_queries) {
      if (q0 + batch > pool) q0 = 0;
      const auto t0 = Clock::now();
      index.MultiSearch(queries.data() + q0 * d, batch, kTopK, ws,
                        out.data());
      const auto t1 = Clock::now();
      micros.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      q0 += batch;
      done += batch;
    }
    const double elapsed_s =
        std::chrono::duration<double>(Clock::now() - t_begin).count();
    measured_queries += done;
    std::sort(micros.begin(), micros.end());
    Point point;
    point.batch = batch;
    point.qps = elapsed_s > 0.0 ? static_cast<double>(done) / elapsed_s : 0.0;
    point.p99_batch_us = bench::Percentile(micros, 0.99);
    report.points.push_back(point);
  }
  const BufferPool::Stats after = BufferPool::Global()->stats();
  report.allocs_per_query =
      measured_queries > 0
          ? static_cast<double>(after.acquires - before.acquires) /
                static_cast<double>(measured_queries)
          : 0.0;

  double qps_b1 = 0.0, qps_b32 = 0.0;
  for (const Point& p : report.points) {
    if (p.batch == 1) qps_b1 = p.qps;
    if (p.batch == 32) qps_b32 = p.qps;
  }
  report.speedup_b32 = qps_b1 > 0.0 ? qps_b32 / qps_b1 : 0.0;
  UM_LOG(INFO) << "[batch_exec] " << name << ": parity "
               << (report.parity ? "ok" : "BROKEN") << ", qps b1 " << qps_b1
               << " -> b32 " << qps_b32 << " (" << report.speedup_b32
               << "x), allocs/query " << report.allocs_per_query;
  return report;
}

int Main(int argc, char** argv) {
  const bool smoke = bench::SmokeMode();
  double scale = bench::ParseScale(argc, argv);
  if (smoke) scale = std::min(scale, 0.1);

  // Catalog large enough that the f32 table overflows mid-level caches —
  // the regime where query-major blocking pays; random unit rows, since
  // this bench measures execution, not embedding quality.
  const int64_t n = std::max<int64_t>(
      4096, static_cast<int64_t>((smoke ? 16384 : 60000) *
                                 std::min(scale * 10.0, 1.0)));
  const int64_t d = 64;
  const int64_t num_queries = smoke ? 256 : 512;
  const int64_t target_queries = smoke ? 2048 : 8192;
  const Tensor table = RandomUnitVectors(n, d, 101);
  const Tensor queries = RandomUnitVectors(num_queries, d, 102);

  struct Backend {
    std::string name;
    std::unique_ptr<ann::Index> index;
  };
  std::vector<Backend> backends;
  backends.push_back({"flat", std::make_unique<ann::BruteForceIndex>()});
  backends.push_back(
      {"qflat", std::make_unique<ann::BruteForceIndex>(ScalarType::kI8)});
  ann::IvfConfig ivf;
  ivf.nprobe = 8;
  backends.push_back({"ivf", std::make_unique<ann::IvfIndex>(ivf)});
  ann::IvfPqConfig pq;
  pq.nprobe = 8;
  backends.push_back({"ivfpq", std::make_unique<ann::IvfPqIndex>(pq)});
  ann::HnswConfig hnsw;
  backends.push_back({"hnsw", std::make_unique<ann::HnswIndex>(hnsw)});
  ann::HnswConfig hnsw_i8;
  hnsw_i8.storage = ScalarType::kI8;
  backends.push_back({"hnsw_q", std::make_unique<ann::HnswIndex>(hnsw_i8)});
  for (Backend& b : backends) {
    WallTimer build_timer;
    const Status st = b.index->Build(table);
    UM_CHECK(st.ok()) << b.name << ": " << st.ToString();
    UM_LOG(INFO) << "[batch_exec] built " << b.name << " in "
                 << build_timer.ElapsedMillis() << " ms";
  }

  std::vector<BackendReport> reports;
  for (Backend& b : backends) {
    reports.push_back(
        MeasureBackend(b.name, *b.index, queries, target_queries));
  }

  bool parity = true;
  double max_allocs = 0.0, flat_speedup = 0.0, qflat_speedup = 0.0;
  for (const BackendReport& r : reports) {
    parity = parity && r.parity;
    max_allocs = std::max(max_allocs, r.allocs_per_query);
    if (r.name == "flat") flat_speedup = r.speedup_b32;
    if (r.name == "qflat") qflat_speedup = r.speedup_b32;
    if (r.name != "flat" && r.name != "qflat" &&
        r.speedup_b32 < kMinSpeedup) {
      UM_LOG(WARNING) << "[batch_exec] " << r.name << " speedup@32 "
                      << r.speedup_b32 << "x below " << kMinSpeedup
                      << "x (warn-only for graph/IVF backends)";
    }
  }
  const bool pass = parity && max_allocs == 0.0 &&
                    flat_speedup >= kMinSpeedup &&
                    qflat_speedup >= kMinSpeedup;

  std::string dir = ".";
  if (const char* denv = std::getenv("UNIMATCH_METRICS_DIR")) {
    if (denv[0] != '\0') dir = denv;
  }
  const std::string path = dir + "/BENCH_batch_exec.json";
  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"batch_exec\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"backend\": \""
       << bench::JsonEscape(kernels::BackendName(kernels::ActiveBackend()))
       << "\",\n"
       << "  \"num_rows\": " << n << ",\n"
       << "  \"dim\": " << d << ",\n"
       << "  \"num_queries\": " << num_queries << ",\n"
       << "  \"k\": " << kTopK << ",\n"
       << "  \"backends\": [\n";
  for (size_t i = 0; i < reports.size(); ++i) {
    const BackendReport& r = reports[i];
    json << "    {\"name\": \"" << bench::JsonEscape(r.name)
         << "\", \"parity\": " << (r.parity ? "true" : "false")
         << ", \"allocs_per_query\": " << r.allocs_per_query
         << ", \"speedup_b32\": " << r.speedup_b32 << ",\n"
         << "     \"points\": [";
    for (size_t p = 0; p < r.points.size(); ++p) {
      json << "{\"batch\": " << r.points[p].batch
           << ", \"qps\": " << r.points[p].qps
           << ", \"p99_batch_us\": " << r.points[p].p99_batch_us << "}"
           << (p + 1 < r.points.size() ? ", " : "");
    }
    json << "]}" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"gates\": {\"parity\": " << (parity ? "true" : "false")
       << ", \"max_allocs_per_query\": " << max_allocs
       << ", \"flat_speedup_b32\": " << flat_speedup
       << ", \"qflat_speedup_b32\": " << qflat_speedup
       << ", \"min_speedup\": " << kMinSpeedup
       << ", \"pass\": " << (pass ? "true" : "false") << "}\n"
       << "}\n";
  if (const Status wst = WriteFileAtomic(path, json.str()); !wst.ok()) {
    UM_LOG(WARNING) << "cannot write " << path << ": " << wst.ToString();
    return 1;
  }

  if (!pass) {
    UM_LOG(ERROR) << "BENCH_batch_exec: GATE FAILED — parity "
                  << (parity ? "ok" : "BROKEN") << ", max allocs/query "
                  << max_allocs << " (need 0), flat speedup@32 "
                  << flat_speedup << "x, qflat speedup@32 " << qflat_speedup
                  << "x (need >= " << kMinSpeedup << "x)";
    return 1;
  }
  UM_LOG(INFO) << "BENCH_batch_exec: gates pass (flat " << flat_speedup
               << "x, qflat " << qflat_speedup << "x at batch 32, allocs "
               << max_allocs << "/query); wrote " << path;
  return 0;
}

}  // namespace
}  // namespace unimatch

int main(int argc, char** argv) {
  unimatch::bench::MetricsDumper metrics_dumper("batch_exec");
  return unimatch::Main(argc, argv);
}
