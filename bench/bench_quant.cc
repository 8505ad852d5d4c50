// Quantized retrieval benchmark: the recall/latency/bytes frontier across
// storage types ({f32, f16, i8} tables, PQ codes) and index structures
// (flat scan, IVF-PQ, HNSW), measured on really trained embeddings.
//
// Writes BENCH_quant.json (working directory, or UNIMATCH_METRICS_DIR):
//
// {
//   "bench": "quant", "smoke": false, "backend": "avx2",
//   "num_rows": ..., "num_queries": ..., "dim": 16,
//   "f32_bytes_per_row": 64.0,
//   "frontier": [
//     {"index": "flat", "storage": "f32", "bytes_per_row": 64.0,
//      "compression_x": 1.0, "build_ms": ..., "recall_at_10": 1.0,
//      "mean_query_us": ..., "p99_query_us": ...},
//     {"index": "flat", "storage": "i8", ...},
//     {"index": "ivfpq", "storage": "pq", ...},
//     {"index": "hnsw", "storage": "i8", ...}, ...
//   ],
//   "gates": {"int8_flat_recall": ..., "ivfpq_recall": ...,
//             "int8_compression_x": ..., "pass": true}
// }
//
// The gates are HARD: the bench exits non-zero unless int8 flat and IVF-PQ
// both reach recall@10 >= 0.95 against the exact f32 scan AND the int8
// table is >= 3x smaller per row than f32. CI runs this in smoke mode on
// every push (bench-quant job); the full-size run happens in the nightly
// workflow. Set UNIMATCH_BENCH_SMOKE=1 for the CI-sized run.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/ann/hnsw.h"
#include "src/ann/index.h"
#include "src/ann/pq.h"
#include "src/core/unimatch.h"
#include "src/tensor/kernels.h"
#include "src/tensor/quant.h"
#include "src/util/file_util.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace unimatch {
namespace {

constexpr int kRecallK = 10;
constexpr double kMinRecall = 0.95;
constexpr double kMinCompression = 3.0;

struct FrontierPoint {
  std::string index;
  std::string storage;
  double bytes_per_row = 0.0;
  double compression_x = 0.0;
  double build_ms = 0.0;
  double recall = 0.0;
  double mean_query_us = 0.0;
  double p99_query_us = 0.0;
};

FrontierPoint Measure(const std::string& index_name,
                      const std::string& storage_name, ann::Index* index,
                      double bytes_per_row, double f32_bytes_per_row,
                      const Tensor& table, const Tensor& queries,
                      const ann::BruteForceIndex& exact) {
  FrontierPoint point;
  point.index = index_name;
  point.storage = storage_name;
  point.bytes_per_row = bytes_per_row;
  point.compression_x =
      bytes_per_row > 0.0 ? f32_bytes_per_row / bytes_per_row : 0.0;
  {
    WallTimer build_timer;
    const Status st = index->Build(table);
    UM_CHECK(st.ok()) << index_name << "/" << storage_name << ": "
                      << st.ToString();
    point.build_ms = build_timer.ElapsedMillis();
  }
  point.recall = ann::MeasureRecallAtK(*index, exact, queries, kRecallK);

  using Clock = std::chrono::steady_clock;
  const int64_t nq = queries.dim(0), d = queries.dim(1);
  std::vector<double> micros;
  micros.reserve(nq);
  for (int64_t q = 0; q < nq; ++q) {
    const auto t0 = Clock::now();
    const auto results = index->Search(queries.data() + q * d, kRecallK);
    const auto t1 = Clock::now();
    UM_CHECK(!results.empty());
    micros.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  std::sort(micros.begin(), micros.end());
  double total = 0.0;
  for (const double m : micros) total += m;
  point.mean_query_us = total / static_cast<double>(micros.size());
  point.p99_query_us = bench::Percentile(micros, 0.99);
  UM_LOG(INFO) << "[quant] " << index_name << "/" << storage_name
               << ": recall@" << kRecallK << " " << point.recall << ", "
               << point.bytes_per_row << " B/row ("
               << point.compression_x << "x), query "
               << point.mean_query_us << " us mean";
  return point;
}

int Main(int argc, char** argv) {
  const bool smoke = bench::SmokeMode();
  double scale = bench::ParseScale(argc, argv);
  if (smoke) scale = std::min(scale, 0.1);

  // Really trained embeddings, not random ones: quantization error and
  // cluster structure both depend on the actual embedding distribution.
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

  // Index the user table (the matrix that dominates the paper's memory
  // bill) and probe it with item embeddings — the UT serving direction.
  const Tensor table = engine.user_embeddings();
  const Tensor& items = engine.item_embeddings();
  const int64_t n = table.dim(0), d = table.dim(1);
  const int64_t nq = std::min<int64_t>(items.dim(0), 200);
  Tensor queries({nq, d});
  std::copy(items.data(), items.data() + nq * d, queries.data());
  UM_CHECK_GE(n, kRecallK);

  ann::BruteForceIndex exact;
  UM_CHECK(exact.Build(table).ok());
  const double f32_bytes_per_row = static_cast<double>(d) * 4.0;

  std::vector<FrontierPoint> frontier;

  // Flat scans: exact candidate set, storage is the only variable.
  for (const ScalarType type :
       {ScalarType::kF32, ScalarType::kF16, ScalarType::kI8}) {
    ann::BruteForceIndex flat(type);
    const double bpr =
        QuantizedMatrix::Quantize(table, type).bytes_per_row();
    frontier.push_back(Measure("flat", ScalarTypeName(type), &flat, bpr,
                               f32_bytes_per_row, table, queries, exact));
  }

  // IVF-PQ tuned for the recall gate rather than probe sparsity: one
  // subspace per lane (ds = 1, the accuracy end of the PQ spectrum — d
  // uint8 codes per row) and a generous nprobe. The trained user
  // embeddings contain many near-tied scores, so coarser subspaces (the
  // default m = 4) trade recall for bytes well below the 0.95 gate.
  ann::IvfPqConfig pq_config;
  pq_config.nprobe = 24;
  pq_config.num_subspaces = 16;
  double ivfpq_recall = 0.0;
  {
    ann::IvfPqIndex ivfpq(pq_config);
    // bytes_per_row is only known after Build; patch it in afterwards.
    FrontierPoint point = Measure("ivfpq", "pq", &ivfpq, 0.0,
                                  f32_bytes_per_row, table, queries, exact);
    point.bytes_per_row = ivfpq.bytes_per_row();
    point.compression_x = f32_bytes_per_row / point.bytes_per_row;
    ivfpq_recall = point.recall;
    frontier.push_back(point);
  }

  // HNSW: graph search over f32 / quantized rows.
  for (const ScalarType type :
       {ScalarType::kF32, ScalarType::kF16, ScalarType::kI8}) {
    ann::HnswConfig hc;
    hc.storage = type;
    ann::HnswIndex hnsw(hc);
    const double bpr =
        QuantizedMatrix::Quantize(table, type).bytes_per_row();
    frontier.push_back(Measure("hnsw", ScalarTypeName(type), &hnsw, bpr,
                               f32_bytes_per_row, table, queries, exact));
  }

  double int8_flat_recall = 0.0, int8_compression = 0.0;
  for (const FrontierPoint& p : frontier) {
    if (p.index == "flat" && p.storage == "i8") {
      int8_flat_recall = p.recall;
      int8_compression = p.compression_x;
    }
  }
  const bool pass = int8_flat_recall >= kMinRecall &&
                    ivfpq_recall >= kMinRecall &&
                    int8_compression >= kMinCompression;

  std::string dir = ".";
  if (const char* denv = std::getenv("UNIMATCH_METRICS_DIR")) {
    if (denv[0] != '\0') dir = denv;
  }
  const std::string path = dir + "/BENCH_quant.json";
  std::ostringstream out;
  out << "{\n"
      << "  \"bench\": \"quant\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"backend\": \""
      << bench::JsonEscape(kernels::BackendName(kernels::ActiveBackend()))
      << "\",\n"
      << "  \"num_rows\": " << n << ",\n"
      << "  \"num_queries\": " << nq << ",\n"
      << "  \"dim\": " << d << ",\n"
      << "  \"recall_k\": " << kRecallK << ",\n"
      << "  \"f32_bytes_per_row\": " << f32_bytes_per_row << ",\n"
      << "  \"frontier\": [\n";
  for (size_t i = 0; i < frontier.size(); ++i) {
    const FrontierPoint& p = frontier[i];
    out << "    {\"index\": \"" << bench::JsonEscape(p.index)
        << "\", \"storage\": \"" << bench::JsonEscape(p.storage)
        << "\", \"bytes_per_row\": " << p.bytes_per_row
        << ", \"compression_x\": " << p.compression_x
        << ", \"build_ms\": " << p.build_ms
        << ", \"recall_at_10\": " << p.recall
        << ", \"mean_query_us\": " << p.mean_query_us
        << ", \"p99_query_us\": " << p.p99_query_us << "}"
        << (i + 1 < frontier.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"gates\": {\"int8_flat_recall\": " << int8_flat_recall
      << ", \"ivfpq_recall\": " << ivfpq_recall
      << ", \"int8_compression_x\": " << int8_compression
      << ", \"min_recall\": " << kMinRecall
      << ", \"min_compression_x\": " << kMinCompression
      << ", \"pass\": " << (pass ? "true" : "false") << "}\n"
      << "}\n";
  if (const Status wst = WriteFileAtomic(path, out.str()); !wst.ok()) {
    UM_LOG(WARNING) << "cannot write " << path << ": " << wst.ToString();
    return 1;
  }

  if (!pass) {
    UM_LOG(ERROR) << "BENCH_quant: GATE FAILED — int8 flat recall "
                  << int8_flat_recall << " (need >= " << kMinRecall
                  << "), ivfpq recall " << ivfpq_recall << " (need >= "
                  << kMinRecall << "), int8 compression "
                  << int8_compression << "x (need >= " << kMinCompression
                  << "x)";
    return 1;
  }
  UM_LOG(INFO) << "BENCH_quant: gates pass (int8 flat recall "
               << int8_flat_recall << ", ivfpq recall " << ivfpq_recall
               << ", compression " << int8_compression << "x); wrote "
               << path;
  return 0;
}

}  // namespace
}  // namespace unimatch

int main(int argc, char** argv) {
  unimatch::bench::MetricsDumper metrics_dumper("quant");
  return unimatch::Main(argc, argv);
}
