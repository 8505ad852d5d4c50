// Kernel microbenchmarks (google-benchmark): the hot paths behind training
// and serving — gemm, embedding gather/scatter, the loss forward+backward,
// and ANN queries.
//
// Besides the google-benchmark suite, main() first runs a direct
// reference-vs-vectorized gemm comparison, logs each shape's GFLOP/s and
// speedup, and writes them to BENCH_kernels.json (same directory convention
// as the BENCH_*_metrics.json dumps; see docs/PERFORMANCE.md for the
// format). With the vector backend active it warns when 256x64x512 comes in
// under 3x; shared CI runners are noisy, so that check never fails the run.
// UNIMATCH_BENCH_SMOKE=1 shrinks both parts to a CI-friendly quick mode.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/ann/hnsw.h"
#include "src/ann/index.h"
#include "src/loss/losses.h"
#include "src/model/two_tower.h"
#include "src/nn/ops.h"
#include "src/nn/seq_ops.h"
#include "src/obs/obs.h"
#include "src/tensor/kernels.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/file_util.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"
#include "src/util/timer.h"

namespace unimatch {
namespace {

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, 1.0f, &rng);
  Tensor b = Tensor::Randn({n, n}, 1.0f, &rng);
  for (auto _ : state) {
    Tensor c = MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_EmbeddingLookupBackward(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Rng rng(2);
  nn::Variable table(Tensor::Randn({10000, 16}, 0.1f, &rng), true);
  std::vector<int64_t> ids(batch * 20);
  for (auto& id : ids) id = static_cast<int64_t>(rng.Uniform(10000));
  for (auto _ : state) {
    nn::Variable out = nn::EmbeddingLookupSeq(table, ids, batch, 20);
    nn::Variable loss = nn::Mean(out);
    nn::Backward(loss);
    table.ZeroGrad();
  }
  state.SetItemsProcessed(state.iterations() * batch * 20);
}
BENCHMARK(BM_EmbeddingLookupBackward)->Arg(64)->Arg(256);

void BM_BbcNceStep(benchmark::State& state) {
  const int64_t batch = state.range(0);
  model::TwoTowerConfig mc;
  mc.num_items = 5000;
  mc.embedding_dim = 16;
  model::TwoTowerModel model(mc);
  Rng rng(3);
  std::vector<int64_t> hist(batch * 20);
  std::vector<int64_t> lengths(batch, 20);
  std::vector<int64_t> targets(batch);
  for (auto& id : hist) id = static_cast<int64_t>(rng.Uniform(5000));
  for (auto& id : targets) id = static_cast<int64_t>(rng.Uniform(5000));
  Tensor log_pu({batch}), log_pi({batch});
  log_pu.Fill(-8.0f);
  log_pi.Fill(-8.0f);
  for (auto _ : state) {
    nn::Variable u = model.EncodeUsers(hist, lengths);
    nn::Variable i = model.EncodeItems(targets);
    nn::Variable scores = model.ScoreMatrix(u, i);
    nn::Variable l = loss::NceFamilyLoss(
        scores, log_pu, log_pi, loss::SettingsFor(loss::LossKind::kBbcNce));
    nn::Backward(l);
    model.ZeroGrad();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_BbcNceStep)->Arg(64)->Arg(128);

void BM_GruEncode(benchmark::State& state) {
  model::TwoTowerConfig mc;
  mc.num_items = 2000;
  mc.embedding_dim = 16;
  mc.extractor = model::ContextExtractor::kGru;
  model::TwoTowerModel model(mc);
  Rng rng(4);
  const int64_t batch = 64;
  std::vector<int64_t> hist(batch * 20);
  std::vector<int64_t> lengths(batch, 20);
  for (auto& id : hist) id = static_cast<int64_t>(rng.Uniform(2000));
  for (auto _ : state) {
    nn::Variable u = model.EncodeUsers(hist, lengths);
    benchmark::DoNotOptimize(u.value().data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_GruEncode);

void BM_BruteForceSearch(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(5);
  Tensor vecs = Tensor::Randn({n, 16}, 1.0f, &rng);
  ann::BruteForceIndex index;
  UM_CHECK(index.Build(vecs).ok());
  Tensor q = Tensor::Randn({16}, 1.0f, &rng);
  for (auto _ : state) {
    auto r = index.Search(q.data(), 10);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BruteForceSearch)->Arg(10000)->Arg(100000);

void BM_HnswSearch(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(7);
  Tensor raw = Tensor::Randn({n, 16}, 1.0f, &rng);
  Tensor vecs(raw.shape());
  L2NormalizeRows(raw, &vecs, nullptr);
  ann::HnswIndex index;
  UM_CHECK(index.Build(vecs).ok());
  Tensor q = Tensor::Randn({16}, 1.0f, &rng);
  for (auto _ : state) {
    auto r = index.Search(q.data(), 10);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HnswSearch)->Arg(10000)->Arg(50000);

// One serial build of the default-config graph over unit 16-d rows: the
// item index (3k rows) and the user index (9k rows) of a books refresh.
void BM_HnswBuild(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(8);
  Tensor raw = Tensor::Randn({n, 16}, 1.0f, &rng);
  Tensor vecs(raw.shape());
  L2NormalizeRows(raw, &vecs, nullptr);
  for (auto _ : state) {
    ann::HnswIndex index;
    UM_CHECK(index.Build(vecs).ok());
    benchmark::DoNotOptimize(index.entry_point());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HnswBuild)->Arg(3000)->Arg(9000)->Unit(benchmark::kMillisecond);

void BM_IvfSearch(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(6);
  Tensor raw = Tensor::Randn({n, 16}, 1.0f, &rng);
  Tensor vecs(raw.shape());
  L2NormalizeRows(raw, &vecs, nullptr);
  ann::IvfConfig cfg;
  cfg.nprobe = 8;
  ann::IvfIndex index(cfg);
  UM_CHECK(index.Build(vecs).ok());
  Tensor q = Tensor::Randn({16}, 1.0f, &rng);
  for (auto _ : state) {
    auto r = index.Search(q.data(), 10);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IvfSearch)->Arg(10000)->Arg(100000);

// ---------------------------------------------------------------------------
// Direct before/after gemm measurement -> BENCH_kernels.json.
// ---------------------------------------------------------------------------

struct GemmShape {
  int64_t m, n, k;
  bool trans_b;  // false: axpy-layout kernel, true: dot-layout kernel
};

// Times `fn` (one full gemm per call): repeats until `min_seconds` of work,
// returns GFLOP/s. One untimed warmup call primes caches and dispatch.
template <typename Fn>
double TimeGemmGflops(const GemmShape& s, double min_seconds, const Fn& fn) {
  fn();
  int64_t iters = 0;
  WallTimer timer;
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = timer.ElapsedSeconds();
  } while (elapsed < min_seconds);
  const double flops =
      2.0 * static_cast<double>(s.m) * static_cast<double>(s.n) *
      static_cast<double>(s.k) * static_cast<double>(iters);
  return flops / elapsed / 1e9;
}

// Measures the frozen scalar baseline vs the single-threaded vectorized row
// kernel (the kernel layer is called directly so the comparison excludes
// ThreadPool sharding: this is the per-core story).
void WriteKernelsJson(bool smoke) {
  const double min_seconds = smoke ? 0.05 : 0.4;
  const std::vector<GemmShape> shapes = smoke
      ? std::vector<GemmShape>{{256, 64, 512, false}}
      : std::vector<GemmShape>{{256, 64, 512, false},
                               {256, 64, 512, true},
                               {64, 64, 64, false},
                               {128, 128, 128, false}};
  Rng rng(42);

  std::string dir = ".";
  if (const char* env = std::getenv("UNIMATCH_METRICS_DIR")) {
    if (env[0] != '\0') dir = env;
  }
  const std::string path = dir + "/BENCH_kernels.json";
  std::ostringstream out;
  out << "{\n  \"bench\": \"micro_kernels\",\n  \"backend\": \""
      << bench::JsonEscape(kernels::BackendName(kernels::ActiveBackend()))
      << "\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"gemm\": [";
  bool first = true;
  for (const GemmShape& s : shapes) {
    Tensor a = Tensor::Randn({s.m, s.k}, 1.0f, &rng);
    Tensor b = s.trans_b ? Tensor::Randn({s.n, s.k}, 1.0f, &rng)
                         : Tensor::Randn({s.k, s.n}, 1.0f, &rng);
    Tensor c({s.m, s.n});
    const double ref = TimeGemmGflops(s, min_seconds, [&] {
      kernels::GemmReference(false, s.trans_b, s.m, s.n, s.k, 1.0f, a.data(),
                             b.data(), 0.0f, c.data());
    });
    const double vec = TimeGemmGflops(s, min_seconds, [&] {
      if (s.trans_b) {
        kernels::GemmRowsDot(0, s.m, s.n, s.k, 1.0f, a.data(), s.k, 1,
                             b.data(), 0.0f, c.data());
      } else {
        kernels::GemmRowsAxpy(0, s.m, s.n, s.k, 1.0f, a.data(), s.k, 1,
                              b.data(), 0.0f, c.data());
      }
    });
    const double speedup = ref > 0.0 ? vec / ref : 0.0;
    UM_GAUGE_SET("bench.kernels.gemm_speedup", speedup);
    const std::string shape = StrFormat(
        "%lldx%lldx%lld trans_b=%d", static_cast<long long>(s.m),
        static_cast<long long>(s.n), static_cast<long long>(s.k), s.trans_b);
    UM_LOG(INFO) << "[kernels] gemm " << shape
                 << StrFormat(": %.2f -> %.2f GFLOP/s (%.1fx)", ref, vec,
                              speedup);
    if (s.m == 256 && s.n == 64 && s.k == 512 && !s.trans_b &&
        kernels::ActiveBackend() != kernels::Backend::kPortable &&
        speedup < 3.0) {
      UM_LOG(WARNING) << "[kernels] gemm speedup "
                      << StrFormat("%.2f", speedup) << "x < 3x at " << shape;
    }
    out << (first ? "" : ",") << "\n    {\"m\": " << s.m << ", \"n\": " << s.n
        << ", \"k\": " << s.k
        << ", \"trans_b\": " << (s.trans_b ? "true" : "false")
        << ", \"reference_gflops\": " << ref << ", \"kernel_gflops\": " << vec
        << ", \"speedup\": " << speedup << "}";
    first = false;
  }
  out << "\n  ]\n}\n";
  if (const Status wst = WriteFileAtomic(path, out.str()); !wst.ok()) {
    UM_LOG(WARNING) << "cannot write " << path << ": " << wst.ToString();
    return;
  }
  UM_LOG(INFO) << "wrote " << path;
}

bool HasBenchmarkFilter(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_filter", 18) == 0) return true;
  }
  return false;
}

}  // namespace
}  // namespace unimatch

int main(int argc, char** argv) {
  unimatch::bench::MetricsDumper metrics_dumper("micro_kernels");
  const bool smoke = unimatch::bench::SmokeMode();
  unimatch::WriteKernelsJson(smoke);

  std::vector<char*> args(argv, argv + argc);
  // Quick mode: unless the caller picked their own filter, trim the
  // google-benchmark suite to one small gemm so CI stays fast.
  std::string smoke_filter = "--benchmark_filter=BM_Gemm/64$";
  if (smoke && !unimatch::HasBenchmarkFilter(argc, argv)) {
    args.push_back(smoke_filter.data());
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
