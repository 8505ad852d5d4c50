#include "src/ann/index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/obs/obs.h"
#include "src/tensor/kernels.h"
#include "src/util/contract.h"
#include "src/util/logging.h"
#include "src/util/random.h"

namespace unimatch::ann {

namespace {

float Dot(const float* a, const float* b, int64_t d) {
  return kernels::DotF32(a, b, d);
}

// Catalog rows per scoring block in the flat scans. A block stays
// cache-resident while every query in the micro-batch scores against it.
// Fixed (never a function of nq), and a multiple of the gemm kernel's
// 4-row j-grouping, so a given catalog row reduces identically at every
// batch size — the bitwise Search/MultiSearch parity contract.
constexpr int64_t kScanBlockRows = 256;

}  // namespace

Tensor TrainSphericalKMeans(const Tensor& vectors, int64_t nlist, int iters,
                            uint64_t seed, std::vector<int64_t>* assign) {
  UM_CHECK_EQ(vectors.rank(), 2);
  const int64_t n = vectors.dim(0), d = vectors.dim(1);
  UM_CHECK_GT(n, 0);
  UM_CHECK_GT(nlist, 0);
  UM_CHECK_LE(nlist, n);

  // Init centroids from random distinct points.
  Rng rng(seed);
  Tensor centroids({nlist, d});
  auto init = rng.SampleWithoutReplacement(n, nlist);
  for (int64_t c = 0; c < nlist; ++c) {
    const float* src = vectors.data() + init[c] * d;
    std::copy(src, src + d, centroids.data() + c * d);
  }
  std::vector<int64_t> local_assign(n, 0);
  std::vector<int64_t>& a = assign != nullptr ? *assign : local_assign;
  a.assign(n, 0);
  for (int iter = 0; iter < iters; ++iter) {
    // Assignment step (max inner product).
    for (int64_t i = 0; i < n; ++i) {
      const float* v = vectors.data() + i * d;
      float best = -std::numeric_limits<float>::infinity();
      int64_t best_c = 0;
      for (int64_t c = 0; c < nlist; ++c) {
        const float s = Dot(v, centroids.data() + c * d, d);
        if (s > best) {
          best = s;
          best_c = c;
        }
      }
      a[i] = best_c;
    }
    // Update step: mean of members, re-normalized (empty cluster keeps its
    // centroid).
    Tensor sums({nlist, d});
    std::vector<int64_t> counts(nlist, 0);
    for (int64_t i = 0; i < n; ++i) {
      kernels::AxpyF32(d, 1.0f, vectors.data() + i * d,
                       sums.data() + a[i] * d);
      ++counts[a[i]];
    }
    for (int64_t c = 0; c < nlist; ++c) {
      if (counts[c] == 0) continue;
      // An all-zero sum normalizes to zero either way (0 / eps == 0).
      kernels::L2NormalizeF32(d, sums.data() + c * d,
                              centroids.data() + c * d, 1e-12f);
    }
  }
  return centroids;
}

void Index::MultiSearch(const float* queries, int64_t nq, int k,
                        SearchWorkspace& ws, SearchResult* out) const {
  UM_CHECK_GT(nq, 0);
  UM_CHECK_GT(k, 0);
  UM_CHECK(queries != nullptr);
  UM_CHECK(out != nullptr);
  UM_COUNTER_INC("ann.batch.multi_searches");
  UM_COUNTER_ADD("ann.batch.queries", nq);
  MultiSearchImpl(queries, nq, k, ws, out);
}

std::vector<SearchResult> Index::Search(const float* query, int k) const {
  std::vector<SearchResult> out(static_cast<size_t>(std::max(k, 0)));
  MultiSearch(query, 1, k, ThreadLocalSearchWorkspace(), out.data());
  // Trim padding: ids are row indices, so id < 0 only marks absent rows.
  while (!out.empty() && out.back().id < 0) out.pop_back();
  return out;
}

Status BruteForceIndex::Build(const Tensor& vectors) {
  if (vectors.rank() != 2) {
    return Status::InvalidArgument("index expects a [N, d] matrix");
  }
  if (vectors.dim(0) == 0) return Status::InvalidArgument("empty index");
  // Quantize checks every value finite; kF32 aliases `vectors`, which the
  // index never mutates.
  table_ = QuantizedMatrix::Quantize(vectors, storage_);
  return Status::OK();
}

void BruteForceIndex::MultiSearchImpl(const float* queries, int64_t nq, int k,
                                      SearchWorkspace& ws,
                                      SearchResult* out) const {
  UM_SCOPED_TIMER("ann.brute.search.ms");
  UM_COUNTER_ADD("ann.brute.searches", nq);
  UM_CHECK(table_.valid()) << "Search before Build";
  const int64_t n = size(), d = dim();
  const bool f32 = table_.type() == ScalarType::kF32;
  BatchTopK& top = ws.batch_topk();
  top.Reset(nq, k);
  const int64_t block = std::min(n, kScanBlockRows);
  float* scores = ws.Scores(nq * block);
  float* decoded = f32 ? nullptr : ws.DequantBlock(block * d);
  for (int64_t b0 = 0; b0 < n; b0 += kScanBlockRows) {
    const int64_t bn = std::min(kScanBlockRows, n - b0);
    // Quantized codes decode once per block, so the decode cost amortizes
    // over the whole batch; the block extent never depends on nq.
    const float* rows = decoded;
    if (f32) {
      rows = table_.f32_row(b0);
    } else {
      table_.DequantizeRows(b0, b0 + bn, decoded);
    }
    // scores[q * bn + j] = dot(queries[q], row b0 + j) — one blocked sweep
    // for the whole micro-batch instead of nq strided passes.
    kernels::GemmRowsDot(0, nq, bn, d, 1.0f, queries, d, 1, rows, 0.0f,
                         scores);
    for (int64_t q = 0; q < nq; ++q) {
      const float* row = scores + q * bn;
      for (int64_t j = 0; j < bn; ++j) top.Offer(q, b0 + j, row[j]);
    }
  }
  top.TakeInto(out);
}

Status IvfIndex::Build(const Tensor& vectors) {
  if (vectors.rank() != 2) {
    return Status::InvalidArgument("index expects a [N, d] matrix");
  }
  UM_SCOPED_TIMER("ann.ivf.build.ms");
  UM_COUNTER_INC("ann.ivf.builds");
  // NaN embeddings would silently lose the centroid-assignment comparisons.
  UM_CHECK_FINITE(vectors) << "IvfIndex::Build embeddings";
  vectors_ = vectors;  // refcounted alias; the index never mutates it
  const int64_t n = vectors_.dim(0);
  if (n == 0) return Status::InvalidArgument("empty index");
  int64_t nlist = config_.nlist;
  if (nlist <= 0) {
    nlist = std::max<int64_t>(
        1, static_cast<int64_t>(std::sqrt(static_cast<double>(n))));
  }
  nlist = std::min(nlist, n);
  config_.nlist = nlist;
  config_.nprobe = std::min(config_.nprobe, nlist);

  std::vector<int64_t> assign;
  centroids_ = TrainSphericalKMeans(vectors_, nlist, config_.kmeans_iters,
                                    config_.seed, &assign);
  lists_.assign(nlist, {});
  for (int64_t i = 0; i < n; ++i) lists_[assign[i]].push_back(i);
  return Status::OK();
}

void IvfIndex::MultiSearchImpl(const float* queries, int64_t nq, int k,
                               SearchWorkspace& ws, SearchResult* out) const {
  UM_SCOPED_TIMER("ann.ivf.search.ms");
  UM_COUNTER_ADD("ann.ivf.searches", nq);
  UM_CHECK(!lists_.empty());
  const int64_t d = dim();
  const int64_t nlist = centroids_.dim(0);
  const int nprobe = static_cast<int>(config_.nprobe);

  for (int64_t q = 0; q < nq; ++q) {
    const float* qv = queries + q * d;
    TopK& coarse = ws.coarse_topk(nprobe);
    for (int64_t c = 0; c < nlist; ++c) {
      coarse.Offer(c, Dot(qv, centroids_.data() + c * d, d));
    }
    SearchResult* probes = ws.ProbeScratch(nprobe);
    coarse.TakeInto(probes, nprobe);
    TopK& top = ws.result_topk(k);
    for (int p = 0; p < nprobe; ++p) {
      if (probes[p].id < 0) continue;
      for (int64_t i : lists_[probes[p].id]) {
        top.Offer(i, Dot(qv, vectors_.data() + i * d, d));
      }
    }
    top.TakeInto(out + q * k, k);
  }
}

double MeasureRecallAtK(const Index& index, const BruteForceIndex& exact,
                        const Tensor& queries, int k) {
  UM_CHECK_EQ(queries.rank(), 2);
  const int64_t nq = queries.dim(0), d = queries.dim(1);
  UM_CHECK_EQ(d, index.dim());
  double hits = 0.0;
  std::vector<int64_t> truth_ids;
  for (int64_t q = 0; q < nq; ++q) {
    const float* qv = queries.data() + q * d;
    auto approx = index.Search(qv, k);
    auto truth = exact.Search(qv, k);
    truth_ids.clear();
    for (const auto& r : truth) truth_ids.push_back(r.id);
    std::sort(truth_ids.begin(), truth_ids.end());
    for (const auto& r : approx) {
      if (std::binary_search(truth_ids.begin(), truth_ids.end(), r.id)) {
        hits += 1.0;
      }
    }
  }
  return hits / (static_cast<double>(nq) * k);
}

}  // namespace unimatch::ann
