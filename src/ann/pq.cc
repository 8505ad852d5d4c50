#include "src/ann/pq.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/obs/obs.h"
#include "src/tensor/kernels.h"
#include "src/util/contract.h"
#include "src/util/random.h"

namespace unimatch::ann {

namespace {

// Largest divisor of d that is <= want (>= 1). PQ subspaces must tile the
// dimension exactly.
int64_t LargestDivisorAtMost(int64_t d, int64_t want) {
  want = std::min(std::max<int64_t>(want, 1), d);
  for (int64_t m = want; m > 1; --m) {
    if (d % m == 0) return m;
  }
  return 1;
}

float L2DistanceSquared(const float* a, const float* b, int64_t n) {
  float acc = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    const float diff = a[i] - b[i];
    acc += diff * diff;
  }
  return acc;
}

}  // namespace

Status IvfPqIndex::CheckConfig() const {
  if (config_.nprobe < 1) {
    return Status::InvalidArgument("IvfPqConfig::nprobe must be at least 1");
  }
  return Status::OK();
}

Status IvfPqIndex::Build(const Tensor& vectors) {
  UNIMATCH_RETURN_IF_ERROR(CheckConfig());
  if (vectors.rank() != 2) {
    return Status::InvalidArgument("index expects a [N, d] matrix");
  }
  UM_SCOPED_TIMER("ann.pq.build.ms");
  UM_COUNTER_INC("ann.pq.builds");
  UM_CHECK_FINITE(vectors) << "IvfPqIndex::Build embeddings";
  const int64_t n = vectors.dim(0), d = vectors.dim(1);
  if (n == 0) return Status::InvalidArgument("empty index");
  n_ = n;
  d_ = d;

  // Resolve the config against the data: nlist ~ sqrt(N), m must divide d,
  // ks cannot exceed the number of training subvectors (= n).
  int64_t nlist = config_.nlist;
  if (nlist <= 0) {
    nlist = std::max<int64_t>(
        1, static_cast<int64_t>(std::sqrt(static_cast<double>(n))));
  }
  nlist = std::min(nlist, n);
  config_.nlist = nlist;
  config_.nprobe = std::min(config_.nprobe, nlist);
  m_ = LargestDivisorAtMost(d, config_.num_subspaces);
  config_.num_subspaces = m_;
  ds_ = d / m_;
  ks_ = std::min<int64_t>(std::max<int64_t>(config_.codebook_size, 1), 256);
  ks_ = std::min(ks_, n);
  config_.codebook_size = ks_;

  // Coarse quantizer: same spherical k-means as IvfIndex.
  std::vector<int64_t> assign;
  centroids_ = TrainSphericalKMeans(vectors, nlist, config_.coarse_iters,
                                    config_.seed, &assign);
  lists_.assign(nlist, {});
  for (int64_t i = 0; i < n; ++i) lists_[assign[i]].push_back(i);

  // Per-subspace L2 k-means codebooks over the raw subvectors
  // (non-residual: the inner product decomposes exactly over subspaces, so
  // codeword reconstruction error is the only approximation).
  codebooks_ = Tensor({m_ * ks_, ds_});
  codes_.assign(static_cast<size_t>(n) * m_, 0);
  std::vector<int64_t> sub_assign(n, 0);
  for (int64_t s = 0; s < m_; ++s) {
    float* book = codebooks_.data() + s * ks_ * ds_;
    // Seeded per subspace so books differ but the whole build is
    // deterministic.
    Rng rng(config_.seed + 0x9e3779b9u * static_cast<uint64_t>(s + 1));
    auto init = rng.SampleWithoutReplacement(n, ks_);
    for (int64_t c = 0; c < ks_; ++c) {
      const float* src = vectors.data() + init[c] * d + s * ds_;
      std::copy(src, src + ds_, book + c * ds_);
    }
    for (int iter = 0; iter < config_.pq_iters; ++iter) {
      for (int64_t i = 0; i < n; ++i) {
        const float* v = vectors.data() + i * d + s * ds_;
        float best = std::numeric_limits<float>::infinity();
        int64_t best_c = 0;
        for (int64_t c = 0; c < ks_; ++c) {
          const float dist = L2DistanceSquared(v, book + c * ds_, ds_);
          if (dist < best) {
            best = dist;
            best_c = c;
          }
        }
        sub_assign[i] = best_c;
      }
      std::vector<double> sums(static_cast<size_t>(ks_) * ds_, 0.0);
      std::vector<int64_t> counts(ks_, 0);
      for (int64_t i = 0; i < n; ++i) {
        const float* v = vectors.data() + i * d + s * ds_;
        double* sum = sums.data() + sub_assign[i] * ds_;
        for (int64_t j = 0; j < ds_; ++j) sum[j] += v[j];
        ++counts[sub_assign[i]];
      }
      for (int64_t c = 0; c < ks_; ++c) {
        if (counts[c] == 0) continue;  // empty cluster keeps its codeword
        const double inv = 1.0 / static_cast<double>(counts[c]);
        for (int64_t j = 0; j < ds_; ++j) {
          book[c * ds_ + j] = static_cast<float>(sums[c * ds_ + j] * inv);
        }
      }
    }
    // Final encode of this subspace with the converged book.
    for (int64_t i = 0; i < n; ++i) {
      const float* v = vectors.data() + i * d + s * ds_;
      float best = std::numeric_limits<float>::infinity();
      int64_t best_c = 0;
      for (int64_t c = 0; c < ks_; ++c) {
        const float dist = L2DistanceSquared(v, book + c * ds_, ds_);
        if (dist < best) {
          best = dist;
          best_c = c;
        }
      }
      codes_[static_cast<size_t>(i) * m_ + s] = static_cast<uint8_t>(best_c);
    }
  }
  UM_GAUGE_SET("ann.pq.bytes_per_row", bytes_per_row());
  return Status::OK();
}

void IvfPqIndex::MultiSearchImpl(const float* queries, int64_t nq, int k,
                                 SearchWorkspace& ws,
                                 SearchResult* out) const {
  UM_SCOPED_TIMER("ann.pq.search.ms");
  UM_COUNTER_ADD("ann.pq.searches", nq);
  UM_CHECK(!lists_.empty()) << "Search before Build";
  const int64_t nlist = centroids_.dim(0);
  const int nprobe = static_cast<int>(config_.nprobe);

  // Batched ADC slab: adc[(s * nq + q) * ks + c] = dot(query_q's subvector
  // s, codeword(s, c)). Built once per micro-batch with the codeword loop
  // outside the query loop, so each codeword row is read once per batch
  // instead of once per query. Each entry is the same single DotF32 the
  // per-query table used — batching reorders the loops, not the math — so
  // Search scores stay exactly AdcScore (tests/ann/pq_test.cc).
  float* adc = ws.Adc(m_ * nq * ks_);
  for (int64_t s = 0; s < m_; ++s) {
    const float* book = codebooks_.data() + s * ks_ * ds_;
    for (int64_t c = 0; c < ks_; ++c) {
      const float* word = book + c * ds_;
      for (int64_t q = 0; q < nq; ++q) {
        adc[(s * nq + q) * ks_ + c] =
            kernels::DotF32(queries + q * d_ + s * ds_, word, ds_);
      }
    }
  }

  for (int64_t q = 0; q < nq; ++q) {
    const float* qv = queries + q * d_;
    TopK& coarse = ws.coarse_topk(nprobe);
    for (int64_t c = 0; c < nlist; ++c) {
      coarse.Offer(c, kernels::DotF32(qv, centroids_.data() + c * d_, d_));
    }
    SearchResult* probes = ws.ProbeScratch(nprobe);
    coarse.TakeInto(probes, nprobe);
    TopK& top = ws.result_topk(k);
    for (int p = 0; p < nprobe; ++p) {
      if (probes[p].id < 0) continue;
      for (int64_t i : lists_[probes[p].id]) {
        const uint8_t* code = codes_.data() + static_cast<size_t>(i) * m_;
        float score = 0.0f;
        for (int64_t s = 0; s < m_; ++s) {
          score += adc[(s * nq + q) * ks_ + code[s]];
        }
        top.Offer(i, score);
      }
    }
    top.TakeInto(out + q * k, k);
  }
}

float IvfPqIndex::AdcScore(const float* query, int64_t id) const {
  UM_CHECK_GE(id, 0);
  UM_CHECK_LT(id, n_);
  const uint8_t* code = codes_.data() + static_cast<size_t>(id) * m_;
  float score = 0.0f;
  for (int64_t s = 0; s < m_; ++s) {
    const float* qs = query + s * ds_;
    const float* word = codebooks_.data() + (s * ks_ + code[s]) * ds_;
    score += kernels::DotF32(qs, word, ds_);
  }
  return score;
}

int64_t IvfPqIndex::payload_bytes() const {
  // Per-vector codes and inverted-list ids, plus the shared coarse
  // centroids and codebooks (amortized across the table in bytes_per_row).
  const int64_t per_vector =
      n_ * m_ + n_ * static_cast<int64_t>(sizeof(int64_t));
  const int64_t shared = centroids_.numel() * 4 + codebooks_.numel() * 4;
  return per_vector + shared;
}

double IvfPqIndex::bytes_per_row() const {
  return n_ == 0 ? 0.0
                 : static_cast<double>(payload_bytes()) /
                       static_cast<double>(n_);
}

}  // namespace unimatch::ann
