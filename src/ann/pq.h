// Compressed retrieval: product-quantized IVF.
//
// IvfPqIndex trades a controlled amount of recall for memory, the lever
// that makes billion-row merchant catalogs servable on one box. (The other
// compressed backend is the exact scan over int8 / fp16 codes:
// BruteForceIndex with a quantized storage type, src/ann/index.h.)
//
// It combines a coarse spherical k-means (TrainSphericalKMeans, shared
// with IvfIndex) with per-subspace product-quantization codebooks. Each
// vector stores only m uint8 codes; queries precompute an
// asymmetric-distance (ADC) table of query-subvector x codeword inner
// products, so scoring a candidate is m table lookups and adds. The inner
// product decomposes over subspaces exactly
// (dot(q, x) = sum_s dot(q_s, x_s)), so the ADC score's only error is the
// codeword round-trip — no residual encoding is needed for the recall
// floor gated in CI (recall@10 >= 0.95 on the bench workload).
//
// Codebooks are trained with plain L2 k-means per subspace: minimizing the
// subvector reconstruction error bounds the inner-product error by
// Cauchy-Schwarz for the l2-normalized queries this repo serves.
//
// Determinism: Build is single-threaded and seeded; identical inputs and
// config produce identical codebooks and codes (tests/ann/pq_test.cc).

#ifndef UNIMATCH_ANN_PQ_H_
#define UNIMATCH_ANN_PQ_H_

#include <cstdint>
#include <vector>

#include "src/ann/index.h"
#include "src/tensor/tensor.h"
#include "src/util/status.h"

namespace unimatch::ann {

struct IvfPqConfig {
  /// Coarse clusters; defaults to ~sqrt(N) when 0.
  int64_t nlist = 0;
  /// Coarse clusters scanned per query (>= 1).
  int64_t nprobe = 8;
  /// PQ subspaces m; auto-reduced to the largest divisor of d at Build.
  int64_t num_subspaces = 4;
  /// Codewords per subspace (<= 256: codes are uint8).
  int64_t codebook_size = 256;
  int coarse_iters = 10;
  int pq_iters = 10;
  uint64_t seed = 31;
};

/// IVF with product-quantized storage: each indexed vector keeps only
/// m uint8 codes (plus its inverted-list slot); full vectors are dropped
/// after Build.
class IvfPqIndex : public Index {
 public:
  explicit IvfPqIndex(IvfPqConfig config = {}) : config_(config) {}

  Status Build(const Tensor& vectors) override;
  Status CheckConfig() const override;
  int64_t size() const override { return n_; }
  int64_t dim() const override { return d_; }

  /// Config after Build's clamping (nlist, nprobe, num_subspaces resolved).
  const IvfPqConfig& config() const { return config_; }

  /// ADC score of one indexed vector (table-free path; tests and spot
  /// checks — Search amortizes the table across the probed lists).
  float AdcScore(const float* query, int64_t id) const;

  /// Per-vector PQ codes, row-major [n, m].
  const std::vector<uint8_t>& codes() const { return codes_; }
  /// Codebooks as a [m * ks, ds] matrix (subspace s, codeword c at row
  /// s * ks + c).
  const Tensor& codebooks() const { return codebooks_; }

  /// Bytes held per indexed vector after Build: PQ codes + inverted-list
  /// id + the amortized centroid/codebook share.
  int64_t payload_bytes() const;
  double bytes_per_row() const;

 protected:
  void MultiSearchImpl(const float* queries, int64_t nq, int k,
                       SearchWorkspace& ws, SearchResult* out) const override;

 private:
  IvfPqConfig config_;
  int64_t n_ = 0, d_ = 0;
  int64_t m_ = 0;   // subspaces (divides d_)
  int64_t ds_ = 0;  // lanes per subspace, d_ / m_
  int64_t ks_ = 0;  // codewords per subspace
  Tensor centroids_;   // [nlist, d] coarse quantizer
  Tensor codebooks_;   // [m * ks, ds]
  std::vector<uint8_t> codes_;  // [n, m]
  std::vector<std::vector<int64_t>> lists_;
};

}  // namespace unimatch::ann

#endif  // UNIMATCH_ANN_PQ_H_
