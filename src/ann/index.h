// Top-k retrieval indexes over embedding matrices.
//
// The two-tower architecture exists precisely so embeddings can be indexed
// and served with (approximate) nearest-neighbor search (Sec. III-B1). Both
// indexes score by inner product, which on l2-normalized embeddings equals
// cosine similarity.
//
// Execution model: the primitive operation is MultiSearch — nq queries
// answered in one call against a caller-provided SearchWorkspace
// (src/ann/workspace.h), so batched serving amortizes scratch state and the
// flat scans run query-major blocked kernel sweeps. Single-query Search is
// a thin nq=1 wrapper over the same path (thread-local workspace), and is
// guaranteed to return exactly what MultiSearch returns for that query at
// any batch size: the blocked scans tile the catalog rows independently of
// nq, so every (query, row) score is bitwise identical either way.

#ifndef UNIMATCH_ANN_INDEX_H_
#define UNIMATCH_ANN_INDEX_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/ann/workspace.h"
#include "src/tensor/quant.h"
#include "src/tensor/tensor.h"
#include "src/util/status.h"

namespace unimatch::ann {

/// Spherical k-means by inner product over the rows of `vectors` ([N, d]):
/// centroids start from `nlist` random distinct rows (seeded, deterministic)
/// and iterate assignment (max inner product) / update (member mean,
/// re-normalized; an empty cluster keeps its centroid). Returns the
/// [nlist, d] centroids and, when `assign` is non-null, the final
/// assignment of every row. The coarse quantizer behind IvfIndex and
/// IvfPqIndex.
Tensor TrainSphericalKMeans(const Tensor& vectors, int64_t nlist, int iters,
                            uint64_t seed, std::vector<int64_t>* assign);

class Index {
 public:
  virtual ~Index() = default;

  /// Indexes the rows of `vectors` ([N, d]); row index = id.
  virtual Status Build(const Tensor& vectors) = 0;

  /// Batched top-k: answers `nq` queries (row-major [nq, d]) in one call,
  /// writing nq * k results query-major into `out` (out[q * k + r] is
  /// query q's rank-r result, descending score, ties toward smaller ids;
  /// padded with {id=-1, score=0} when fewer than k rows exist). All
  /// scratch comes from `ws`; a steady-state call allocates nothing.
  void MultiSearch(const float* queries, int64_t nq, int k,
                   SearchWorkspace& ws, SearchResult* out) const;

  /// Top-k ids by inner product with `query` ([d]), descending. An nq=1
  /// MultiSearch over the calling thread's workspace; returns min(k, size)
  /// results.
  std::vector<SearchResult> Search(const float* query, int k) const;

  virtual int64_t size() const = 0;
  virtual int64_t dim() const = 0;

 protected:
  /// Backend hook behind MultiSearch (which owns the shared contracts and
  /// the ann.batch.* counters). Same output contract as MultiSearch.
  virtual void MultiSearchImpl(const float* queries, int64_t nq, int k,
                               SearchWorkspace& ws,
                               SearchResult* out) const = 0;
};

/// Exact scan over a QuantizedMatrix (src/tensor/quant.h), query-major
/// blocked through the gemm kernels. kF32 storage aliases the built matrix.
/// kF16/kI8 storage keeps only codes, 2x / ~3-4x smaller, and decodes each
/// block of rows once per batch; the code round-trip error is its only
/// approximation, so recall@k stays near 1.
class BruteForceIndex : public Index {
 public:
  explicit BruteForceIndex(ScalarType storage = ScalarType::kF32)
      : storage_(storage) {}

  Status Build(const Tensor& vectors) override;
  int64_t size() const override { return table_.rows(); }
  int64_t dim() const override { return table_.cols(); }

  /// The scanned rows (valid after Build).
  const QuantizedMatrix& table() const { return table_; }

 protected:
  void MultiSearchImpl(const float* queries, int64_t nq, int k,
                       SearchWorkspace& ws, SearchResult* out) const override;

 private:
  ScalarType storage_;
  QuantizedMatrix table_;
};

struct IvfConfig {
  /// Number of coarse clusters; defaults to ~sqrt(N) when 0.
  int64_t nlist = 0;
  /// Clusters scanned per query.
  int64_t nprobe = 8;
  int kmeans_iters = 10;
  uint64_t seed = 31;
};

/// Inverted-file index: spherical k-means coarse quantizer + per-cluster
/// exact scan of `nprobe` nearest clusters.
class IvfIndex : public Index {
 public:
  explicit IvfIndex(IvfConfig config = {}) : config_(config) {}

  Status Build(const Tensor& vectors) override;
  int64_t size() const override { return vectors_.rank() == 2 ? vectors_.dim(0) : 0; }
  int64_t dim() const override { return vectors_.rank() == 2 ? vectors_.dim(1) : 0; }

  const IvfConfig& config() const { return config_; }

 protected:
  void MultiSearchImpl(const float* queries, int64_t nq, int k,
                       SearchWorkspace& ws, SearchResult* out) const override;

 private:
  IvfConfig config_;
  Tensor vectors_;
  Tensor centroids_;  // [nlist, d]
  std::vector<std::vector<int64_t>> lists_;
};

/// Measured recall of `index` against an exact scan over `queries` rows.
double MeasureRecallAtK(const Index& index, const BruteForceIndex& exact,
                        const Tensor& queries, int k);

}  // namespace unimatch::ann

#endif  // UNIMATCH_ANN_INDEX_H_
