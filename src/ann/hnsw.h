// HNSW (Hierarchical Navigable Small World) approximate top-k index.
//
// The third serving backend next to the exact scan and IVF. HNSW gives
// logarithmic-ish query time on large catalogs at high recall — the standard
// choice for two-tower retrieval at the user-matrix scale of user targeting
// (millions of rows in the paper's deployment).
//
// Implementation follows Malkov & Yashunin (2016): multi-layer proximity
// graph, greedy descent through the upper layers, beam search (ef) on the
// bottom layer, neighbor selection by simple best-M pruning. Similarity is
// inner product (cosine on l2-normalized embeddings).

#ifndef UNIMATCH_ANN_HNSW_H_
#define UNIMATCH_ANN_HNSW_H_

#include <utility>
#include <vector>

#include "src/ann/index.h"
#include "src/tensor/quant.h"
#include "src/util/random.h"

namespace unimatch::ann {

/// Build returns InvalidArgument, before allocating anything, when a field
/// is outside its documented range.
struct HnswConfig {
  /// Max neighbors per node on layers > 0 (bottom layer gets 2M). In
  /// [1, 1024].
  int m = 16;
  /// Beam width during construction. At least 1.
  int ef_construction = 100;
  /// Beam width during search (>= k for good recall). At least 1.
  int ef_search = 64;
  uint64_t seed = 17;
  /// Element type of the stored vectors (src/tensor/quant.h). kF16/kI8
  /// shrink the table 2x/~4x; graph construction and every search score
  /// against the quantized rows (quantized-distance HNSW), so the graph is
  /// consistent with what serving later scores. The float input is only
  /// held for the duration of Build (each insertion searches with its
  /// float row, and a reverse link is scored with the float row of the
  /// list's owner) and released before Build returns.
  ScalarType storage = ScalarType::kF32;
};

class HnswIndex : public Index {
 public:
  explicit HnswIndex(HnswConfig config = {}) : config_(config) {}

  Status Build(const Tensor& vectors) override;
  Status CheckConfig() const override;
  int64_t size() const override { return n_; }
  int64_t dim() const override { return d_; }

  const HnswConfig& config() const { return config_; }
  /// Number of graph layers (for tests/inspection).
  int num_layers() const { return static_cast<int>(layers_.size()); }
  /// The graph itself (for tests/inspection): `node`'s neighbour list on
  /// `layer`, its top level, and the entry point searches start from.
  const std::vector<int64_t>& neighbors(int layer, int64_t node) const {
    return layers_[layer][node];
  }
  int level(int64_t node) const { return node_level_[node]; }
  int64_t entry_point() const { return entry_point_; }
  /// The (possibly quantized) stored table — bytes accounting and tests.
  const QuantizedMatrix& table() const { return quant_; }

 protected:
  void MultiSearchImpl(const float* queries, int64_t nq, int k,
                       SearchWorkspace& ws, SearchResult* out) const override;

 private:
  // layers_[l][node] = adjacency list of `node` on layer l. Nodes absent
  // from a layer have an empty list.
  using Adjacency = std::vector<std::vector<int64_t>>;

  // Links per node on `layer`: 2m on the bottom layer, m above it.
  int MaxLinks(int layer) const {
    return layer == 0 ? 2 * config_.m : config_.m;
  }
  float Score(const float* query, int64_t node) const;
  // Greedy single-entry descent on one layer.
  int64_t GreedyStep(const float* query, int64_t entry, int layer) const;
  // Beam search on one layer; returns up to `ef` best (score, node) pairs,
  // best first, in ws.layer_results() (valid until the next SearchLayer on
  // the same workspace). All scratch — the epoch-stamped visited set and
  // both beam heaps — lives in `ws`; no per-call allocation.
  const std::vector<std::pair<float, int64_t>>& SearchLayer(
      const float* query, int64_t entry, int ef, int layer,
      SearchWorkspace& ws) const;
  // Links `node` to the best candidates and each of them back to `node`,
  // pruning any list that outgrows MaxLinks(layer).
  void Connect(int64_t node, int layer,
               const std::vector<std::pair<float, int64_t>>& candidates);
  // Cuts node's list on `layer` to its MaxLinks best links by stored score.
  void Prune(int64_t node, int layer);
  // Full insertion of node i: greedy descent from the current entry point,
  // beam search + Connect per layer, entry-point raise (entry_point_ and
  // *entry_level).
  void InsertNode(int64_t i, int* entry_level);

  HnswConfig config_;
  int64_t n_ = 0, d_ = 0;
  // Quantized (or f32-aliased) stored rows; what Score reads.
  QuantizedMatrix quant_;
  // Float alias of the input, alive only during Build: InsertNode and the
  // reverse-link scores in Connect need float query rows. Cleared before
  // Build returns when storage is quantized, so the f32 table does not
  // outlive construction.
  Tensor vectors_;
  std::vector<Adjacency> layers_;
  // Build-only: link_scores_[l][node][j] == Score(float row of node,
  // layers_[l][node][j]), stored when the link is made so that Prune
  // compares the same floats without scoring again. Released before Build
  // returns.
  std::vector<std::vector<std::vector<float>>> link_scores_;
  // Scratch for Prune's full sort, (id, score) pairs; at most 2m + 1.
  std::vector<std::pair<int64_t, float>> prune_scratch_;
  std::vector<int> node_level_;
  int64_t entry_point_ = -1;
};

}  // namespace unimatch::ann

#endif  // UNIMATCH_ANN_HNSW_H_
