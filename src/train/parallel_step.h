// Sharded data-parallel training step (user tower).
//
// The user tower dominates a training step's cost (per-row extractor and
// pooling work), so the sharded step splits each batch into row shards and
// runs the tower forward — and later its backward — per shard on a
// ThreadPool. The shard partition uses a fixed grain that does NOT depend
// on the thread count, and every cross-shard reduction folds in ascending
// shard order, so the result is deterministic for a given seed at any
// num_threads > 1.
//
// How the graph is stitched together:
//   - Each shard's subgraph starts at a leaf Variable holding the gathered
//     embedding rows of its histories (exactly what EmbeddingLookupSeq
//     would produce for those rows), and ends at the shard's tower output.
//   - The shard outputs are re-exposed to the main graph as detached leaf
//     heads joined by ConcatRowsN, so the loss's Backward() stops at the
//     heads and deposits d(loss)/d(head) there.
//   - FinishBackward() then runs BackwardFrom(shard output, head grad) per
//     shard concurrently (the shard graphs are disjoint), scatters the shard
//     gradients into the table's row-sparse gradient with the lookup
//     backward's own helper, slices in shard order — reproducing the serial
//     lookup backward bit for bit — and reduces any replica parameter
//     gradients in shard order.
//
// Towers with trainable extractor/aggregator parameters get one model
// replica per shard (values alias the primary's storage, gradients are
// separate) so concurrent shard backwards never race on a parameter node.
// For such towers the reduction order differs from the serial within-op
// accumulation order — results are deterministic and thread-count
// independent, but not bitwise equal to num_threads = 1. Extractor-free
// towers (kNone + mean/last/max) have no tower parameters besides the
// lookup table and are bitwise identical to the serial path.

#ifndef UNIMATCH_TRAIN_PARALLEL_STEP_H_
#define UNIMATCH_TRAIN_PARALLEL_STEP_H_

#include <memory>
#include <vector>

#include "src/model/two_tower.h"
#include "src/util/threadpool.h"

namespace unimatch::train {

class ShardedUserEncoder {
 public:
  /// `primary` must outlive the encoder. `num_threads` sizes the pool
  /// (>= 2; a single thread should use the plain serial path instead).
  ShardedUserEncoder(const model::TwoTowerModel* primary, int num_threads);

  /// Sharded equivalent of primary->EncodeUsers(history_ids, lengths,
  /// step_rng): returns the [B, d] user matrix as a graph node backed by
  /// detached shard heads. `history_ids` must stay alive and unchanged
  /// until FinishBackward() returns (the table scatter reads it).
  /// `step_rng` is consumed only when the model uses dropout — one seed
  /// draw per shard, in shard order, on the calling thread.
  nn::Variable Encode(const std::vector<int64_t>& history_ids,
                      const std::vector<int64_t>& lengths, Rng* step_rng);

  /// Completes the backward pass below the shard heads. Must be called
  /// after nn::Backward(loss) on a loss built from Encode's result, and
  /// before gradient clipping / the optimizer step.
  void FinishBackward();

  /// The pool that runs the shards; the trainer installs it as the step's
  /// ScopedParallelRegion so row-local op loops shard over it too.
  ThreadPool* pool() { return &pool_; }

  int num_threads() const { return pool_.num_threads(); }
  /// Shard count of the most recent Encode (0 before the first call).
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Shard {
    int64_t lo = 0;  // batch row range [lo, hi)
    int64_t hi = 0;
    std::vector<int64_t> lengths;
    uint64_t dropout_seed = 0;
    nn::Variable seq;   // leaf: gathered [rows, L, d] embeddings
    nn::Variable out;   // shard tower output [rows, d]
    nn::Variable head;  // detached re-entry leaf in the main graph
  };

  /// True when concurrent shard backwards would touch shared parameter
  /// nodes (extractor layers or attention pooling) and replicas are needed.
  bool NeedsReplicas() const;

  const model::TwoTowerModel* primary_;
  std::vector<std::unique_ptr<model::TwoTowerModel>> replicas_;
  std::vector<Shard> shards_;
  const std::vector<int64_t>* history_ids_ = nullptr;  // set per Encode
  int64_t seq_len_ = 0;
  bool use_dropout_ = false;
  ThreadPool pool_;
};

}  // namespace unimatch::train

#endif  // UNIMATCH_TRAIN_PARALLEL_STEP_H_
