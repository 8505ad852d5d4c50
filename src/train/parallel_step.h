// ShardedUserEncoder: a compatibility class for perfbench's traced step.
//
// perfbench/harness/train_layers.cc constructs it and calls pool(), Encode
// and FinishBackward, and perfbench changes only together with its
// benchmark. Encode is TwoTowerModel::EncodeUsers on the calling thread and
// FinishBackward does nothing, so that step trains exactly what the
// trainer trains at any num_threads. ROADMAP item 6 moves the harness onto
// the trainer's path and deletes this class.

#ifndef UNIMATCH_TRAIN_PARALLEL_STEP_H_
#define UNIMATCH_TRAIN_PARALLEL_STEP_H_

#include <cstdint>
#include <vector>

#include "src/model/two_tower.h"
#include "src/util/threadpool.h"

namespace unimatch::train {

class ShardedUserEncoder {
 public:
  /// `primary` must outlive the encoder. `num_threads` sizes pool().
  ShardedUserEncoder(const model::TwoTowerModel* primary, int num_threads)
      : primary_(primary), pool_(num_threads) {}

  /// primary->EncodeUsers(history_ids, lengths, step_rng).
  nn::Variable Encode(const std::vector<int64_t>& history_ids,
                      const std::vector<int64_t>& lengths,
                      Rng* step_rng) const {
    return primary_->EncodeUsers(history_ids, lengths, step_rng);
  }

  /// Nothing runs after nn::Backward; kept for the caller's step shape.
  void FinishBackward() {}

  /// The pool a caller installs as its ScopedParallelRegion, as the
  /// trainer does with its own step pool.
  ThreadPool* pool() { return &pool_; }

 private:
  const model::TwoTowerModel* primary_;
  ThreadPool pool_;
};

}  // namespace unimatch::train

#endif  // UNIMATCH_TRAIN_PARALLEL_STEP_H_
