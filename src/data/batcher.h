// Mini-batch assembly for the multinomial (in-batch negative) losses.
//
// A Batch is exactly one block of the Table IV data format: positive
// (pseudo-user, item) pairs with their pre-computed log-marginals; the other
// rows of the same batch act as the in-batch negatives I_u / U_i of Eq. 10.

#ifndef UNIMATCH_DATA_BATCHER_H_
#define UNIMATCH_DATA_BATCHER_H_

#include <vector>

#include "src/data/marginals.h"
#include "src/nn/seq_ops.h"
#include "src/tensor/tensor.h"
#include "src/util/random.h"

namespace unimatch::data {

struct Batch {
  int64_t batch_size = 0;
  int64_t seq_len = 0;
  /// Row-major [batch_size, seq_len] history ids, nn::kPadId padded.
  std::vector<int64_t> history_ids;
  /// Valid history length per row.
  std::vector<int64_t> lengths;
  /// Positive target item per row.
  std::vector<int64_t> targets;
  /// Originating user ids (for evaluation bookkeeping).
  std::vector<int64_t> users;
  /// log p̂(u) / log p̂(i) per row (bias-correction inputs).
  Tensor log_pu;
  Tensor log_pi;
};

/// Fills a Batch from the given samples. `max_seq_len` fixes the padded
/// width.
Batch AssembleBatch(const SampleSet& samples,
                    const std::vector<int64_t>& indices,
                    const Marginals& marginals, int max_seq_len);

/// In-place form: reuses `out`'s vectors and tensors when their capacity
/// and shape allow, so steady-state training stops reallocating per batch.
/// Every field is fully overwritten.
void AssembleBatchInto(const SampleSet& samples,
                       const std::vector<int64_t>& indices,
                       const Marginals& marginals, int max_seq_len,
                       Batch* out);

namespace internal {
/// Reuses `t`'s buffer as a fresh [n] tensor when it is the sole owner and
/// already the right size; reallocates otherwise. The caller must overwrite
/// every element (the reuse path does not zero-fill).
void EnsureVectorTensor(Tensor* t, int64_t n);
}  // namespace internal

/// Iterates one epoch over a fixed index set in shuffled order, yielding
/// consecutive chunks of sample indices. The trailing partial chunk is
/// dropped when smaller than `min_batch` (in-batch losses degenerate on
/// tiny batches). Only the constructor and Reset draw from `rng` (the
/// shuffle), so iterating is RNG-free.
class BatchIterator {
 public:
  BatchIterator(const SampleSet* samples, const Marginals* marginals,
                std::vector<int64_t> indices, int batch_size, int max_seq_len,
                Rng* rng, int min_batch = 2);

  /// Advances to the next chunk; returns false when the epoch is exhausted.
  bool NextChunk();

  /// The sample indices of the current chunk, once NextChunk returned true.
  const std::vector<int64_t>& chunk() const { return chunk_; }

  /// NextChunk, then AssembleBatchInto over the chunk. Returns false when
  /// the epoch is exhausted.
  bool Next(Batch* out);

  /// Restarts a new (reshuffled) epoch.
  void Reset();

  int64_t num_batches() const;

 private:
  const SampleSet* samples_;
  const Marginals* marginals_;
  std::vector<int64_t> indices_;
  int batch_size_;
  int max_seq_len_;
  int min_batch_;
  Rng* rng_;
  int64_t cursor_ = 0;
  /// The current chunk, reused across NextChunk calls.
  std::vector<int64_t> chunk_;
};

}  // namespace unimatch::data

#endif  // UNIMATCH_DATA_BATCHER_H_
