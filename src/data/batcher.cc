#include "src/data/batcher.h"

#include <algorithm>

#include "src/util/logging.h"

namespace unimatch::data {

namespace internal {

void EnsureVectorTensor(Tensor* t, int64_t n) {
  if (t->rank() == 1 && t->numel() == n && t->storage_unique()) return;
  *t = Tensor::Empty({n});
}

}  // namespace internal

Batch AssembleBatch(const SampleSet& samples,
                    const std::vector<int64_t>& indices,
                    const Marginals& marginals, int max_seq_len) {
  Batch b;
  AssembleBatchInto(samples, indices, marginals, max_seq_len, &b);
  return b;
}

void AssembleBatchInto(const SampleSet& samples,
                       const std::vector<int64_t>& indices,
                       const Marginals& marginals, int max_seq_len,
                       Batch* out) {
  Batch& b = *out;
  b.batch_size = static_cast<int64_t>(indices.size());
  b.seq_len = max_seq_len;
  b.history_ids.assign(b.batch_size * b.seq_len, nn::kPadId);
  b.lengths.resize(b.batch_size);
  b.targets.resize(b.batch_size);
  b.users.resize(b.batch_size);
  internal::EnsureVectorTensor(&b.log_pu, b.batch_size);
  internal::EnsureVectorTensor(&b.log_pi, b.batch_size);
  for (int64_t r = 0; r < b.batch_size; ++r) {
    const Sample& s = samples[indices[r]];
    const int64_t len =
        std::min<int64_t>(static_cast<int64_t>(s.history.size()), max_seq_len);
    // Keep the most recent `len` items.
    const int64_t offset = static_cast<int64_t>(s.history.size()) - len;
    for (int64_t t = 0; t < len; ++t) {
      b.history_ids[r * b.seq_len + t] = s.history[offset + t];
    }
    b.lengths[r] = len;
    b.targets[r] = s.target;
    b.users[r] = s.user;
    b.log_pu.at(r) = static_cast<float>(marginals.log_pu(s.user));
    b.log_pi.at(r) = static_cast<float>(marginals.log_pi(s.target));
  }
}

BatchIterator::BatchIterator(const SampleSet* samples,
                             const Marginals* marginals,
                             std::vector<int64_t> indices, int batch_size,
                             int max_seq_len, Rng* rng, int min_batch)
    : samples_(samples),
      marginals_(marginals),
      indices_(std::move(indices)),
      batch_size_(batch_size),
      max_seq_len_(max_seq_len),
      min_batch_(min_batch),
      rng_(rng) {
  UM_CHECK_GT(batch_size_, 0);
  Reset();
}

void BatchIterator::Reset() {
  cursor_ = 0;
  rng_->Shuffle(&indices_);
}

bool BatchIterator::NextChunk() {
  const int64_t n = static_cast<int64_t>(indices_.size());
  if (cursor_ >= n) return false;
  const int64_t take = std::min<int64_t>(batch_size_, n - cursor_);
  if (take < min_batch_) return false;
  chunk_.assign(indices_.begin() + cursor_,
                indices_.begin() + cursor_ + take);
  cursor_ += take;
  return true;
}

bool BatchIterator::Next(Batch* out) {
  if (!NextChunk()) return false;
  AssembleBatchInto(*samples_, chunk_, *marginals_, max_seq_len_, out);
  return true;
}

int64_t BatchIterator::num_batches() const {
  return (static_cast<int64_t>(indices_.size()) + batch_size_ - 1) /
         batch_size_;
}

}  // namespace unimatch::data
