#include "src/train/parallel_step.h"

#include <algorithm>
#include <utility>

#include "src/nn/seq_ops.h"
#include "src/obs/obs.h"
#include "src/util/contract.h"

namespace unimatch::train {

namespace {

// The shard partition is a function of the batch size only — never of the
// thread count — so gradient reduction order (and therefore the trained
// model) is identical across num_threads values.
constexpr int64_t kMaxShards = 16;
constexpr int64_t kMinShardRows = 8;

int64_t ShardGrain(int64_t batch) {
  return std::max<int64_t>(kMinShardRows,
                           (batch + kMaxShards - 1) / kMaxShards);
}

}  // namespace

ShardedUserEncoder::ShardedUserEncoder(const model::TwoTowerModel* primary,
                                       int num_threads)
    : primary_(primary), pool_(num_threads) {
  UM_CONTRACT(num_threads >= 2)
      << "ShardedUserEncoder needs >= 2 threads, got " << num_threads
      << " (use the serial path for 1)";
}

bool ShardedUserEncoder::NeedsReplicas() const {
  const auto& cfg = primary_->config();
  return cfg.extractor != model::ContextExtractor::kNone ||
         cfg.aggregator == model::Aggregator::kAttention;
}

nn::Variable ShardedUserEncoder::Encode(
    const std::vector<int64_t>& history_ids,
    const std::vector<int64_t>& lengths, Rng* step_rng) {
  const int64_t b = static_cast<int64_t>(lengths.size());
  UM_CHECK_GT(b, 0);
  UM_CHECK_EQ(static_cast<int64_t>(history_ids.size()) % b, 0);
  const int64_t l = static_cast<int64_t>(history_ids.size()) / b;
  const Tensor& table = primary_->user_lookup_table().value();
  const int64_t v = table.dim(0), d = table.dim(1);

  history_ids_ = &history_ids;
  seq_len_ = l;
  use_dropout_ = step_rng != nullptr && primary_->config().dropout > 0.0f;

  const int64_t grain = ShardGrain(b);
  const int64_t num_shards = (b + grain - 1) / grain;
  const bool replicated = NeedsReplicas();
  UM_CONTRACT(num_shards >= 1 && (num_shards - 1) * grain < b)
      << "bad shard partition: batch " << b << " grain " << grain;
  shards_.clear();
  shards_.resize(num_shards);
  if (replicated) {
    // One replica per shard beyond the first (shard 0 runs on the primary).
    // Values alias the primary's weights; gradients stay per-replica.
    while (static_cast<int64_t>(replicas_.size()) < num_shards - 1) {
      auto rep = std::make_unique<model::TwoTowerModel>(primary_->config());
      rep->AliasParametersFrom(*primary_);
      replicas_.push_back(std::move(rep));
    }
  }
  for (int64_t s = 0; s < num_shards; ++s) {
    Shard& shard = shards_[s];
    shard.lo = s * grain;
    shard.hi = std::min(b, shard.lo + grain);
    UM_CONTRACT(shard.lo < shard.hi && shard.hi <= b)
        << "shard " << s << " bounds [" << shard.lo << ", " << shard.hi
        << ") of batch " << b;
    shard.lengths.assign(lengths.begin() + shard.lo,
                         lengths.begin() + shard.hi);
    // Seeds are drawn on the calling thread in shard order so the dropout
    // masks depend only on (seed, batch), not on worker scheduling.
    if (use_dropout_) shard.dropout_seed = step_rng->Next();
  }

  pool_.ParallelFor(
      0, num_shards,
      [&](int64_t s) {
        Shard& shard = shards_[s];
        const int64_t rows = shard.hi - shard.lo;
        // Gather exactly what EmbeddingLookupSeq's forward would produce
        // for these rows: zero-filled, pad rows left at zero.
        Tensor vals({rows, l, d});
        for (int64_t r = shard.lo; r < shard.hi; ++r) {
          for (int64_t t = 0; t < l; ++t) {
            const int64_t id = history_ids[r * l + t];
            if (id == nn::kPadId) continue;
            UM_CHECK_GE(id, 0);
            UM_CHECK_LT(id, v);
            const float* src = table.data() + id * d;
            float* dst = vals.data() + ((r - shard.lo) * l + t) * d;
            std::copy(src, src + d, dst);
          }
        }
        shard.seq = nn::Variable(std::move(vals), /*requires_grad=*/true);
        // Parameter-free towers run every shard on the primary; otherwise
        // shards beyond the first get a replica so concurrent backwards
        // never share a parameter node.
        const model::TwoTowerModel* tower =
            (replicated && s > 0) ? replicas_[s - 1].get() : primary_;
        Rng dropout_rng(shard.dropout_seed);
        shard.out = tower->EncodeFromEmbedded(
            shard.seq, shard.lengths, use_dropout_ ? &dropout_rng : nullptr);
      },
      /*min_shard=*/1);

  // Detached heads: the main graph's Backward() stops here, leaving
  // d(loss)/d(head) for FinishBackward to push through the shard graphs.
  std::vector<nn::Variable> heads;
  heads.reserve(num_shards);
  for (Shard& shard : shards_) {
    shard.head = nn::Variable(shard.out.value(), /*requires_grad=*/true);
    heads.push_back(shard.head);
  }
  UM_GAUGE_SET("train.pipeline.shards", static_cast<double>(num_shards));
  return nn::ConcatRowsN(heads);
}

void ShardedUserEncoder::FinishBackward() {
  UM_CHECK(!shards_.empty());
  UM_CHECK(history_ids_ != nullptr);

  // Shard graphs are disjoint (per-shard leaves; per-replica parameters),
  // so their backward passes run concurrently.
  pool_.ParallelFor(
      0, static_cast<int64_t>(shards_.size()),
      [&](int64_t s) {
        Shard& shard = shards_[s];
        if (!shard.head.grad_defined()) return;
        nn::BackwardFrom(shard.out, shard.head.grad());
      },
      /*min_shard=*/1);

  // The table scatter the serial lookup backward would do, through the
  // same helper: each shard's gradient is one slice of the history ids, and
  // slices go in shard order, so every row adds its contributions in global
  // id order and the row-sparse result is bitwise the serial one. That it
  // lands after the main Backward's item scatter does not matter: merging
  // two row sets adds a + b, and float addition commutes.
  std::vector<nn::LookupGradSlice> slices;
  slices.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    if (!shard.seq.grad_defined()) continue;
    slices.push_back({history_ids_->data() + shard.lo * seq_len_,
                      shard.seq.grad().data(),
                      (shard.hi - shard.lo) * seq_len_});
  }
  if (!slices.empty()) {
    nn::AccumulateLookupGrad(primary_->user_lookup_table(), slices);
  }

  // Fold replica parameter gradients into the primary in fixed shard order,
  // then reset the replicas for the next step. Replica lookup tables never
  // enter a shard graph, so their gradients stay undefined and are skipped.
  const int64_t used_replicas =
      std::min<int64_t>(static_cast<int64_t>(replicas_.size()),
                        static_cast<int64_t>(shards_.size()) - 1);
  if (used_replicas > 0) {
    std::vector<nn::NamedParameter> prim = primary_->Parameters();
    for (int64_t s = 0; s < used_replicas; ++s) {
      std::vector<nn::NamedParameter> rep = replicas_[s]->Parameters();
      UM_CHECK_EQ(rep.size(), prim.size());
      for (size_t k = 0; k < rep.size(); ++k) {
        prim[k].variable.node()->AccumulateGradFrom(*rep[k].variable.node());
      }
      replicas_[s]->ZeroGrad();
    }
  }

  // Release the step's graphs (the shard bookkeeping stays for gauges).
  for (Shard& shard : shards_) {
    shard.seq = nn::Variable();
    shard.out = nn::Variable();
    shard.head = nn::Variable();
  }
  history_ids_ = nullptr;
}

}  // namespace unimatch::train
