#include "src/baselines/mf.h"

#include <cmath>

#include "src/data/batcher.h"
#include "src/nn/init.h"
#include "src/nn/ops.h"
#include "src/nn/optimizer.h"
#include "src/nn/seq_ops.h"

namespace unimatch::baselines {

MatrixFactorization::MatrixFactorization(int64_t num_users,
                                         int64_t num_items,
                                         const MfConfig& config)
    : config_(config) {
  Rng rng(config_.seed);
  user_embeddings_ = RegisterParameter(
      "user_embeddings",
      nn::NormalInit({num_users, config_.embedding_dim}, 0.1f, &rng));
  item_embeddings_ = RegisterParameter(
      "item_embeddings",
      nn::NormalInit({num_items, config_.embedding_dim}, 0.1f, &rng));
}

Status MatrixFactorization::Train(const data::DatasetSplits& splits) {
  if (splits.train.empty()) {
    return Status::InvalidArgument("no training samples");
  }
  Rng rng(config_.seed + 1);
  nn::Adam opt(Parameters(), config_.learning_rate);
  const auto settings = loss::SettingsFor(config_.loss);
  // MF reads only the batch's ids and log-marginals, so the history window
  // is one item wide.
  data::BatchIterator it(&splits.train, &splits.train_marginals,
                         splits.train.AllIndices(), config_.batch_size,
                         /*max_seq_len=*/1, &rng);
  data::Batch batch;
  for (int e = 0; e < config_.epochs; ++e) {
    if (e > 0) it.Reset();
    while (it.Next(&batch)) {
      nn::Variable u = nn::L2NormalizeRows(
          nn::EmbeddingLookup(user_embeddings_, batch.users));
      nn::Variable i = nn::L2NormalizeRows(
          nn::EmbeddingLookup(item_embeddings_, batch.targets));
      nn::Variable scores = nn::ScalarMul(nn::MatMul(u, i, false, true),
                                          1.0f / config_.temperature);
      nn::Variable l =
          loss::NceFamilyLoss(scores, batch.log_pu, batch.log_pi, settings);
      nn::Backward(l);
      opt.Step();
      opt.ZeroGrad();
    }
  }
  return Status::OK();
}

double MatrixFactorization::Score(data::UserId u, data::ItemId i) const {
  const int64_t d = config_.embedding_dim;
  const float* pu = user_embeddings_.value().data() + u * d;
  const float* pi = item_embeddings_.value().data() + i * d;
  double dot = 0.0, nu = 0.0, ni = 0.0;
  for (int64_t j = 0; j < d; ++j) {
    dot += static_cast<double>(pu[j]) * pi[j];
    nu += static_cast<double>(pu[j]) * pu[j];
    ni += static_cast<double>(pi[j]) * pi[j];
  }
  if (nu == 0.0 || ni == 0.0) return 0.0;
  return dot / std::sqrt(nu * ni);
}

}  // namespace unimatch::baselines
