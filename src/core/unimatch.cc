#include "src/core/unimatch.h"

#include <cmath>

#include "src/nn/optimizer.h"
#include "src/nn/serialize.h"
#include "src/obs/obs.h"
#include "src/serving/snapshot.h"

namespace unimatch::core {

UniMatchEngine::UniMatchEngine(EngineConfig config)
    : config_(std::move(config)) {}

UniMatchEngine::~UniMatchEngine() = default;

std::unique_ptr<ann::Index> UniMatchEngine::MakeConfiguredIndex() const {
  if (config_.index == "brute_force") {
    return std::make_unique<ann::BruteForceIndex>();
  }
  if (config_.index == "ivf") {
    return std::make_unique<ann::IvfIndex>(config_.ivf);
  }
  if (config_.index == "ivfpq") {
    return std::make_unique<ann::IvfPqIndex>(config_.ivfpq);
  }
  if (config_.index == "hnsw") {
    return std::make_unique<ann::HnswIndex>(config_.hnsw);
  }
  return nullptr;
}

Status UniMatchEngine::CheckConfig() const {
  const model::TwoTowerConfig& mc = config_.model;
  if (mc.embedding_dim < 1) {
    return Status::InvalidArgument("model.embedding_dim must be at least 1");
  }
  if (!(mc.temperature > 0.0f) || !std::isfinite(mc.temperature)) {
    return Status::InvalidArgument(
        "model.temperature must be positive and finite");
  }
  if (mc.num_extractor_layers < 1) {
    return Status::InvalidArgument(
        "model.num_extractor_layers must be at least 1");
  }
  if (mc.extractor == model::ContextExtractor::kCnn &&
      (mc.conv_kernel < 1 || mc.conv_kernel % 2 == 0)) {
    return Status::InvalidArgument(
        "model.conv_kernel must be odd and positive");
  }
  if (!(mc.dropout >= 0.0f && mc.dropout < 1.0f)) {
    return Status::InvalidArgument("model.dropout must be in [0, 1)");
  }
  const train::TrainConfig& tc = config_.train;
  if (tc.num_threads < 1) {
    return Status::InvalidArgument("train.num_threads must be at least 1");
  }
  if (tc.batch_size < 1) {
    return Status::InvalidArgument("train.batch_size must be at least 1");
  }
  if (tc.ssm_num_negatives < 0) {
    return Status::InvalidArgument(
        "train.ssm_num_negatives must not be negative");
  }
  if (nn::MakeOptimizer(tc.optimizer, {}, tc.learning_rate) == nullptr) {
    return Status::InvalidArgument("unknown train.optimizer \"" +
                                   tc.optimizer + "\"");
  }
  const data::WindowConfig& window = config_.split.window;
  if (window.max_seq_len < 1 || window.min_history < 1) {
    return Status::InvalidArgument(
        "split.window.max_seq_len and min_history must be at least 1");
  }
  const std::unique_ptr<ann::Index> index = MakeConfiguredIndex();
  if (index == nullptr) {
    // Fail loudly up front: a typo like "bruteforce" used to silently fall
    // back to the exact index and masked the intended configuration.
    return Status::InvalidArgument(
        "unknown EngineConfig::index \"" + config_.index +
        "\" (expected brute_force, ivf, ivfpq or hnsw)");
  }
  return index->CheckConfig();
}

Status UniMatchEngine::Fit(const data::InteractionLog& log) {
  if (fitted()) {
    return Status::FailedPrecondition("engine already fitted");
  }
  UNIMATCH_RETURN_IF_ERROR(CheckConfig());
  if (log.empty()) return Status::InvalidArgument("empty interaction log");
  if (log.NumMonths() < 3) {
    return Status::InvalidArgument(
        "log must span at least 3 months for a train/valid/test split");
  }
  splits_ = data::MakeSplits(log, config_.split);
  if (splits_.train.empty()) {
    return Status::InvalidArgument("no training samples after windowing");
  }
  model::TwoTowerConfig mc = config_.model;
  mc.num_items = log.num_items();
  model_ = std::make_unique<model::TwoTowerModel>(mc);
  trainer_ = std::make_unique<train::Trainer>(model_.get(), &splits_,
                                              config_.train);
  UNIMATCH_RETURN_IF_ERROR(trainer_->TrainMonths(0, splits_.test_month - 1));
  return RebuildIndexes();
}

Status UniMatchEngine::FitIncrementalMonth(const data::InteractionLog& log,
                                           int32_t month) {
  if (!fitted()) return Status::FailedPrecondition("call Fit first");
  if (log.num_items() != model_->config().num_items) {
    return Status::InvalidArgument("item catalog size changed");
  }
  splits_ = data::MakeSplits(log, config_.split);
  trainer_ = std::make_unique<train::Trainer>(model_.get(), &splits_,
                                              config_.train);
  UNIMATCH_RETURN_IF_ERROR(trainer_->TrainMonth(month));
  return RebuildIndexes();
}

Status UniMatchEngine::RebuildIndexes() {
  UM_SCOPED_TIMER("core.index.rebuild.ms");
  UM_COUNTER_INC("core.index.rebuilds");
  const Tensor items = model_->InferItemEmbeddings();
  std::vector<std::vector<int64_t>> histories(splits_.histories.begin(),
                                              splits_.histories.end());
  const Tensor users = model_->InferUserEmbeddings(histories);
  std::unique_ptr<ann::Index> item_index = MakeConfiguredIndex();
  std::unique_ptr<ann::Index> user_index = MakeConfiguredIndex();
  UNIMATCH_RETURN_IF_ERROR(item_index->Build(items));
  UNIMATCH_RETURN_IF_ERROR(user_index->Build(users));
  std::vector<uint8_t> servable;
  servable.reserve(splits_.histories.size());
  for (const auto& history : splits_.histories) {
    servable.push_back(history.empty() ? 0 : 1);
  }
  // The generation's version counts the rebuilds so far.
  snapshot_ = serving::EngineSnapshot::Make(
      snapshot_ == nullptr ? 1 : snapshot_->version() + 1,
      QuantizedMatrix::Quantize(users, ScalarType::kF32),
      QuantizedMatrix::Quantize(items, ScalarType::kF32),
      std::move(servable), std::move(item_index), std::move(user_index));
  return Status::OK();
}

Tensor UniMatchEngine::item_embeddings() const {
  return fitted() ? snapshot_->item_embeddings() : Tensor();
}

Tensor UniMatchEngine::user_embeddings() const {
  return fitted() ? snapshot_->user_embeddings() : Tensor();
}

Result<std::vector<Scored>> UniMatchEngine::RecommendItems(data::UserId user,
                                                           int n) const {
  if (!fitted()) return Status::FailedPrecondition("engine not fitted");
  UM_SCOPED_TIMER("core.recommend.ms");
  UM_COUNTER_INC("core.recommend.calls");
  return snapshot_->RecommendItems(user, n);
}

Result<std::vector<Scored>> UniMatchEngine::RecommendItemsForHistory(
    const std::vector<data::ItemId>& history, int n) const {
  if (!fitted()) return Status::FailedPrecondition("engine not fitted");
  if (n <= 0) return Status::InvalidArgument("n must be positive");
  if (history.empty()) {
    return Status::InvalidArgument("history must be non-empty");
  }
  for (auto i : history) {
    if (i < 0 || i >= model_->config().num_items) {
      return Status::InvalidArgument("history contains unknown item id");
    }
  }
  const Tensor emb = model_->InferUserEmbeddings({history});
  std::vector<Scored> out;
  for (const auto& r : snapshot_->item_index_->Search(emb.data(), n)) {
    out.push_back({r.id, r.score});
  }
  return out;
}

Result<std::vector<Scored>> UniMatchEngine::TargetUsers(data::ItemId item,
                                                        int n) const {
  if (!fitted()) return Status::FailedPrecondition("engine not fitted");
  UM_SCOPED_TIMER("core.target.ms");
  UM_COUNTER_INC("core.target.calls");
  return snapshot_->TargetUsers(item, n);
}

Status UniMatchEngine::SaveCheckpoint(const std::string& path) const {
  if (!fitted()) return Status::FailedPrecondition("engine not fitted");
  return nn::SaveParameters(model_->Parameters(), path);
}

Status UniMatchEngine::LoadCheckpoint(const std::string& path) {
  if (!fitted()) {
    return Status::FailedPrecondition(
        "call Fit first (the model architecture comes from the log)");
  }
  auto params = model_->Parameters();
  UNIMATCH_RETURN_IF_ERROR(nn::LoadParameters(path, &params));
  return RebuildIndexes();
}

}  // namespace unimatch::core
