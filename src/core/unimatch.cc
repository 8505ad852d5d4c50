#include "src/core/unimatch.h"

#include "src/nn/serialize.h"
#include "src/obs/obs.h"
#include "src/util/logging.h"

namespace unimatch::core {

UniMatchEngine::UniMatchEngine(EngineConfig config)
    : config_(std::move(config)) {}

UniMatchEngine::~UniMatchEngine() = default;

std::unique_ptr<ann::Index> UniMatchEngine::MakeConfiguredIndex() const {
  if (config_.index == "ivf") {
    return std::make_unique<ann::IvfIndex>(config_.ivf);
  }
  if (config_.index == "hnsw") {
    return std::make_unique<ann::HnswIndex>(config_.hnsw);
  }
  if (config_.index == "ivfpq") {
    return std::make_unique<ann::IvfPqIndex>(config_.ivfpq);
  }
  if (config_.index == "hnsw_q") {
    ann::HnswConfig quantized = config_.hnsw;
    quantized.storage = ScalarType::kI8;
    return std::make_unique<ann::HnswIndex>(quantized);
  }
  // Fit() already rejected anything but the known index kinds.
  UM_CHECK(config_.index == "brute_force");
  return std::make_unique<ann::BruteForceIndex>();
}

Status UniMatchEngine::Fit(const data::InteractionLog& log) {
  if (fitted_) {
    return Status::FailedPrecondition("engine already fitted");
  }
  if (config_.index != "brute_force" && config_.index != "ivf" &&
      config_.index != "hnsw" && config_.index != "ivfpq" &&
      config_.index != "hnsw_q") {
    // Fail loudly up front: a typo like "bruteforce" used to silently fall
    // back to the exact index and masked the intended configuration.
    return Status::InvalidArgument(
        "unknown EngineConfig::index \"" + config_.index +
        "\" (expected brute_force, ivf, hnsw, ivfpq, or hnsw_q)");
  }
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
  fitted_ = true;
  return RebuildIndexes();
}

Status UniMatchEngine::FitIncrementalMonth(const data::InteractionLog& log,
                                           int32_t month) {
  if (!fitted_) return Status::FailedPrecondition("call Fit first");
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
  item_embeddings_ = model_->InferItemEmbeddings();
  std::vector<std::vector<int64_t>> histories(splits_.histories.begin(),
                                              splits_.histories.end());
  user_embeddings_ = model_->InferUserEmbeddings(histories);
  std::unique_ptr<ann::Index> item_index = MakeConfiguredIndex();
  std::unique_ptr<ann::Index> user_index = MakeConfiguredIndex();
  UNIMATCH_RETURN_IF_ERROR(item_index->Build(item_embeddings_));
  UNIMATCH_RETURN_IF_ERROR(user_index->Build(user_embeddings_));
  item_index_ = std::move(item_index);
  user_index_ = std::move(user_index);
  return Status::OK();
}

Result<std::vector<Scored>> UniMatchEngine::RecommendItems(data::UserId user,
                                                           int n) const {
  if (!fitted_) return Status::FailedPrecondition("engine not fitted");
  if (n <= 0) return Status::InvalidArgument("n must be positive");
  if (user < 0 || user >= static_cast<data::UserId>(splits_.histories.size())) {
    return Status::NotFound("unknown user id");
  }
  if (splits_.histories[user].empty()) {
    return Status::NotFound("user has no interaction history");
  }
  UM_SCOPED_TIMER("core.recommend.ms");
  UM_COUNTER_INC("core.recommend.calls");
  const int64_t d = model_->config().embedding_dim;
  const float* uvec = user_embeddings_.data() + user * d;
  std::vector<Scored> out;
  for (const auto& r : item_index_->Search(uvec, n)) {
    out.push_back({r.id, r.score});
  }
  return out;
}

Result<std::vector<Scored>> UniMatchEngine::RecommendItemsForHistory(
    const std::vector<data::ItemId>& history, int n) const {
  if (!fitted_) return Status::FailedPrecondition("engine not fitted");
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
  for (const auto& r : item_index_->Search(emb.data(), n)) {
    out.push_back({r.id, r.score});
  }
  return out;
}

Result<std::vector<Scored>> UniMatchEngine::TargetUsers(data::ItemId item,
                                                        int n) const {
  if (!fitted_) return Status::FailedPrecondition("engine not fitted");
  if (n <= 0) return Status::InvalidArgument("n must be positive");
  if (item < 0 || item >= model_->config().num_items) {
    return Status::NotFound("unknown item id");
  }
  UM_SCOPED_TIMER("core.target.ms");
  UM_COUNTER_INC("core.target.calls");
  const int64_t d = model_->config().embedding_dim;
  const float* ivec = item_embeddings_.data() + item * d;
  std::vector<Scored> out;
  for (const auto& r : user_index_->Search(ivec, n)) {
    out.push_back({r.id, r.score});
  }
  return out;
}

Status UniMatchEngine::SaveCheckpoint(const std::string& path) const {
  if (!fitted_) return Status::FailedPrecondition("engine not fitted");
  return nn::SaveParameters(model_->Parameters(), path);
}

Status UniMatchEngine::LoadCheckpoint(const std::string& path) {
  if (!fitted_) {
    return Status::FailedPrecondition(
        "call Fit first (the model architecture comes from the log)");
  }
  auto params = model_->Parameters();
  UNIMATCH_RETURN_IF_ERROR(nn::LoadParameters(path, &params));
  return RebuildIndexes();
}

}  // namespace unimatch::core
