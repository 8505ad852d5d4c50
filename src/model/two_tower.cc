#include "src/model/two_tower.h"

#include <algorithm>

#include "src/nn/init.h"
#include "src/util/string_util.h"

namespace unimatch::model {

const char* ContextExtractorToString(ContextExtractor e) {
  switch (e) {
    case ContextExtractor::kNone:
      return "YoutubeDNN";
    case ContextExtractor::kCnn:
      return "CNN-l1";
    case ContextExtractor::kGru:
      return "GRU";
    case ContextExtractor::kLstm:
      return "LSTM";
    case ContextExtractor::kTransformer:
      return "Transformer-l1";
  }
  return "?";
}

const char* AggregatorToString(Aggregator a) {
  switch (a) {
    case Aggregator::kMean:
      return "mean";
    case Aggregator::kLast:
      return "last";
    case Aggregator::kMax:
      return "max";
    case Aggregator::kAttention:
      return "attn";
  }
  return "?";
}

Result<ContextExtractor> ContextExtractorFromString(const std::string& s) {
  if (s == "none" || s == "youtube_dnn" || s == "YoutubeDNN") {
    return ContextExtractor::kNone;
  }
  if (s == "cnn") return ContextExtractor::kCnn;
  if (s == "gru") return ContextExtractor::kGru;
  if (s == "lstm") return ContextExtractor::kLstm;
  if (s == "transformer") return ContextExtractor::kTransformer;
  return Status::InvalidArgument("unknown context extractor: " + s);
}

Result<Aggregator> AggregatorFromString(const std::string& s) {
  if (s == "mean") return Aggregator::kMean;
  if (s == "last") return Aggregator::kLast;
  if (s == "max") return Aggregator::kMax;
  if (s == "attn" || s == "attention") return Aggregator::kAttention;
  return Status::InvalidArgument("unknown aggregator: " + s);
}

TwoTowerModel::TwoTowerModel(const TwoTowerConfig& config) : config_(config) {
  UM_CHECK_GT(config_.num_items, 0);
  UM_CHECK_GT(config_.embedding_dim, 0);
  UM_CHECK_GE(config_.num_extractor_layers, 1);
  Rng rng(config_.seed);
  const int64_t d = config_.embedding_dim;
  item_embeddings_ = RegisterParameter(
      "item_embeddings",
      nn::NormalInit({config_.num_items, d}, 0.1f, &rng));
  if (config_.share_embeddings) {
    user_lookup_ = item_embeddings_;
  } else {
    user_lookup_ = RegisterParameter(
        "user_lookup_embeddings",
        nn::NormalInit({config_.num_items, d}, 0.1f, &rng));
  }
  const int layers = config_.extractor == ContextExtractor::kNone
                         ? 0
                         : config_.num_extractor_layers;
  for (int l = 0; l < layers; ++l) {
    const std::string suffix = StrFormat("_%d", l);
    switch (config_.extractor) {
      case ContextExtractor::kNone:
        break;
      case ContextExtractor::kCnn:
        cnn_.push_back(
            std::make_unique<nn::Conv1dSame>(d, d, config_.conv_kernel, &rng));
        RegisterChild("cnn" + suffix, cnn_.back().get());
        break;
      case ContextExtractor::kGru:
        gru_.push_back(std::make_unique<nn::Gru>(d, d, &rng));
        RegisterChild("gru" + suffix, gru_.back().get());
        break;
      case ContextExtractor::kLstm:
        lstm_.push_back(std::make_unique<nn::Lstm>(d, d, &rng));
        RegisterChild("lstm" + suffix, lstm_.back().get());
        break;
      case ContextExtractor::kTransformer:
        transformer_.push_back(
            std::make_unique<nn::TransformerLayer>(d, config_.ffn_dim, &rng));
        RegisterChild("transformer" + suffix, transformer_.back().get());
        break;
    }
  }
  if (config_.aggregator == Aggregator::kAttention) {
    attention_pool_ = std::make_unique<nn::AttentionPoolLayer>(d, &rng);
    RegisterChild("attention_pool", attention_pool_.get());
  }
}

nn::Variable TwoTowerModel::EncodeUsers(
    const std::vector<int64_t>& history_ids,
    const std::vector<int64_t>& lengths, Rng* dropout_rng) const {
  const int64_t b = static_cast<int64_t>(lengths.size());
  UM_CHECK_GT(b, 0);
  UM_CHECK_EQ(static_cast<int64_t>(history_ids.size()) % b, 0);
  const int64_t l = static_cast<int64_t>(history_ids.size()) / b;
  nn::Variable seq =
      nn::EmbeddingLookupSeq(user_lookup_, history_ids, b, l);
  if (dropout_rng != nullptr && config_.dropout > 0.0f) {
    seq = nn::Dropout(seq, config_.dropout, dropout_rng);
  }
  const int layers = config_.extractor == ContextExtractor::kNone
                         ? 0
                         : config_.num_extractor_layers;
  for (int layer = 0; layer < layers; ++layer) {
    switch (config_.extractor) {
      case ContextExtractor::kNone:
        break;
      case ContextExtractor::kCnn:
        seq = cnn_[layer]->Forward(seq, lengths);
        break;
      case ContextExtractor::kGru:
        seq = gru_[layer]->Forward(seq, lengths);
        break;
      case ContextExtractor::kLstm:
        seq = lstm_[layer]->Forward(seq, lengths);
        break;
      case ContextExtractor::kTransformer:
        seq = transformer_[layer]->Forward(seq, lengths);
        break;
    }
  }
  switch (config_.aggregator) {
    case Aggregator::kMean:
      return nn::MaskedMeanPool(seq, lengths);
    case Aggregator::kLast:
      return nn::LastPool(seq, lengths);
    case Aggregator::kMax:
      return nn::MaskedMaxPool(seq, lengths);
    case Aggregator::kAttention:
      return attention_pool_->Forward(seq, lengths);
  }
  UM_LOG(FATAL) << "unreachable";
  return nn::Variable();
}

nn::Variable TwoTowerModel::EncodeItems(
    const std::vector<int64_t>& item_ids) const {
  return nn::EmbeddingLookup(item_embeddings_, item_ids);
}

nn::Variable TwoTowerModel::Normalize(const nn::Variable& emb) const {
  if (!config_.l2_normalize) return emb;
  return nn::L2NormalizeRows(emb);
}

nn::Variable TwoTowerModel::ScoreMatrix(const nn::Variable& users,
                                        const nn::Variable& items) const {
  nn::Variable u = Normalize(users);
  nn::Variable i = Normalize(items);
  return nn::ScalarMul(nn::MatMul(u, i, false, true),
                       1.0f / config_.temperature);
}

nn::Variable TwoTowerModel::ScorePairs(const nn::Variable& users,
                                       const nn::Variable& items) const {
  nn::Variable u = Normalize(users);
  nn::Variable i = Normalize(items);
  return nn::ScalarMul(nn::RowwiseDot(u, i), 1.0f / config_.temperature);
}

Tensor TwoTowerModel::InferUserEmbeddings(
    const std::vector<std::vector<int64_t>>& histories, int64_t batch) const {
  const int64_t n = static_cast<int64_t>(histories.size());
  const int64_t d = config_.embedding_dim;
  Tensor out({n, d});
  for (int64_t begin = 0; begin < n; begin += batch) {
    const int64_t end = std::min(n, begin + batch);
    // Collect the non-empty rows of this slice.
    std::vector<int64_t> rows;
    int64_t max_len = 1;
    for (int64_t r = begin; r < end; ++r) {
      if (!histories[r].empty()) {
        rows.push_back(r);
        max_len = std::max<int64_t>(
            max_len, static_cast<int64_t>(histories[r].size()));
      }
    }
    if (rows.empty()) continue;
    const int64_t bsz = static_cast<int64_t>(rows.size());
    std::vector<int64_t> ids(bsz * max_len, nn::kPadId);
    std::vector<int64_t> lengths(bsz);
    for (int64_t k = 0; k < bsz; ++k) {
      const auto& h = histories[rows[k]];
      lengths[k] = static_cast<int64_t>(h.size());
      std::copy(h.begin(), h.end(), ids.begin() + k * max_len);
    }
    const Tensor emb = Normalize(EncodeUsers(ids, lengths)).value();
    for (int64_t k = 0; k < bsz; ++k) {
      const float* src = emb.data() + k * d;
      std::copy(src, src + d, out.data() + rows[k] * d);
    }
  }
  return out;
}

Tensor TwoTowerModel::InferItemEmbeddings() const {
  std::vector<int64_t> ids(config_.num_items);
  for (int64_t i = 0; i < config_.num_items; ++i) ids[i] = i;
  // Tensors are refcounted handles: returning the value aliases the
  // encoder output instead of copying the whole [num_items, d] matrix.
  return Normalize(EncodeItems(ids)).value();
}

}  // namespace unimatch::model
