// The UniMatch two-tower architecture (Fig. 2 of the paper).
//
// User tower: item-embedding lookup of the behavior sequence -> context
// extractor (none / CNN / GRU / LSTM / Transformer) -> aggregator (mean /
// last / max / attention pooling) -> d-dim user vector.
// Item tower: a row of the shared item-embedding lookup table.
// Matching score (Eq. 13): phi(u, i) = <u, i> / (||u|| ||i|| tau).
//
// "YoutubeDNN" in the paper's Table XII corresponds to extractor = kNone
// (the lookup embeddings go straight to the aggregation layer).

#ifndef UNIMATCH_MODEL_TWO_TOWER_H_
#define UNIMATCH_MODEL_TWO_TOWER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/nn/attention.h"
#include "src/nn/conv.h"
#include "src/nn/module.h"
#include "src/nn/ops.h"
#include "src/nn/rnn.h"
#include "src/nn/seq_ops.h"
#include "src/util/status.h"

namespace unimatch::model {

enum class ContextExtractor { kNone, kCnn, kGru, kLstm, kTransformer };
enum class Aggregator { kMean, kLast, kMax, kAttention };

const char* ContextExtractorToString(ContextExtractor e);
const char* AggregatorToString(Aggregator a);
Result<ContextExtractor> ContextExtractorFromString(const std::string& s);
Result<Aggregator> AggregatorFromString(const std::string& s);

struct TwoTowerConfig {
  int64_t num_items = 0;
  int64_t embedding_dim = 16;  // the paper's d = 16
  ContextExtractor extractor = ContextExtractor::kNone;
  Aggregator aggregator = Aggregator::kMean;
  /// Temperature tau of Eq. 13.
  float temperature = 0.2f;
  /// L2-normalize tower outputs before the dot product (Eq. 13). The
  /// ablation bench turns this off.
  bool l2_normalize = true;
  /// Transformer FFN width.
  int64_t ffn_dim = 32;
  /// CNN kernel size (odd).
  int64_t conv_kernel = 3;
  /// Stacked context-extractor layers (CNN/GRU/LSTM/Transformer only).
  int num_extractor_layers = 1;
  /// Dropout rate on the embedded behavior sequence (training only;
  /// applied when a dropout RNG is passed to EncodeUsers).
  float dropout = 0.0f;
  /// Share the item-embedding lookup table between the towers (the paper's
  /// design, Fig. 2). false gives each tower its own table — the
  /// bench_ablation_shared_emb comparison.
  bool share_embeddings = true;
  /// Parameter-init seed.
  uint64_t seed = 7;
};

class TwoTowerModel : public nn::Module {
 public:
  explicit TwoTowerModel(const TwoTowerConfig& config);

  /// Encodes a batch of histories (row-major [B, L] ids, nn::kPadId padded)
  /// into raw (pre-normalization) user vectors [B, d]. Passing a non-null
  /// `dropout_rng` enables training-time dropout on the embedded sequence
  /// (config().dropout); inference callers leave it null.
  nn::Variable EncodeUsers(const std::vector<int64_t>& history_ids,
                           const std::vector<int64_t>& lengths,
                           Rng* dropout_rng = nullptr) const;

  /// Encodes item ids into raw item vectors [B, d].
  nn::Variable EncodeItems(const std::vector<int64_t>& item_ids) const;

  /// Applies Eq. 13's normalization (l2 + nothing else) to tower outputs.
  nn::Variable Normalize(const nn::Variable& emb) const;

  /// Full phi matrix between a user batch and an item batch:
  /// out[r][c] = phi(u_r, i_c), including the 1/tau rescale. Inputs are raw
  /// tower outputs.
  nn::Variable ScoreMatrix(const nn::Variable& users,
                           const nn::Variable& items) const;

  /// Row-wise phi(u_r, i_r) for paired batches -> [B].
  nn::Variable ScorePairs(const nn::Variable& users,
                          const nn::Variable& items) const;

  /// ----- inference (no gradient bookkeeping kept by the caller) -----
  /// Normalized user embeddings for arbitrary histories; empty histories
  /// produce zero vectors. Processed in slices of `batch` rows.
  Tensor InferUserEmbeddings(const std::vector<std::vector<int64_t>>& histories,
                             int64_t batch = 256) const;

  /// Normalized embeddings of every item in the catalog, [num_items, d].
  Tensor InferItemEmbeddings() const;

  const TwoTowerConfig& config() const { return config_; }

 private:
  TwoTowerConfig config_;
  nn::Variable item_embeddings_;  // [num_items, d] (item tower)
  /// User-tower lookup table: aliases item_embeddings_ when
  /// share_embeddings, a separate parameter otherwise.
  nn::Variable user_lookup_;
  std::vector<std::unique_ptr<nn::Conv1dSame>> cnn_;
  std::vector<std::unique_ptr<nn::Gru>> gru_;
  std::vector<std::unique_ptr<nn::Lstm>> lstm_;
  std::vector<std::unique_ptr<nn::TransformerLayer>> transformer_;
  std::unique_ptr<nn::AttentionPoolLayer> attention_pool_;
};

}  // namespace unimatch::model

#endif  // UNIMATCH_MODEL_TWO_TOWER_H_
