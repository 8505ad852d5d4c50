// UniMatchEngine: the public facade of the library.
//
// One engine = one trained model serving BOTH marketing tasks, which is the
// paper's core value proposition: feed it an interaction log, call Fit()
// once, then ask for item recommendations (IR) and user-targeting lists (UT)
// from the same embeddings.
//
//   unimatch::core::EngineConfig config;
//   unimatch::core::UniMatchEngine engine(config);
//   UM_CHECK(engine.Fit(log).ok());
//   auto items = engine.RecommendItems(user_id, 10);     // IR
//   auto users = engine.TargetUsers(item_id, 10);        // UT

#ifndef UNIMATCH_CORE_UNIMATCH_H_
#define UNIMATCH_CORE_UNIMATCH_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ann/hnsw.h"
#include "src/ann/index.h"
#include "src/ann/pq.h"
#include "src/data/splits.h"
#include "src/model/two_tower.h"
#include "src/train/trainer.h"
#include "src/util/status.h"

namespace unimatch::core {

struct EngineConfig {
  /// Model architecture (num_items is filled in from the log at Fit time).
  model::TwoTowerConfig model;
  /// Training schedule & loss (default: bbcNCE, the paper's choice).
  train::TrainConfig train;
  /// Windowing & filtering.
  data::SplitConfig split;
  /// Serving index: "brute_force" (exact), "ivf" / "hnsw" (approximate,
  /// float storage), "ivfpq" (product-quantized IVF) or "hnsw_q"
  /// (HNSW over int8 rows; `hnsw` settings apply, storage forced to kI8).
  std::string index = "brute_force";
  ann::IvfConfig ivf;
  ann::HnswConfig hnsw;
  ann::IvfPqConfig ivfpq;
};

/// A scored recommendation/targeting entry.
struct Scored {
  int64_t id = -1;
  float score = 0.0f;
};

class UniMatchEngine {
 public:
  explicit UniMatchEngine(EngineConfig config);
  ~UniMatchEngine();

  /// Builds splits from the log, trains incrementally over all training
  /// months with the configured loss, exports embeddings and builds the
  /// serving indexes. May be called once per engine.
  Status Fit(const data::InteractionLog& log);

  /// Continues incremental training with one more month of data (the
  /// production pattern: call monthly with the refreshed log).
  Status FitIncrementalMonth(const data::InteractionLog& log, int32_t month);

  /// IR for a known user id (history taken from the fitted log). `n` must
  /// be positive, as for every query below.
  Result<std::vector<Scored>> RecommendItems(data::UserId user, int n) const;

  /// IR for an ad-hoc behavior sequence (anonymous / cold-start flows).
  Result<std::vector<Scored>> RecommendItemsForHistory(
      const std::vector<data::ItemId>& history, int n) const;

  /// UT: most-likely future buyers of an item, over all known users.
  Result<std::vector<Scored>> TargetUsers(data::ItemId item, int n) const;

  /// Checkpointing of the underlying model parameters.
  Status SaveCheckpoint(const std::string& path) const;
  Status LoadCheckpoint(const std::string& path);

  bool fitted() const { return fitted_; }
  const model::TwoTowerModel* model() const { return model_.get(); }
  const data::DatasetSplits* splits() const {
    return fitted_ ? &splits_ : nullptr;
  }

  /// Normalized embedding matrices (valid after Fit).
  const Tensor& item_embeddings() const { return item_embeddings_; }
  const Tensor& user_embeddings() const { return user_embeddings_; }

  /// The serving indexes over item_embeddings() / user_embeddings() (valid
  /// after Fit). Every rebuild replaces both with new objects and never
  /// mutates a built one, so a holder such as a published
  /// serving::EngineSnapshot keeps its generation alive and unchanged.
  const std::shared_ptr<const ann::Index>& item_index() const {
    return item_index_;
  }
  const std::shared_ptr<const ann::Index>& user_index() const {
    return user_index_;
  }

  /// A fresh, empty index of the configured kind (`EngineConfig::index`).
  /// The engine builds its two serving indexes with it once per model
  /// generation; serving::EngineSnapshot::FromEngine shares those instead
  /// of building its own.
  std::unique_ptr<ann::Index> MakeConfiguredIndex() const;

 private:
  Status RebuildIndexes();

  EngineConfig config_;
  bool fitted_ = false;
  data::DatasetSplits splits_;
  std::unique_ptr<model::TwoTowerModel> model_;
  std::unique_ptr<train::Trainer> trainer_;
  Tensor item_embeddings_;
  Tensor user_embeddings_;
  std::shared_ptr<const ann::Index> item_index_;
  std::shared_ptr<const ann::Index> user_index_;
};

}  // namespace unimatch::core

#endif  // UNIMATCH_CORE_UNIMATCH_H_
