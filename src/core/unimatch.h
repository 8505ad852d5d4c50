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

namespace unimatch::serving {
class EngineSnapshot;
}  // namespace unimatch::serving

namespace unimatch::core {

struct EngineConfig {
  /// Model architecture (num_items is filled in from the log at Fit time).
  model::TwoTowerConfig model;
  /// Training schedule & loss (default: bbcNCE, the paper's choice).
  train::TrainConfig train;
  /// Windowing & filtering.
  data::SplitConfig split;
  /// Serving index: "brute_force" (exact scan), "ivf" (inverted file),
  /// "ivfpq" (product-quantized IVF) or "hnsw" (graph; `hnsw.storage`
  /// picks f32, f16 or int8 rows).
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
  /// be positive, as for every query below. Answered by snapshot().
  Result<std::vector<Scored>> RecommendItems(data::UserId user, int n) const;

  /// IR for an ad-hoc behavior sequence (anonymous / cold-start flows).
  Result<std::vector<Scored>> RecommendItemsForHistory(
      const std::vector<data::ItemId>& history, int n) const;

  /// UT: most-likely future buyers of an item, over all known users.
  /// Answered by snapshot().
  Result<std::vector<Scored>> TargetUsers(data::ItemId item, int n) const;

  /// Checkpointing of the underlying model parameters.
  Status SaveCheckpoint(const std::string& path) const;
  Status LoadCheckpoint(const std::string& path);

  bool fitted() const { return snapshot_ != nullptr; }
  const model::TwoTowerModel* model() const { return model_.get(); }
  const data::DatasetSplits* splits() const {
    return fitted() ? &splits_ : nullptr;
  }

  /// Normalized embedding matrices of the current generation, aliases of
  /// snapshot()'s tables (empty before Fit).
  Tensor item_embeddings() const;
  Tensor user_embeddings() const;

  /// The query object of the current model generation (null before Fit):
  /// the embedding tables, the servable-user flags and the two serving
  /// indexes. Fit, FitIncrementalMonth and LoadCheckpoint each
  /// build a new one and never mutate a built one, so a holder keeps its
  /// generation alive and unchanged. serving::EngineSnapshot::FromEngine
  /// shares it rather than deriving any of it again.
  const std::shared_ptr<const serving::EngineSnapshot>& snapshot() const {
    return snapshot_;
  }

  /// A fresh, empty index of the configured kind (`EngineConfig::index`),
  /// or null for an unknown kind, which Fit rejects. The engine builds its
  /// two serving indexes with it once per model generation.
  std::unique_ptr<ann::Index> MakeConfiguredIndex() const;

 private:
  Status RebuildIndexes();

  EngineConfig config_;
  data::DatasetSplits splits_;
  std::unique_ptr<model::TwoTowerModel> model_;
  std::unique_ptr<train::Trainer> trainer_;
  std::shared_ptr<const serving::EngineSnapshot> snapshot_;
};

}  // namespace unimatch::core

#endif  // UNIMATCH_CORE_UNIMATCH_H_
