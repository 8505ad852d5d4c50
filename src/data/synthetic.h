// Synthetic marketplace simulator.
//
// The paper evaluates on two Amazon review datasets and two proprietary
// QuickAudience client datasets, none of which can ship with this repo. The
// simulator substitutes them with a latent-topic purchase model that
// reproduces the *regimes* the experiments probe:
//
//   * power-law item popularity (drives the popularity-bias effects of
//     Table XI and the bias-correction gains of Tables IX/X),
//   * power-law user activity (drives the sparse-user effects on UT),
//   * latent topics shared between a user's history and future purchases
//     (gives the sequence model signal to learn),
//   * per-item popularity drift over months (drives the incremental-training
//     gains of Fig. 3 on trend-sensitive datasets).
//
// Four presets mirror the shapes of Table III at ~1/40 scale so every
// experiment runs on a laptop CPU.

#ifndef UNIMATCH_DATA_SYNTHETIC_H_
#define UNIMATCH_DATA_SYNTHETIC_H_

#include <string>

#include "src/data/event_log.h"
#include "src/util/random.h"
#include "src/util/status.h"

namespace unimatch::data {

struct SyntheticConfig {
  std::string name = "synthetic";
  int64_t num_users = 4000;
  int64_t num_items = 1000;
  int32_t num_months = 18;
  int64_t target_interactions = 40000;

  /// Latent structure.
  int num_topics = 16;
  /// Zipf exponent of base item popularity (0 = uniform).
  double popularity_zipf = 0.9;
  /// Zipf exponent of user activity.
  double user_activity_zipf = 0.8;
  /// Probability mass a user puts on the primary / secondary topic; the
  /// remainder spreads uniformly.
  double primary_topic_mass = 0.6;
  double secondary_topic_mass = 0.2;
  /// Probability of a fully random (noise) purchase.
  double noise_prob = 0.08;
  /// Per-month stddev of each item's log-popularity random walk. Large
  /// values model trend-driven catalogs (books); ~0 models stable catalogs
  /// (electronics).
  double trend_drift = 0.0;
  /// Fraction of the catalog launched AFTER month 0 (uniformly across the
  /// remaining months). New releases are what make stale models decay on
  /// trend-driven catalogs (Fig. 3): a model trained k months before the
  /// test month has never seen items launched since.
  double new_item_fraction = 0.0;
  /// Popularity multiplier for freshly launched items, decaying with a
  /// 1-month half-life: weight *= 1 + boost * 0.5^(months_since_launch).
  double newness_boost = 0.0;

  uint64_t seed = 42;
};

/// Generates a complete interaction log for the config.
InteractionLog GenerateSynthetic(const SyntheticConfig& config);

/// Presets mirroring the paper's Table III datasets (scaled down).
SyntheticConfig BooksPreset();        // sparse, many items, trend-sensitive
SyntheticConfig ElectronicsPreset();  // very sparse users, stable trends
SyntheticConfig QaEcompPreset();      // few items, dense, trend-sensitive
SyntheticConfig QaWcompPreset();      // tiny catalog, extremely dense items

/// Looks up a preset by name ("books", "electronics", "e_comp", "w_comp").
Result<SyntheticConfig> PresetByName(const std::string& name);

}  // namespace unimatch::data

#endif  // UNIMATCH_DATA_SYNTHETIC_H_
