// The paper's sampled-candidate evaluation protocol (Table VI).
//
// IR and UT are one test with the roles of users and items swapped. An
// EvalCase pairs an anchor with one positive candidate (a test-month
// partner) and `num_negatives` candidates sampled from the candidate pool;
// the model ranks the candidates against the anchor and Recall/NDCG@top_n
// is recorded. IR anchors are users and their candidates items; UT anchors
// are items and their candidates users (represented by their training-time
// pseudo-user history).
//
// Qualification follows the paper's filtering: pools contain users/items
// with at least `min_*_interactions` training interactions.

#ifndef UNIMATCH_EVAL_PROTOCOL_H_
#define UNIMATCH_EVAL_PROTOCOL_H_

#include <vector>

#include "src/data/splits.h"
#include "src/util/random.h"

namespace unimatch::eval {

struct ProtocolConfig {
  /// Rank depth (10 in the paper; 5 for w_comp).
  int top_n = 10;
  /// Sampled negatives per case (99 in the paper; 49 for w_comp).
  int num_negatives = 99;
  uint64_t seed = 123;
};

/// One ranking task: `positive` and `negatives` are candidate ids scored
/// against `anchor`. IR cases hold a UserId anchor and ItemId candidates,
/// UT cases the reverse (both are int64_t).
struct EvalCase {
  int64_t anchor = 0;
  int64_t positive = 0;
  /// Sampled from the candidate pool, excluding the anchor's test-month
  /// partners.
  std::vector<int64_t> negatives;
};

class EvalProtocol {
 public:
  /// Builds both tasks' test cases from the splits.
  static EvalProtocol Build(const data::DatasetSplits& splits,
                            const ProtocolConfig& config);

  /// One case per qualifying test user: anchor = user, candidates = items.
  const std::vector<EvalCase>& ir_cases() const { return ir_cases_; }
  /// One case per qualifying test item: anchor = item, candidates = users.
  const std::vector<EvalCase>& ut_cases() const { return ut_cases_; }
  const std::vector<data::ItemId>& item_pool() const { return item_pool_; }
  const std::vector<data::UserId>& user_pool() const { return user_pool_; }
  const ProtocolConfig& config() const { return config_; }

 private:
  ProtocolConfig config_;
  std::vector<EvalCase> ir_cases_;
  std::vector<EvalCase> ut_cases_;
  std::vector<data::ItemId> item_pool_;
  std::vector<data::UserId> user_pool_;
};

}  // namespace unimatch::eval

#endif  // UNIMATCH_EVAL_PROTOCOL_H_
